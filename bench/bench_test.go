package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"authtext/internal/corpus"
	"authtext/internal/index"
)

func TestEstimatorsOnKnownInputs(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := percentile(sorted, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}

	// One window hit by a hiccup moves the plain median of all samples but
	// not the median of window medians.
	var byWindow [windows][]float64
	for w := range byWindow {
		byWindow[w] = []float64{1, 2, 3}
	}
	byWindow[3] = []float64{100, 200, 300}
	if got := windowedMedian(byWindow); got != 2 {
		t.Errorf("windowedMedian = %v, want 2", got)
	}
	byWindow[0] = nil // an empty window is skipped, not counted as 0
	if got := windowedMedian(byWindow); got != 2 {
		t.Errorf("windowedMedian with an empty window = %v, want 2", got)
	}

	for _, c := range []struct {
		offset float64
		want   int
	}{{0, 0}, {1.99, 0}, {2, 1}, {9.99, 4}, {10, 4}, {12, 4}} {
		if got := windowIndex(c.offset, 10); got != c.want {
			t.Errorf("windowIndex(%v of 10) = %d, want %d", c.offset, got, c.want)
		}
	}

	p := &phaseResult{length: 5 * time.Second, samples: []sample{
		{from: 0, done: 500 * time.Millisecond, ok: true},
		{from: 0, done: 900 * time.Millisecond, ok: true},
		{from: 0, done: 950 * time.Millisecond, ok: false},       // failed: not throughput
		{from: 4 * time.Second, done: 6 * time.Second, ok: true}, // drained after the phase: no window
	}}
	if got := p.throughputByWindow(); !reflect.DeepEqual(got, []float64{2, 0, 0, 0, 0}) {
		t.Errorf("throughputByWindow = %v", got)
	}
	if got := p.sloMissShare(1000); got != 0.5 { // the failure and the 2 s answer
		t.Errorf("sloMissShare = %v, want 0.5", got)
	}
}

// A server that stalls once must not make the open loop send fewer
// requests, and the requests that were due during the stall must be
// charged the time they spent queued behind it.
func TestOpenLoopMeasuresFromTheSchedule(t *testing.T) {
	const (
		rate    = 200.0 // one request every 5 ms
		stallAt = 20
		stall   = 200 * time.Millisecond
	)
	search := func(ctx context.Context, i int) error {
		if i == stallAt {
			time.Sleep(stall)
		}
		return nil
	}
	var next atomic.Int64
	res := openLoop(context.Background(), search, &next, rate, time.Second, 1)

	if len(res.samples) != 200 || res.failed() != 0 {
		t.Fatalf("sent %d requests (%d failed), want all 200 however slow the server", len(res.samples), res.failed())
	}
	// Requests due in the first half of the stall waited ≥ 100 ms in the
	// queue. A closed loop, or a clock started at the actual send, would
	// report exactly one slow request.
	slow := 0
	for _, s := range res.samples {
		if s.latencyMs() >= 100 {
			slow++
		}
	}
	if slow < 15 {
		t.Errorf("%d requests took ≥ 100 ms from their scheduled send, want ≈ 20: queueing behind the stall is not being measured", slow)
	}
	if res.maxBacklog < 30 {
		t.Errorf("max backlog %d, want ≈ 40: the stall must show up as queueing", res.maxBacklog)
	}
	// The generator itself kept to its schedule while the server stalled.
	if late := percentile(res.lateMs, 0.99); late > 25 {
		t.Errorf("the dispatcher ran %.1f ms late at p99 during a %s server stall", late, stall)
	}
	if next.Load() != 200 {
		t.Errorf("stream positions handed out: %d, want 200", next.Load())
	}
}

func TestStreamsDependOnTheSeedAlone(t *testing.T) {
	_, idocs := generateDocs(corpus.Tiny(), true)
	idx, err := index.Build(idocs, index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		a := queryStrings(w.stream(idx, 300, 7))
		b := queryStrings(w.stream(idx, 300, 7))
		c := queryStrings(w.stream(idx, 300, 8))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated different requests", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds generated identical requests", w.name)
		}
	}
}

func TestScrapeDeltaArithmetic(t *testing.T) {
	const before = `# HELP authtext_http_request_seconds HTTP request wall time (seconds), by endpoint.
# TYPE authtext_http_request_seconds histogram
authtext_http_request_seconds_bucket{endpoint="search",le="+Inf"} 10
authtext_http_request_seconds_sum{endpoint="search"} 0.010
authtext_http_request_seconds_count{endpoint="search"} 10
authtext_search_stage_seconds_sum{stage="engine"} 0.004
authtext_search_stage_seconds_count{stage="engine"} 10
authtext_search_stage_seconds_sum{stage="wire_encode"} 0.001
authtext_search_stage_seconds_count{stage="wire_encode"} 10
authtext_search_stage_seconds_sum{stage="cache_lookup"} 0
authtext_search_stage_seconds_count{stage="cache_lookup"} 10
authtext_wire_frames_total{content_type="binary"} 10
authtext_wire_frames_total{content_type="json"} 0
authtext_vocache_hits_total 0
authtext_vocache_misses_total 10
authtext_vocache_evictions_total 1
authtext_vocache_bytes 1048576
`
	const after = `authtext_http_request_seconds_bucket{endpoint="search",le="+Inf"} 110
authtext_http_request_seconds_sum{endpoint="search"} 0.060
authtext_http_request_seconds_count{endpoint="search"} 110
authtext_search_stage_seconds_sum{stage="engine"} 0.014
authtext_search_stage_seconds_count{stage="engine"} 30
authtext_search_stage_seconds_sum{stage="wire_encode"} 0.011
authtext_search_stage_seconds_count{stage="wire_encode"} 110
authtext_search_stage_seconds_sum{stage="cache_lookup"} 0.0002
authtext_search_stage_seconds_count{stage="cache_lookup"} 110
authtext_wire_frames_total{content_type="binary"} 100
authtext_wire_frames_total{content_type="json"} 10
authtext_vocache_hits_total 80
authtext_vocache_misses_total 30
authtext_vocache_evictions_total 6
authtext_vocache_bytes 2097152
`
	b, err := parseScrape(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseScrape(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	res := &result{Metrics: map[string]measured{}}
	setScraped(res, a, a.delta(b))
	want := map[string]float64{
		"httpapi.request_us": 500, // 0.050 s over 100 requests
		// 0.050 s of requests − (0.010 engine + 0.010 wire_encode + 0.0002
		// lookup) of stages, per request.
		"httpapi.overhead_us":        298,
		"httpapi.binary_frame_share": 0.9,
		"vocache.hit_ratio":          0.8,
		"vocache.lookup_us":          2,
		"vocache.evictions":          5,
		"vocache.resident_mb":        2,   // a gauge: read from the later scrape, not differenced
		"engine.stage_us":            500, // per engine run (20 misses), not per request
	}
	for name, v := range want {
		if got := res.Metrics[name].Value; math.Abs(got-v) > 1e-6 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if _, ok := res.Metrics["vocache.invalidations"]; !ok {
		t.Error("a series the daemon does not export must read as 0, not go missing")
	}
}

func TestCompareJudgesByTheBounds(t *testing.T) {
	doc := func(p50, qps float64, failed int) *document {
		r := &result{Correct: true, Attempted: 1000, Failed: failed, Metrics: map[string]measured{}}
		r.set("verified_p50_ms", p50)
		r.set("capacity_qps", qps)
		return &document{Workloads: map[string]*result{"short_uncached": r}}
	}
	dir := t.TempDir()
	write := func(name string, d *document) string {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", doc(2.0, 1000, 0))
	for _, c := range []struct {
		name      string
		other     *document
		regressed bool
		mentions  string
	}{
		{"within the bounds", doc(2.2, 950, 0), false, "ok"},
		{"latency up 30%", doc(2.6, 1000, 0), true, "regressed"},
		{"capacity down 30%", doc(2.0, 700, 0), true, "regressed"},
		{"capacity up 30%", doc(2.0, 1300, 0), false, "improved"},
		{"failures appear", doc(2.0, 1000, 3), true, "regressed"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, base, write("other.json", c.other))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if regressed != c.regressed || !strings.Contains(out.String(), c.mentions) {
			t.Errorf("%s: regressed=%v, want %v; output:\n%s", c.name, regressed, c.regressed, out.String())
		}
	}
	if code := realMain([]string{"-compare", base, write("worse.json", doc(3, 1000, 0))}, &bytes.Buffer{}, &bytes.Buffer{}); code != 1 {
		t.Errorf("-compare exit code on a regression = %d, want 1", code)
	}
}

// BENCHMARK.json is the contract the driver reads; the catalog in
// metrics.go and the specs in workloads.go are what the program does.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, the program has %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		var want []metricDef
		for _, d := range defs {
			if d.everywhere {
				want = append(want, d)
			}
		}
		if len(listed) != len(want) {
			t.Errorf("%s: %d metrics listed, the program reports %d from every workload", kind, len(listed), len(want))
			return
		}
		for i, d := range want {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: %+v, the program has %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s[%d] %s: bound %v, the program has %v", kind, i, m.Name, m.Bound, d.bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

// The whole program against a real authserved child, at toy scale: a
// static workload and the live one, untraced phases and traced pass.
func TestSmokeEndToEnd(t *testing.T) {
	work := t.TempDir()
	traceOut := filepath.Join(work, "spans.json")
	jsonOut := filepath.Join(work, "result.json")
	for _, name := range []string{"verbose_tra", "live_updates"} {
		var stdout, stderr bytes.Buffer
		opts := options{workload: name, seed: 1, seconds: 1, trace: traceBoth, smoke: true,
			traceOut: traceOut, jsonOut: jsonOut, workRoot: work}
		if err := run(context.Background(), opts, &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, stderr.String())
		}
		doc, err := readDocument(jsonOut)
		if err != nil {
			t.Fatal(err)
		}
		res := doc.Workloads[name]
		if res == nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("%s: result %+v", name, res)
		}
		// Every metric BENCHMARK.json names is present and finite.
		for _, traced := range []bool{false, true} {
			if _, err := res.contract(traced); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		for metric, m := range res.Metrics {
			if !strings.Contains(stdout.String(), metric) || m.Unit == "" {
				t.Errorf("%s: metric %s (unit %q) is not printed by name with its unit", name, metric, m.Unit)
			}
		}
		if res.Metrics["remote.tamper_rejections"].Value != 1 {
			t.Errorf("%s: tamper canary counted %v rejections, want 1", name, res.Metrics["remote.tamper_rejections"].Value)
		}
		// The parts are reported, not hidden.
		for _, part := range []string{"remote.unaccounted_us", "httpapi.overhead_us", "trace.overhead_pct"} {
			if _, ok := res.Metrics[part]; !ok {
				t.Errorf("%s: %s is missing", name, part)
			}
		}
		if name == "live_updates" {
			if res.Metrics["live.generations"].Value < 1 || res.Metrics["live.vocab_growth_rebuild_s"].Value <= 0 {
				t.Errorf("live_updates published %v generations, vocabulary growth took %v s",
					res.Metrics["live.generations"].Value, res.Metrics["live.vocab_growth_rebuild_s"].Value)
			}
		}
		// The last line of standard output is the JSON document.
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last document
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Workloads[name] == nil {
			t.Errorf("%s: last stdout line is not the result document: %v", name, err)
		}
		var spans struct {
			Traces []workloadTrace `json:"traces"`
		}
		b, err := os.ReadFile(traceOut)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &spans); err != nil || len(spans.Traces) != 1 || len(spans.Traces[0].Spans) == 0 {
			t.Errorf("%s: span file: %v, %d traces", name, err, len(spans.Traces))
		}
		// A run agrees with itself.
		if regressed, err := compareFiles(&bytes.Buffer{}, jsonOut, jsonOut); err != nil || regressed {
			t.Errorf("%s: comparing a result with itself: regressed=%v err=%v", name, regressed, err)
		}
	}
	// Nothing is left behind: no daemon, no scratch directory.
	left, err := filepath.Glob(filepath.Join(work, "run-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("scratch directories left behind: %v (%v)", left, err)
	}
}
