package authtext

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"authtext/internal/httpapi"
	"authtext/internal/obs"
)

// Observability suite: /v1/metrics serves a parseable exposition whose
// values agree with /v1/healthz, covers the documented catalog once
// traffic arrives, and stays consistent while generations swap under it.

// metricsHarness is a live deployment with cache and metrics attached,
// driven through the real HTTP handler.
type metricsHarness struct {
	owner   *LiveOwner
	handles []DocHandle
	m       *Metrics
	h       http.Handler
}

func newMetricsHarness(t *testing.T) *metricsHarness {
	t.Helper()
	owner, handles, err := NewLiveOwner(liveDocs(0, 16))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	h, err := owner.HTTPHandler(WithMetrics(m), WithVOCache(NewVOCache(1<<20)))
	if err != nil {
		t.Fatal(err)
	}
	return &metricsHarness{owner: owner, handles: handles, m: m, h: h}
}

func (mh *metricsHarness) search(t *testing.T, query string) *httptest.ResponseRecorder {
	t.Helper()
	body := fmt.Sprintf(`{"query":%q,"r":3}`, query)
	req := httptest.NewRequest(http.MethodPost, httpapi.PathSearch, strings.NewReader(body))
	w := httptest.NewRecorder()
	mh.h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("search %q: status %d: %s", query, w.Code, w.Body)
	}
	return w
}

func (mh *metricsHarness) scrape(t *testing.T) []obs.Sample {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, httpapi.PathMetrics, nil)
	w := httptest.NewRecorder()
	mh.h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("scrape: status %d: %s", w.Code, w.Body)
	}
	samples, err := obs.Parse(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	return samples
}

func sampleValue(t *testing.T, samples []obs.Sample, name string, labels ...obs.Label) float64 {
	t.Helper()
	s, ok := obs.FindSample(samples, name, labels...)
	if !ok {
		t.Fatalf("series %s %v not found", name, labels)
	}
	return s.Value
}

// TestMetricsCatalogNonZeroAfterTraffic is the acceptance check: after
// representative traffic (searches, a repeat for a cache hit, one update
// batch), the exposition parses and at least 12 distinct metric families
// carry a non-zero sample.
func TestMetricsCatalogNonZeroAfterTraffic(t *testing.T) {
	mh := newMetricsHarness(t)

	// What a cache hit skips: across the repeat the cache-hit counter
	// moves and the engine-side histograms do not.
	engineSide := func(samples []obs.Sample) [4]float64 {
		return [4]float64{
			sampleValue(t, samples, "authtext_search_stage_seconds_count", obs.L("stage", "engine")),
			sampleValue(t, samples, "authtext_search_stage_seconds_count", obs.L("stage", "vo_encode")),
			sampleValue(t, samples, "authtext_engine_phase_seconds_count", obs.L("phase", "index_walk")),
			sampleValue(t, samples, "authtext_engine_phase_seconds_count", obs.L("phase", "proof_assembly")),
		}
	}
	mh.search(t, liveQuery)
	miss := mh.scrape(t)
	mh.search(t, liveQuery) // repeat: cache hit
	hit := mh.scrape(t)
	if before, after := engineSide(miss), engineSide(hit); before != after || before[0] != 1 {
		t.Errorf("engine-side observations went from %v to %v across a cache hit, want all 1 on both sides", before, after)
	}
	if before, after := sampleValue(t, miss, "authtext_vocache_hits_total"), sampleValue(t, hit, "authtext_vocache_hits_total"); before != 0 || after != 1 {
		t.Errorf("cache hits went from %g to %g across the repeat, want 0 to 1", before, after)
	}
	if before, after := sampleValue(t, miss, "authtext_searches_total", obs.L("kind", "single")), sampleValue(t, hit, "authtext_searches_total", obs.L("kind", "single")); before != 1 || after != 2 {
		t.Errorf("searches went from %g to %g across the repeat, want 1 to 2 (a hit is still a search)", before, after)
	}
	mh.search(t, "inverted index digest")
	update, err := json.Marshal(&httpapi.UpdateRequest{
		Add: []httpapi.UpdateDocument{{Content: []byte("merkle chain proof server")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, httpapi.PathAdminUpdate, bytes.NewReader(update))
	w := httptest.NewRecorder()
	mh.h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("update: status %d: %s", w.Code, w.Body)
	}
	mh.search(t, liveQuery) // new generation: cache miss again

	samples := mh.scrape(t)

	// A histogram family counts as non-zero when its _count moved, so fold
	// component samples back to their family name.
	family := func(name string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suffix); ok {
				return f
			}
		}
		return name
	}
	nonZero := map[string]bool{}
	for _, s := range samples {
		if s.Value != 0 {
			nonZero[family(s.Name)] = true
		}
	}
	// The documented core catalog; every family must have moved.
	core := []string{
		"authtext_http_requests_total",
		"authtext_http_request_seconds",
		"authtext_http_response_bytes_total",
		"authtext_search_stage_seconds",
		"authtext_engine_phase_seconds",
		"authtext_searches_total",
		"authtext_vocache_hits_total",
		"authtext_vocache_misses_total",
		"authtext_vocache_entries",
		"authtext_vocache_bytes",
		"authtext_vocache_capacity_bytes",
		"authtext_live_generation",
		"authtext_live_swaps_total",
		"authtext_live_swap_seconds",
	}
	for _, name := range core {
		if !nonZero[name] {
			t.Errorf("core series %s did not move under traffic", name)
		}
	}
	if len(nonZero) < 12 {
		t.Fatalf("only %d distinct non-zero families after traffic, want >= 12: %v", len(nonZero), nonZero)
	}

	// Stage decomposition: engine, vo_encode, cache_lookup and wire_encode
	// all observed; cache_lookup counts every cacheable search.
	for _, stage := range []string{"engine", "vo_encode", "cache_lookup", "wire_encode"} {
		if v := sampleValue(t, samples, "authtext_search_stage_seconds_count", obs.L("stage", stage)); v == 0 {
			t.Errorf("stage %q never observed", stage)
		}
	}
	if hits := sampleValue(t, samples, "authtext_vocache_hits_total"); hits != 1 {
		t.Errorf("cache hits = %g, want exactly 1 (one repeated query before the update)", hits)
	}
	if v := sampleValue(t, samples, "authtext_live_swaps_total"); v != 1 {
		t.Errorf("live swaps = %g, want 1", v)
	}
	if v := sampleValue(t, samples, "authtext_live_generation"); v != float64(mh.owner.Generation()) {
		t.Errorf("generation gauge = %g, want %d", v, mh.owner.Generation())
	}
}

// TestMetricsHealthzCacheAgreement pins the drift fix: the cache counters
// in /v1/healthz and the authtext_vocache_* series come from the same
// atomics, so the two surfaces must report identical values when quiescent.
func TestMetricsHealthzCacheAgreement(t *testing.T) {
	mh := newMetricsHarness(t)
	mh.search(t, liveQuery)
	mh.search(t, liveQuery)
	mh.search(t, "threshold random access")

	req := httptest.NewRequest(http.MethodGet, httpapi.PathHealthz, nil)
	w := httptest.NewRecorder()
	mh.h.ServeHTTP(w, req)
	var h httpapi.Health
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Cache == nil {
		t.Fatal("healthz reports no cache")
	}

	samples := mh.scrape(t)
	agree := []struct {
		series string
		health int64
	}{
		{"authtext_vocache_hits_total", h.Cache.Hits},
		{"authtext_vocache_misses_total", h.Cache.Misses},
		{"authtext_vocache_evictions_total", h.Cache.Evictions},
		{"authtext_vocache_invalidations_total", h.Cache.Invalidations},
		{"authtext_vocache_entries", h.Cache.Entries},
		{"authtext_vocache_bytes", h.Cache.Bytes},
		{"authtext_vocache_capacity_bytes", h.Cache.CapacityBytes},
	}
	for _, a := range agree {
		if v := sampleValue(t, samples, a.series); v != float64(a.health) {
			t.Errorf("%s = %g but healthz reports %d", a.series, v, a.health)
		}
	}
	if h.Cache.Hits == 0 || h.Cache.Misses == 0 {
		t.Fatalf("traffic did not exercise the cache: %+v", h.Cache)
	}
}

// TestConcurrentMetricsScrapeDuringSwaps hammers /v1/metrics from eight
// goroutines while searches run and the owner publishes generations
// underneath. Every scrape must parse cleanly, and gauges derived from
// swap state (the generation) must never run backward within one scraper.
// The name matches the CI race-detector job's -run filter.
func TestConcurrentMetricsScrapeDuringSwaps(t *testing.T) {
	const (
		scrapers = 8
		updates  = 6
	)
	mh := newMetricsHarness(t)
	mh.search(t, liveQuery)

	var (
		wg   sync.WaitGroup
		done atomic.Bool
	)
	errc := make(chan error, scrapers+2)

	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lastGen := 0.0
			for i := 0; i < 25 || !done.Load(); i++ {
				req := httptest.NewRequest(http.MethodGet, httpapi.PathMetrics, nil)
				w := httptest.NewRecorder()
				mh.h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					errc <- fmt.Errorf("scraper %d: status %d", s, w.Code)
					return
				}
				samples, err := obs.Parse(bytes.NewReader(w.Body.Bytes()))
				if err != nil {
					errc <- fmt.Errorf("scraper %d: scrape did not parse mid-swap: %v", s, err)
					return
				}
				gen, ok := obs.FindSample(samples, "authtext_live_generation")
				if !ok {
					errc <- fmt.Errorf("scraper %d: generation gauge missing", s)
					return
				}
				if gen.Value < lastGen {
					errc <- fmt.Errorf("scraper %d: generation gauge ran backward %g -> %g", s, lastGen, gen.Value)
					return
				}
				lastGen = gen.Value
			}
		}(s)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40 || !done.Load(); i++ {
			req := httptest.NewRequest(http.MethodPost, httpapi.PathSearch,
				strings.NewReader(fmt.Sprintf(`{"query":%q,"r":3}`, liveQuery)))
			w := httptest.NewRecorder()
			mh.h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				errc <- fmt.Errorf("searcher: status %d: %s", w.Code, w.Body)
				return
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < updates; i++ {
			if _, _, err := mh.owner.Update(liveDocs(100+2*i, 2), nil); err != nil {
				errc <- fmt.Errorf("update %d: %v", i, err)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	samples := mh.scrape(t)
	if v := sampleValue(t, samples, "authtext_live_swaps_total"); v != updates {
		t.Errorf("swaps = %g, want %d", v, updates)
	}
	if v := sampleValue(t, samples, "authtext_live_generation"); v != float64(mh.owner.Generation()) {
		t.Errorf("final generation gauge = %g, want %d", v, mh.owner.Generation())
	}
}

// TestClientMetricsVerifyAndTamper checks the client-side satellite: a
// RemoteClient built with WithClientMetrics times every verification, and
// counts exactly the tampered rejections, and splits the owner signatures
// it accepted into those it verified and those its memo had already seen.
func TestClientMetricsVerifyAndTamper(t *testing.T) {
	owner, err := NewOwner(newsDocs())
	if err != nil {
		t.Fatal(err)
	}
	h, err := owner.HTTPHandler()
	if err != nil {
		t.Fatal(err)
	}
	// tamper flips one content byte of every search response when armed.
	var tamper atomic.Bool
	proxy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != httpapi.PathSearch || !tamper.Load() {
			h.ServeHTTP(w, r)
			return
		}
		// This adversary tampers at the JSON layer; force the honest
		// server off binary frames (the framed path has its own battery
		// in remote_wire_test.go).
		r.Header.Del("Accept")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var resp httpapi.SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Hits) == 0 {
			w.Write(rec.Body.Bytes())
			return
		}
		resp.Hits[0].Content = append([]byte("forged "), resp.Hits[0].Content...)
		json.NewEncoder(w).Encode(&resp)
	})
	ts := httptest.NewServer(proxy)
	defer ts.Close()

	m := NewMetrics()
	rc, err := NewRemoteClient(ts.URL, WithClientMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	sigChecks := func(outcome string) float64 {
		var buf bytes.Buffer
		if err := m.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := obs.Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return sampleValue(t, samples, "authtext_client_signature_checks_total", obs.L("outcome", outcome))
	}
	// The first sighting of each signature is verified; the same honest
	// answer again is all memo hits.
	if _, err := rc.Search(ctx, "patent examiner", 3, TRA, ChainMHT); err != nil {
		t.Fatalf("honest search: %v", err)
	}
	first := sigChecks("verified")
	if first == 0 || sigChecks("memo_hit") != 0 {
		t.Fatalf("first answer: %g verified, %g memo hits", first, sigChecks("memo_hit"))
	}
	if _, err := rc.Search(ctx, "patent examiner", 3, TRA, ChainMHT); err != nil {
		t.Fatalf("honest search: %v", err)
	}
	if v, h := sigChecks("verified"), sigChecks("memo_hit"); v != first || h != first {
		t.Fatalf("repeated answer: %g verified, %g memo hits, want %g and %g", v, h, first, first)
	}
	tamper.Store(true)
	if _, err := rc.Search(ctx, "patent examiner", 3, TNRA, ChainMHT); !IsTampered(err) {
		t.Fatalf("tampered search: err = %v, want tampered", err)
	}

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if v := sampleValue(t, samples, "authtext_client_verify_seconds_count"); v != 3 {
		t.Errorf("verify count = %g, want 3", v)
	}
	if v := sampleValue(t, samples, "authtext_client_tamper_rejections_total"); v != 1 {
		t.Errorf("tamper rejections = %g, want 1", v)
	}
}
