package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"authtext"
	"authtext/internal/corpus"
	"authtext/internal/httpapi"
	"authtext/internal/index"
	"authtext/internal/obs"
	"authtext/internal/snapshot"
)

// traceMode selects which halves of a workload run happen.
type traceMode int

const (
	// traceOff runs the untraced phases only and reports the end-to-end
	// metrics (the driver's --trace 0).
	traceOff traceMode = iota
	// traceOn runs the open-loop phase for its scrape deltas, then the
	// traced pass and the replay, and reports the per-layer metrics
	// (--trace 1).
	traceOn
	// traceBoth is the default for a person at a terminal: everything.
	traceBoth
)

// env is what every workload of one invocation shares.
type env struct {
	seed    int64
	trace   traceMode
	profile corpus.Profile
	// open and closed are the phase lengths; warm the untimed closed-loop
	// warm-up before them.
	open, closed, warm time.Duration
	// setups is how many times a run sets up from scratch; setup_s is the
	// median.
	setups int
	// conns is the number of load-carrying connections (and workers).
	conns   int
	bin     string // the built authserved
	workDir string
	log     io.Writer
}

// session is one set-up system: a running daemon serving a freshly built
// collection, and a verifying client that has already seen one answer.
type session struct {
	d  *daemon
	rc *authtext.RemoteClient
	ct *countingTransport
	// snapshotPath holds the served collection: the artifact the static
	// daemon booted from, or generation 1 as the live daemon persisted it.
	snapshotPath string
	setupS       float64
	// Owner-side costs, known only when this process did the build
	// (static workloads).
	buildS, writeS float64
	signatures     int
}

// setUp builds the collection from nothing and brings a daemon up on it,
// the way a user would: corpus → owner build with the paper's RSA-1024
// signer → snapshot → authserved → first verified answer. The live daemon
// does the owner's work itself, so its set-up is corpus directory →
// authserved → first verified answer. dir receives the artifacts.
func setUp(ctx context.Context, e *env, w *workloadSpec, dir, firstQuery string) (*session, error) {
	s := &session{}
	var args []string
	start := time.Now()
	docs, _ := generateDocs(e.profile, !w.live)
	if w.live {
		corpusDir := filepath.Join(dir, "corpus")
		if err := os.Mkdir(corpusDir, 0o755); err != nil {
			return nil, err
		}
		for i, d := range docs {
			// Zero-padded names: the daemon indexes files in name order.
			if err := os.WriteFile(filepath.Join(corpusDir, fmt.Sprintf("%06d.txt", i)), d.Content, 0o644); err != nil {
				return nil, err
			}
		}
		gens := filepath.Join(dir, "generations")
		s.snapshotPath = filepath.Join(gens, fmt.Sprintf("gen-%012d.atsn", 1))
		args = []string{"-dir", corpusDir, "-live", "-live-snapshots", gens}
	} else {
		// The options `authsearch -build` uses. RemoteClient cannot bootstrap
		// from a keyed-hash (fast signer) collection at all.
		owner, err := authtext.NewOwner(docs, authtext.WithVocabularyProofs())
		if err != nil {
			return nil, err
		}
		buildMs, sigs, _ := owner.Stats()
		s.buildS, s.signatures = buildMs/1000, sigs
		s.snapshotPath = filepath.Join(dir, "collection.atsn")
		writeStart := time.Now()
		f, err := os.Create(s.snapshotPath)
		if err != nil {
			return nil, err
		}
		if err := owner.WriteSnapshot(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		s.writeS = time.Since(writeStart).Seconds()
		args = []string{"-snapshot", s.snapshotPath}
	}
	args = append(args, "-quiet")
	if w.cacheMB > 0 {
		args = append(args, "-cache-mb", fmt.Sprint(w.cacheMB))
	}
	d, err := startDaemon(ctx, e.bin, dir, args)
	if err != nil {
		return nil, err
	}
	s.d = d
	if s.rc, s.ct, err = newVerifyingClient(d.base, e.conns); err != nil {
		d.stop()
		return nil, err
	}
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	if _, err := s.rc.Search(rctx, firstQuery, resultSize, w.algo, w.scheme); err != nil {
		d.stop()
		return nil, fmt.Errorf("first answer after set-up: %w\n--- daemon stderr ---\n%s", err, d.stderrText())
	}
	s.setupS = time.Since(start).Seconds()
	return s, nil
}

// adminClient carries the benchmark's own control traffic — metric
// scrapes and update batches — on connections apart from the load's. The
// timeout leaves room for a vocabulary-growing rebuild.
var adminClient = &http.Client{Timeout: time.Minute}

// marks is a reading of every cumulative counter the phases are measured
// against.
type marks struct {
	daemon               scrape
	clientCPU, serverCPU float64
	bytes, responses     int64
}

func (s *session) mark(ctx context.Context) (*marks, error) {
	m := &marks{bytes: s.ct.bytes.Load(), responses: s.ct.responses.Load()}
	var err error
	if m.daemon, err = fetchScrape(ctx, adminClient, s.d.base+httpapi.PathMetrics); err != nil {
		return nil, err
	}
	if m.clientCPU, err = selfCPUSeconds(); err != nil {
		return nil, err
	}
	if m.serverCPU, err = procCPUSeconds(s.d.cmd.Process.Pid); err != nil {
		return nil, err
	}
	return m, nil
}

// genTracker remembers when the load first saw a verified answer from
// each generation: update visibility is read off the normal traffic, no
// probe requests are added.
type genTracker struct {
	max   atomic.Uint64
	mu    sync.Mutex
	first map[uint64]time.Time
}

func (g *genTracker) saw(gen uint64) {
	if gen <= g.max.Load() {
		return
	}
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.first[gen]; !ok {
		g.first[gen] = now
	}
	if gen > g.max.Load() {
		g.max.Store(gen)
	}
}

// visibleAt is when an answer from generation gen or later was first
// verified.
func (g *genTracker) visibleAt(gen uint64) (time.Time, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var at time.Time
	for seen, t := range g.first {
		if seen >= gen && (at.IsZero() || t.Before(at)) {
			at = t
		}
	}
	return at, !at.IsZero()
}

// update is one accepted /v1/admin/update batch.
type update struct {
	sent, answered time.Time
	resp           httpapi.UpdateResponse
}

// updater posts update batches to a live daemon over its own connection.
type updater struct {
	base string
	idx  *index.Index
	rng  *rand.Rand
	// prev holds the handles of the documents the previous batch added;
	// the next batch removes them, so the collection's size is steady.
	prev []uint64
	// done and failed count the batches of the timed phases.
	done   []update
	failed int
}

func (u *updater) post(ctx context.Context, add [][]byte) (*update, error) {
	req := httpapi.UpdateRequest{Remove: u.prev}
	for _, content := range add {
		req.Add = append(req.Add, httpapi.UpdateDocument{Content: content})
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u.base+httpapi.PathAdminUpdate, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	up := &update{sent: time.Now()}
	resp, err := adminClient.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return nil, fmt.Errorf("update: status %d: %s", resp.StatusCode, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(&up.resp); err != nil {
		return nil, err
	}
	up.answered = time.Now()
	u.prev = up.resp.Added
	return up, nil
}

// steady posts one stable-vocabulary batch: two new documents in, the
// previous two out.
func (u *updater) steady(ctx context.Context) (*update, error) {
	return u.post(ctx, [][]byte{updateDoc(u.idx, u.rng, 80), updateDoc(u.idx, u.rng, 80)})
}

// run posts a steady batch every interval until stop closes, recording
// the accepted ones.
func (u *updater) run(ctx context.Context, every time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
			if up, err := u.steady(ctx); err != nil {
				u.failed++
			} else {
				u.done = append(u.done, *up)
			}
		}
	}
}

// runWorkload measures one workload end to end: set-up, correctness
// gate, warm-up, open-loop phase, closed-loop phase, traced pass and
// replay, daemon stopped. It returns the metrics and the recorded spans.
func runWorkload(ctx context.Context, e *env, w *workloadSpec) (*result, *tracer, error) {
	res := &result{Metrics: map[string]measured{}}
	dir, err := os.MkdirTemp(e.workDir, w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	// The dictionary the daemon will serve, to draw the query stream from.
	// The first half of the stream feeds the timed phases, the second half
	// the warm-up.
	_, idocs := generateDocs(e.profile, !w.live)
	idx, err := index.Build(idocs, index.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	half := int(w.rate*(e.open+e.closed).Seconds()*2) + 1000
	queries := queryStrings(w.stream(idx, 2*half, e.seed))

	var sess *session
	var setupS []float64
	for k := 0; k < e.setups; k++ {
		sub, err := os.MkdirTemp(dir, "setup-")
		if err != nil {
			return nil, nil, err
		}
		s, err := setUp(ctx, e, w, sub, queries[0])
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, s.setupS)
		if k < e.setups-1 {
			s.d.stop()
			if err := os.RemoveAll(sub); err != nil {
				return nil, nil, err
			}
			continue
		}
		sess = s
	}
	defer sess.d.stop()
	fail := func(err error) (*result, *tracer, error) {
		return nil, nil, fmt.Errorf("%w\n--- daemon stderr ---\n%s", err, sess.d.stderrText())
	}

	// Correctness gate, before any update moves the live collection away
	// from the snapshot the oracle reads.
	snap, err := os.Open(sess.snapshotPath)
	if err != nil {
		return fail(err)
	}
	col, err := snapshot.Open(snap)
	snap.Close()
	if err != nil {
		return fail(err)
	}
	if err := checkOracle(ctx, sess.rc, col.Index(), w, queries); err != nil {
		return fail(err)
	}
	rejections, err := checkTamperCanary(ctx, sess.d.base, w, queries[0])
	if err != nil {
		return fail(err)
	}

	var (
		gens     = genTracker{first: map[uint64]time.Time{}}
		firstErr error
		errOnce  sync.Once
		// misjudged is set when an answer of the honest daemon was
		// classified as tampering: the run then describes a broken system.
		misjudged atomic.Bool
	)
	search := func(ctx context.Context, i int) error {
		sr, err := sess.rc.Search(ctx, queries[i%len(queries)], resultSize, w.algo, w.scheme)
		if err != nil {
			errOnce.Do(func() { firstErr = err })
			if authtext.IsTampered(err) {
				misjudged.Store(true)
			}
			return err
		}
		gens.saw(sr.Generation)
		return nil
	}

	var up *updater
	if w.live {
		up = &updater{base: sess.d.base, idx: idx, rng: rand.New(rand.NewSource(e.seed))}
		// Priming batch, untimed: the first update of a live owner also
		// fills its signature cache.
		if _, err := up.steady(ctx); err != nil {
			return fail(fmt.Errorf("priming update: %w", err))
		}
	}
	// Each phase reads its own stretch of the stream, so what the open loop
	// sends does not depend on how far the closed loop got.
	var openNext, closedNext, warmNext atomic.Int64
	closedNext.Store(int64(w.rate * e.open.Seconds()))
	warmNext.Store(int64(half))
	closedLoop(ctx, search, &warmNext, e.warm, e.conns)
	if firstErr != nil {
		return fail(fmt.Errorf("warm-up: %w", firstErr))
	}

	stopUpdates := make(chan struct{})
	var updates sync.WaitGroup
	if w.live {
		updates.Add(1)
		go func() {
			defer updates.Done()
			// Six batches over the timed phases.
			up.run(ctx, (e.open+e.closed)/6, stopUpdates)
		}()
	}

	// Capacity first, straight after the warm-up, while both processes are
	// still sized for full load: after ten seconds at a third of capacity
	// the first three seconds of a closed loop run ≈ 20 % slow on the
	// big-answer workload, which would put a step in the middle of a
	// five-second phase.
	if e.trace != traceOn {
		closed := closedLoop(ctx, search, &closedNext, e.closed, e.conns)
		res.Attempted += len(closed.samples)
		res.Failed += closed.failed()
		res.set("capacity_qps", median(closed.throughputByWindow()))
	}
	before, err := sess.mark(ctx)
	if err != nil {
		return fail(err)
	}
	open := openLoop(ctx, search, &openNext, w.rate, e.open, e.conns)
	after, err := sess.mark(ctx)
	if err != nil {
		return fail(err)
	}
	res.Attempted += len(open.samples)
	res.Failed += open.failed()
	close(stopUpdates)
	updates.Wait()
	if ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}
	if up != nil {
		res.Attempted += len(up.done) + up.failed
		res.Failed += up.failed
	}
	if firstErr != nil {
		fmt.Fprintf(e.log, "%s: first failed request: %v\n", w.name, firstErr)
	}
	// The oracle and the canary passed (or the run ended above).
	res.Correct = !misjudged.Load()

	if e.trace != traceOn {
		byWindow, _ := open.latenciesByWindow()
		sent := float64(len(open.samples))
		res.set("setup_s", median(setupS))
		res.set("verified_p50_ms", windowedMedian(byWindow))
		res.set("client_cpu_ms_per_query", 1e3*ratio(after.clientCPU-before.clientCPU, sent))
		res.set("server_cpu_ms_per_query", 1e3*ratio(after.serverCPU-before.serverCPU, sent))
		res.set("response_bytes_per_query", ratio(float64(after.bytes-before.bytes), float64(after.responses-before.responses)))
	}

	var tr *tracer
	if e.trace != traceOff {
		tr = newTracer()
		setLoadgen(res, open, w)
		setScraped(res, after.daemon, after.daemon.delta(before.daemon))
		res.set("remote.tamper_rejections", float64(rejections))
		res.set("snapshot.boot_ms", sess.d.bootMs)
		if st, err := os.Stat(sess.snapshotPath); err == nil {
			res.set("snapshot.bytes", float64(st.Size()))
		}
		if !w.live {
			res.set("engine.build_s", sess.buildS)
			res.set("engine.signatures", float64(sess.signatures))
			res.set("snapshot.write_s", sess.writeS)
		}
		setLive(res, up, &gens)

		// The traced pass is bracketed by its own scrapes, so that the
		// daemon's share of each traced request is known for the same
		// requests the client-side parts are measured on.
		pre, err := sess.mark(ctx)
		if err != nil {
			return fail(err)
		}
		if err := tracedPass(ctx, tr, sess.d.base, w, queries, w.traced, res); err != nil {
			return fail(err)
		}
		post, err := sess.mark(ctx)
		if err != nil {
			return fail(err)
		}
		server := post.daemon.delta(pre.daemon).histMeanUs("authtext_http_request_seconds", obs.L("endpoint", "search"))
		res.set("remote.unaccounted_us", res.Metrics["remote.search_mean_us"].Value-server-
			res.Metrics["remote.wire_decode_us"].Value-res.Metrics["remote.verify_us"].Value)

		facade, _, err := authtext.OpenSnapshotFile(sess.snapshotPath)
		if err != nil {
			return fail(err)
		}
		facade.SetVOCache(authtext.NewVOCache(64 << 20))
		if err := replay(tr, col, facade, w, queries, w.traced, res); err != nil {
			return fail(err)
		}
		res.set("trace.spans", float64(len(tr.spans)))

		if w.live {
			// The cliff, once: a batch that grows the vocabulary shifts
			// term IDs and re-signs every list.
			res.Attempted++
			grown, err := up.post(ctx, vocabGrowthDocs(e.seed))
			if err != nil {
				return fail(fmt.Errorf("vocabulary-growing update: %w", err))
			}
			res.set("live.vocab_growth_rebuild_s", grown.resp.RebuildMillis/1e3)
		}
	}

	if e.trace != traceOn {
		rss, err := procPeakRSSMiB(sess.d.cmd.Process.Pid)
		if err != nil {
			return fail(err)
		}
		res.set("server_rss_mb", rss)
	}
	select {
	case <-sess.d.exited:
		return fail(errors.New("the daemon exited during the run"))
	default:
	}
	return res, tr, nil
}

func obsStage(name string) obs.Label { return obs.L("stage", name) }

// setLoadgen reports how the open-loop phase itself went.
func setLoadgen(res *result, open *phaseResult, w *workloadSpec) {
	_, all := open.latenciesByWindow()
	res.set("loadgen.sent", float64(len(open.samples)))
	res.set("loadgen.achieved_qps", ratio(float64(len(all)), open.elapsed.Seconds()))
	res.set("loadgen.late_p99_ms", percentile(open.lateMs, 0.99))
	res.set("loadgen.max_backlog", float64(open.maxBacklog))
	res.set("loadgen.verified_p95_ms", percentile(all, 0.95))
	res.set("loadgen.verified_p99_ms", percentile(all, 0.99))
	res.set("loadgen.slo_miss_share", open.sloMissShare(w.sloMs))
}

// setScraped reports the daemon's own account of the open-loop phase:
// delta is the difference of two /v1/metrics scrapes around it, now the
// later scrape (for gauges).
func setScraped(res *result, now, delta scrape) {
	const (
		stageFamily   = "authtext_search_stage_seconds"
		requestFamily = "authtext_http_request_seconds"
	)
	search := obs.L("endpoint", "search")
	requests := delta.histCount(requestFamily, search)
	res.set("httpapi.request_us", delta.histMeanUs(requestFamily, search))
	// Stage time per REQUEST: on a cached daemon the engine stages run only
	// on misses, so stage means cannot simply be added up.
	var stageSeconds float64
	for _, st := range []string{"engine", "vo_encode", "cache_lookup", "merge", "wire_encode"} {
		stageSeconds += delta.value(stageFamily+"_sum", obsStage(st))
	}
	res.set("httpapi.overhead_us", 1e6*ratio(delta.value(requestFamily+"_sum", search)-stageSeconds, requests))
	framed := delta.value("authtext_wire_frames_total", obs.L("content_type", "binary"))
	plain := delta.value("authtext_wire_frames_total", obs.L("content_type", "json"))
	res.set("httpapi.binary_frame_share", ratio(framed, framed+plain))

	hits, misses := delta.value("authtext_vocache_hits_total"), delta.value("authtext_vocache_misses_total")
	res.set("vocache.hit_ratio", ratio(hits, hits+misses))
	if hits+misses > 0 {
		res.set("vocache.lookup_us", delta.histMeanUs(stageFamily, obsStage("cache_lookup")))
	}
	res.set("vocache.evictions", delta.value("authtext_vocache_evictions_total"))
	res.set("vocache.invalidations", delta.value("authtext_vocache_invalidations_total"))
	res.set("vocache.resident_mb", now.value("authtext_vocache_bytes")/(1<<20))
	res.set("engine.stage_us", delta.histMeanUs(stageFamily, obsStage("engine")))
}

// setLive reports the update path from the accepted batches of the timed
// phases; on a static workload the counts are 0 and the timings absent.
func setLive(res *result, up *updater, gens *genTracker) {
	var visible, httpMs, lag, rebuild, signed, reused []float64
	if up != nil {
		for _, u := range up.done {
			h := float64(u.answered.Sub(u.sent)) / float64(time.Millisecond)
			httpMs = append(httpMs, h)
			rebuild = append(rebuild, u.resp.RebuildMillis)
			signed = append(signed, float64(u.resp.SignaturesSigned))
			reused = append(reused, float64(u.resp.SignaturesReused))
			// A batch published after the last request of the run was never
			// seen by the load and has no visibility sample.
			if at, ok := gens.visibleAt(u.resp.Generation); ok {
				v := float64(at.Sub(u.sent)) / float64(time.Millisecond)
				visible = append(visible, v)
				lag = append(lag, v-h)
			}
		}
	}
	res.set("live.generations", float64(len(httpMs)))
	res.set("live.signatures_signed_per_update", mean(signed))
	res.set("live.signature_reuse_ratio", ratio(mean(reused), mean(reused)+mean(signed)))
	if len(visible) > 0 {
		res.set("live.update_visible_p50_ms", median(visible))
		res.set("live.update_http_ms", median(httpMs))
		res.set("live.swap_lag_ms", median(lag))
		res.set("live.rebuild_ms", median(rebuild))
	}
}
