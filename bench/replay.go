package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"authtext"
	"authtext/internal/core"
	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/textproc"
	"authtext/internal/vo"
	"authtext/internal/wire"
)

// tracedPass sends the first n queries one at a time through two clients
// of the same daemon — a plain one, and one with a client metric registry
// attached and a span around each Search — and sets the remote.* and
// trace.* metrics. The two alternate who goes first on each query, so
// neither systematically finds the daemon's caches warmer.
func tracedPass(ctx context.Context, tr *tracer, base string, w *workloadSpec, queries []string, n int, res *result) (err error) {
	plain, _, err := newVerifyingClient(base, 1)
	if err != nil {
		return err
	}
	m := authtext.NewMetrics()
	traced, _, err := newVerifyingClient(base, 1, authtext.WithClientMetrics(m))
	if err != nil {
		return err
	}
	search := func(rc *authtext.RemoteClient, q string) error {
		rctx, cancel := context.WithTimeout(ctx, requestTimeout)
		defer cancel()
		_, err := rc.Search(rctx, q, resultSize, w.algo, w.scheme)
		return err
	}
	// Bootstrap both (manifest fetch) outside the timed queries.
	for _, rc := range []*authtext.RemoteClient{plain, traced} {
		if err := rc.Bootstrap(ctx); err != nil {
			return err
		}
	}
	var plainUs, tracedUs []float64
	for i := 0; i < n && i < len(queries); i++ {
		runPlain := func() error {
			start := time.Now()
			err := search(plain, queries[i])
			plainUs = append(plainUs, float64(time.Since(start))/1e3)
			return err
		}
		runTraced := func() error {
			id := tr.start("remote.search", 0, i)
			err := search(traced, queries[i])
			tracedUs = append(tracedUs, float64(tr.end(id))/1e3)
			return err
		}
		order := []func() error{runPlain, runTraced}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, run := range order {
			res.Attempted++
			if err := run(); err != nil {
				res.Failed++
				return fmt.Errorf("traced pass, query %d %q: %w", i, queries[i], err)
			}
		}
	}

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		return err
	}
	client, err := parseScrape(&buf)
	if err != nil {
		return err
	}
	res.set("remote.search_p50_us", median(tracedUs))
	res.set("remote.search_mean_us", mean(tracedUs))
	res.set("remote.wire_decode_us", client.histMeanUs("authtext_search_stage_seconds", obsStage("wire_decode")))
	res.set("remote.verify_us", client.histMeanUs("authtext_client_verify_seconds"))
	ratios := make([]float64, len(tracedUs))
	for i := range ratios {
		ratios[i] = ratio(tracedUs[i], plainUs[i])
	}
	res.set("trace.overhead_pct", 100*(median(ratios)-1))
	return nil
}

// replayStats accumulates what the in-process replay measured, one entry
// per query.
type replayStats struct {
	us                                      map[string][]float64
	engineAllocs, engineAllocKB             []float64
	voDecodeAllocs                          []float64
	verifyAllocs, verifyAllocKB             []float64
	entriesRead, pctListRead                []float64
	blockReads, randomReads                 []float64
	voBytes, voDigestBytes, signaturesPerVO []float64
	frameBytes, rawBytes                    []float64
}

// end closes span id and files its duration under the span's name.
func (st *replayStats) end(tr *tracer, id int) {
	name := tr.spans[id-1].Name
	st.us[name] = append(st.us[name], float64(tr.end(id))/1e3)
}

// allocsBetween returns how many heap objects and KiB were allocated
// between two runtime.ReadMemStats snapshots. The replay is
// single-goroutine and appends only into preallocated slices, so the
// process-wide counters are the measured call's own (background runtime
// work adds a negligible few).
func allocsBetween(before, after *runtime.MemStats) (objects, kib float64) {
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc-before.TotalAlloc) / 1024
}

// replay runs the first n queries through each layer's public functions,
// in the order a request crosses them, on the collection reopened from its
// snapshot: one goroutine, no sockets, a span around every call. It is
// the unloaded cost of each layer on exactly the queries the daemon
// served; the loaded numbers come from the daemon's own /v1/metrics.
// facade is the same snapshot behind a VO cache, for the hit path.
func replay(tr *tracer, col *engine.Collection, facade *authtext.Server, w *workloadSpec, queries []string, n int, res *result) error {
	st := &replayStats{us: map[string][]float64{}}
	manifest, _ := col.Manifest()
	verifier := col.Verifier()
	algo, scheme := core.AlgoTNRA, core.SchemeCMHT
	if w.algo == authtext.TRA {
		algo = core.AlgoTRA
	}
	if w.scheme == authtext.MHT {
		scheme = core.SchemeMHT
	}
	// Spans and samples go into preallocated slices so that recording them
	// allocates nothing inside an allocation-counted call.
	tr.grow(9 * n)
	for _, name := range []string{"textproc.terms", "engine.search", "vo.encode", "wire.encode", "wire.decode",
		"vo.decode", "core.verify", "vocache.hit_path", "replay.request"} {
		st.us[name] = make([]float64, 0, n)
	}
	var before, after runtime.MemStats
	for i := 0; i < n && i < len(queries); i++ {
		root := tr.start("replay.request", 0, i)

		id := tr.start("textproc.terms", root, i)
		tokens := textproc.Terms(queries[i])
		st.end(tr, id)

		runtime.ReadMemStats(&before)
		id = tr.start("engine.search", root, i)
		sres, voBytes, qs, err := col.Search(tokens, resultSize, algo, scheme)
		st.end(tr, id)
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("replay query %d: engine: %w", i, err)
		}
		tr.child("vo.encode", id, qs.EncodeWall)
		objs, kib := allocsBetween(&before, &after)
		st.engineAllocs = append(st.engineAllocs, objs)
		st.engineAllocKB = append(st.engineAllocKB, kib)
		st.us["vo.encode"] = append(st.us["vo.encode"], float64(qs.EncodeWall)/1e3)
		st.entriesRead = append(st.entriesRead, float64(qs.EntriesRead))
		st.pctListRead = append(st.pctListRead, qs.PctListRead)
		st.blockReads = append(st.blockReads, float64(qs.IO.BlockReads))
		st.randomReads = append(st.randomReads, float64(qs.IO.RandomReads))
		st.voBytes = append(st.voBytes, float64(len(voBytes)))
		st.voDigestBytes = append(st.voDigestBytes, float64(qs.VO.Digest))

		// The response the HTTP layer would frame for this answer.
		resp := &wire.SearchResponse{
			Query: queries[i], R: resultSize, Generation: manifest.Generation, VO: voBytes,
			Hits: make([]wire.Hit, len(sres.Entries)),
			Stats: wire.SearchStats{QueryTerms: qs.QueryTerms, EntriesRead: qs.EntriesRead,
				EntriesPerTerm: qs.EntriesPerTerm, PctListRead: qs.PctListRead,
				BlockReads: qs.IO.BlockReads, RandomReads: qs.IO.RandomReads, VOBytes: len(voBytes)},
		}
		for k, e := range sres.Entries {
			resp.Hits[k] = wire.Hit{DocID: int(e.Doc), Score: e.Score, Content: sres.Contents[e.Doc]}
		}
		id = tr.start("wire.encode", root, i)
		frame := wire.EncodeSearchResponse(resp)
		st.end(tr, id)
		id = tr.start("wire.decode", root, i)
		decoded, err := wire.DecodeSearchResponse(frame)
		st.end(tr, id)
		if err != nil {
			return fmt.Errorf("replay query %d: wire decode: %w", i, err)
		}
		st.frameBytes = append(st.frameBytes, float64(len(frame)))
		if _, raw, err := wire.DecodeFrame(frame); err == nil {
			st.rawBytes = append(st.rawBytes, float64(len(raw)))
		}

		runtime.ReadMemStats(&before)
		id = tr.start("vo.decode", root, i)
		v, err := vo.Decode(decoded.VO)
		st.end(tr, id)
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("replay query %d: vo decode: %w", i, err)
		}
		objs, _ = allocsBetween(&before, &after)
		st.voDecodeAllocs = append(st.voDecodeAllocs, objs)
		sigs := 0
		for _, tp := range v.Terms {
			if tp.Sig != nil {
				sigs++
			}
		}
		for _, dp := range v.Docs {
			if dp.Sig != nil {
				sigs++
			}
		}
		st.signaturesPerVO = append(st.signaturesPerVO, float64(sigs))

		entries := make([]core.ResultEntry, len(decoded.Hits))
		contents := make(map[index.DocID][]byte, len(decoded.Hits))
		for k, h := range decoded.Hits {
			entries[k] = core.ResultEntry{Doc: index.DocID(h.DocID), Score: h.Score}
			contents[index.DocID(h.DocID)] = h.Content
		}
		in := &core.VerifyInput{Manifest: manifest, Verifier: verifier, Tokens: tokens,
			R: resultSize, Result: entries, Contents: contents, VO: v}
		runtime.ReadMemStats(&before)
		id = tr.start("core.verify", root, i)
		err = core.Verify(in)
		st.end(tr, id)
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("replay query %d: the replayed answer fails verification: %w", i, err)
		}
		objs, kib = allocsBetween(&before, &after)
		st.verifyAllocs = append(st.verifyAllocs, objs)
		st.verifyAllocKB = append(st.verifyAllocKB, kib)

		// Hit path: the first call fills the cache, the timed one is served
		// from it.
		if _, err := facade.Search(queries[i], resultSize, w.algo, w.scheme); err != nil {
			return fmt.Errorf("replay query %d: facade: %w", i, err)
		}
		id = tr.start("vocache.hit_path", root, i)
		_, err = facade.Search(queries[i], resultSize, w.algo, w.scheme)
		st.end(tr, id)
		if err != nil {
			return fmt.Errorf("replay query %d: facade: %w", i, err)
		}
		st.end(tr, root)
	}

	// One RSA-1024 verification: the floor under core.verify_us.
	msg, msig := manifest.Encode(), func() []byte { _, s := col.Manifest(); return s }()
	for i := 0; i < 50; i++ {
		start := time.Now()
		if err := verifier.Verify(msg, msig); err != nil {
			return fmt.Errorf("manifest signature: %w", err)
		}
		st.us["sig.verify"] = append(st.us["sig.verify"], float64(time.Since(start))/1e3)
	}

	res.set("textproc.terms_us", median(st.us["textproc.terms"]))
	// Self time: the engine.search span minus its vo.encode child, so that
	// the two rows add up instead of overlapping.
	res.set("engine.search_us", median(tr.selfMicros()["engine.search"]))
	res.set("engine.allocs_per_query", mean(st.engineAllocs))
	res.set("engine.alloc_kb_per_query", mean(st.engineAllocKB))
	res.set("engine.entries_read_per_query", mean(st.entriesRead))
	res.set("engine.pct_list_read", mean(st.pctListRead))
	res.set("store.block_reads_per_query", mean(st.blockReads))
	res.set("store.random_reads_per_query", mean(st.randomReads))
	res.set("vo.encode_us", median(st.us["vo.encode"]))
	res.set("vo.decode_us", median(st.us["vo.decode"]))
	res.set("vo.decode_allocs_per_query", mean(st.voDecodeAllocs))
	res.set("vo.bytes_per_query", mean(st.voBytes))
	res.set("vo.digest_share", ratio(mean(st.voDigestBytes), mean(st.voBytes)))
	res.set("wire.encode_us", median(st.us["wire.encode"]))
	res.set("wire.decode_us", median(st.us["wire.decode"]))
	res.set("wire.frame_bytes_per_query", mean(st.frameBytes))
	res.set("wire.compress_ratio", ratio(mean(st.rawBytes), mean(st.frameBytes)))
	res.set("core.verify_us", median(st.us["core.verify"]))
	res.set("core.verify_allocs_per_query", mean(st.verifyAllocs))
	res.set("core.verify_alloc_kb_per_query", mean(st.verifyAllocKB))
	res.set("sig.verify_us", median(st.us["sig.verify"]))
	res.set("sig.signatures_per_vo", mean(st.signaturesPerVO))
	res.set("vocache.hit_path_us", median(st.us["vocache.hit_path"]))
	return nil
}
