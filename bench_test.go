package authtext_test

// One benchmark per table and figure of the paper's evaluation (§4), plus
// ablations for the paper's design choices (chain-MHT vs plain MHT, buddy
// inclusion, dictionary-mode signature consolidation, block size) and
// per-variant micro-benchmarks. Benchmarks run on the `small` synthetic
// profile so `go test -bench=.` completes in minutes; full-scale figures
// come from `authbench -profile wsj`.

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"authtext"

	"authtext/internal/core"
	"authtext/internal/corpus"
	"authtext/internal/engine"
	"authtext/internal/experiments"
	"authtext/internal/index"
	"authtext/internal/linkgraph"
	"authtext/internal/live"
	"authtext/internal/okapi"
	"authtext/internal/shard"
	"authtext/internal/sig"
	"authtext/internal/snapshot"
	"authtext/internal/store"
	"authtext/internal/vo"
	"authtext/internal/workload"
)

var (
	benchOnce sync.Once
	benchFix  *experiments.Fixture
	benchErr  error
)

func benchFixture(b *testing.B) *experiments.Fixture {
	b.Helper()
	benchOnce.Do(func() {
		benchFix, benchErr = experiments.NewFixture(corpus.Small(), false)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchFix
}

func benchOptions() experiments.Options {
	return experiments.Options{
		Queries: 10,
		QSizes:  []int{2, 6, 10, 20},
		RValues: []int{10, 40, 80},
		Seed:    42,
	}
}

// BenchmarkFig04ListLengthDistribution regenerates Fig 4: index build plus
// the cumulative list-length distribution.
func BenchmarkFig04ListLengthDistribution(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx, err := experiments.BuildIndexOnly(corpus.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		d := corpus.Describe(idx.ListLengths(), idx.N)
		if d.MaxLen == 0 {
			b.Fatal("degenerate distribution")
		}
	}
}

// BenchmarkFig13SyntheticVaryingQuerySize regenerates Fig 13(a–e): the
// synthetic workload swept over query sizes at r = 10, across all four
// variants, with every answer verified.
func BenchmarkFig13SyntheticVaryingQuerySize(b *testing.B) {
	f := benchFixture(b)
	opts := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(f, opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable02VOBreakdown regenerates Table 2: the data/digest split of
// the TRA VOs under both schemes.
func BenchmarkTable02VOBreakdown(b *testing.B) {
	f := benchFixture(b)
	opts := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(f, opts, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		m := res.Points[0][experiments.Variant{Algo: core.AlgoTRA, Scheme: core.SchemeCMHT}]
		b.ReportMetric(m.VOData/(m.VOData+m.VODigest)*100, "data%")
	}
}

// BenchmarkFig14SyntheticVaryingResultSize regenerates Fig 14(a–e).
func BenchmarkFig14SyntheticVaryingResultSize(b *testing.B) {
	f := benchFixture(b)
	opts := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(f, opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15TRECVaryingResultSize regenerates Fig 15(a–e) with the
// TREC-like verbose workload.
func BenchmarkFig15TRECVaryingResultSize(b *testing.B) {
	f := benchFixture(b)
	opts := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15(f, opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpaceOverhead regenerates the §4.1 space claims: a full build of
// all four authentication structures over the tiny profile, reporting the
// TRA and TNRA overheads.
func BenchmarkSpaceOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fx, err := experiments.NewFixture(corpus.Tiny(), false)
		if err != nil {
			b.Fatal(err)
		}
		over := experiments.SpaceReport(fx, io.Discard)
		b.ReportMetric(over["TRA-MHT"], "tra-over-%")
		b.ReportMetric(over["TNRA-MHT"], "tnra-over-%")
	}
}

// ---------------------------------------------------------------------------
// Per-variant micro-benchmarks: one authenticated query (search + VO) and
// its verification, q = 3, r = 10 (the paper's defaults, Table 1).

func benchQueries(b *testing.B, f *experiments.Fixture) [][]string {
	b.Helper()
	return workload.Synthetic(f.Col.Index(), 64, 3, 7)
}

func benchSearchVariant(b *testing.B, algo core.Algo, scheme core.Scheme) {
	f := benchFixture(b)
	queries := benchQueries(b, f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		_, voBytes, st, err := f.Col.Search(q, 10, algo, scheme)
		if err != nil {
			b.Fatal(err)
		}
		if len(voBytes) == 0 || st.EntriesRead == 0 {
			b.Fatal("empty answer")
		}
	}
}

func BenchmarkSearchTRAMHT(b *testing.B)   { benchSearchVariant(b, core.AlgoTRA, core.SchemeMHT) }
func BenchmarkSearchTRACMHT(b *testing.B)  { benchSearchVariant(b, core.AlgoTRA, core.SchemeCMHT) }
func BenchmarkSearchTNRAMHT(b *testing.B)  { benchSearchVariant(b, core.AlgoTNRA, core.SchemeMHT) }
func BenchmarkSearchTNRACMHT(b *testing.B) { benchSearchVariant(b, core.AlgoTNRA, core.SchemeCMHT) }

// BenchmarkSearchTRAVerbose is the query shape the 3-term rows above cannot
// see: TREC-like 2–20-term TRA-CMHT searches, whose answers carry a document
// proof for each of some hundreds of encountered documents. cold, every
// search runs on a freshly restored collection and hashes each encountered
// term vector once; warm, the per-document trees are resident and proof
// assembly only copies digests.
func BenchmarkSearchTRAVerbose(b *testing.B) {
	f := benchFixture(b)
	queries := workload.TRECLike(f.Col.Index(), 64, 7)
	search := func(b *testing.B, col *engine.Collection, q []string) {
		_, voBytes, st, err := col.Search(q, 10, core.AlgoTRA, core.SchemeCMHT)
		if err != nil {
			b.Fatal(err)
		}
		if len(voBytes) == 0 || st.EntriesRead == 0 {
			b.Fatal("empty answer")
		}
	}
	b.Run("cold", func(b *testing.B) {
		state := f.Col.ExportState()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			col, err := engine.Restore(state)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			search(b, col, queries[i%len(queries)])
		}
	})
	b.Run("warm", func(b *testing.B) {
		for _, q := range queries {
			search(b, f.Col, q)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			search(b, f.Col, queries[i%len(queries)])
		}
	})
}

// BenchmarkCachedSearchHit is the repeat-query path through the facade
// with a warm VO cache: lookup + defensive copy, no engine work, no VO
// encode. Compare against BenchmarkFacadeSearchUncached (the same facade
// call without a cache) and the BenchmarkSearch* engine variants above.
func BenchmarkCachedSearchHit(b *testing.B) {
	f := benchFixture(b)
	queries := benchQueries(b, f)
	srv := authtext.ServerForTest(f.Col)
	srv.SetVOCache(authtext.NewVOCache(64 << 20))
	qs := make([]string, len(queries))
	for i, q := range queries {
		qs[i] = strings.Join(q, " ")
		// Warm the cache: every benchmark iteration below is a hit.
		if _, err := srv.Search(qs[i], 10, authtext.TNRA, authtext.ChainMHT); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := srv.Search(qs[i%len(qs)], 10, authtext.TNRA, authtext.ChainMHT)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.VO) == 0 {
			b.Fatal("empty answer")
		}
	}
}

// BenchmarkFacadeSearchUncached is the same facade call with no cache
// attached — what every one of those queries costs without the cache,
// the honest baseline for BenchmarkCachedSearchHit.
func BenchmarkFacadeSearchUncached(b *testing.B) {
	f := benchFixture(b)
	queries := benchQueries(b, f)
	srv := authtext.ServerForTest(f.Col)
	qs := make([]string, len(queries))
	for i, q := range queries {
		qs[i] = strings.Join(q, " ")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := srv.Search(qs[i%len(qs)], 10, authtext.TNRA, authtext.ChainMHT)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.VO) == 0 {
			b.Fatal("empty answer")
		}
	}
}

// BenchmarkFacadeSearchMetrics is BenchmarkFacadeSearchUncached with a
// full metric registry attached — the acceptance gate for observability
// overhead on the hot path. The delta against the uncached baseline is
// the cost of the per-search instrumentation (pre-bound atomic handles;
// the budget is < 5%).
func BenchmarkFacadeSearchMetrics(b *testing.B) {
	f := benchFixture(b)
	queries := benchQueries(b, f)
	srv := authtext.ServerForTest(f.Col)
	srv.SetMetrics(authtext.NewMetrics())
	qs := make([]string, len(queries))
	for i, q := range queries {
		qs[i] = strings.Join(q, " ")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := srv.Search(qs[i%len(qs)], 10, authtext.TNRA, authtext.ChainMHT)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.VO) == 0 {
			b.Fatal("empty answer")
		}
	}
}

func benchVerifyVariant(b *testing.B, algo core.Algo, scheme core.Scheme) {
	f := benchFixture(b)
	queries := benchQueries(b, f)
	type prepared struct {
		tokens []string
		res    *engine.Result
		vo     []byte
	}
	preps := make([]prepared, 0, len(queries))
	for _, q := range queries {
		res, voBytes, _, err := f.Col.Search(q, 10, algo, scheme)
		if err != nil {
			b.Fatal(err)
		}
		preps = append(preps, prepared{tokens: q, res: res, vo: voBytes})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := preps[i%len(preps)]
		if _, err := f.Col.VerifyResult(p.tokens, 10, p.res, p.vo); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyTRAMHT(b *testing.B)   { benchVerifyVariant(b, core.AlgoTRA, core.SchemeMHT) }
func BenchmarkVerifyTRACMHT(b *testing.B)  { benchVerifyVariant(b, core.AlgoTRA, core.SchemeCMHT) }
func BenchmarkVerifyTNRAMHT(b *testing.B)  { benchVerifyVariant(b, core.AlgoTNRA, core.SchemeMHT) }
func BenchmarkVerifyTNRACMHT(b *testing.B) { benchVerifyVariant(b, core.AlgoTNRA, core.SchemeCMHT) }

// BenchmarkClientVerifyTRA is what a facade Client pays to verify one
// 10-term TRA answer of an RSA-1024 collection: cold, every owner signature
// in the VO is RSA-verified (a fresh client per answer — its manifest check
// is one more signature among the ~100 the answer carries); warm, the
// client's verified-signature memo has seen them all and what remains is the
// Merkle hashing, which no repeat can skip.
func BenchmarkClientVerifyTRA(b *testing.B) {
	idocs := corpus.Generate(corpus.Tiny())
	docs := make([]authtext.Document, len(idocs))
	for i, d := range idocs {
		docs[i] = authtext.Document{Content: d.Content, Tokens: d.Tokens}
	}
	owner, err := authtext.NewOwner(docs)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := experiments.BuildIndexOnly(corpus.Tiny())
	if err != nil {
		b.Fatal(err)
	}
	type answer struct {
		query string
		res   *authtext.SearchResult
	}
	var answers []answer
	for _, q := range workload.Synthetic(idx, 16, 10, 7) {
		query := strings.Join(q, " ")
		res, err := owner.Server().Search(query, 10, authtext.TRA, authtext.ChainMHT)
		if err != nil {
			b.Fatal(err)
		}
		answers = append(answers, answer{query, res})
	}
	run := func(b *testing.B, client func() *authtext.Client) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := answers[i%len(answers)]
			if err := client().Verify(a.query, 10, a.res); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, owner.Client) })
	b.Run("warm", func(b *testing.B) {
		warm := owner.Client()
		for _, a := range answers {
			if err := warm.Verify(a.query, 10, a.res); err != nil {
				b.Fatal(err)
			}
		}
		run(b, func() *authtext.Client { return warm })
	})
}

// ---------------------------------------------------------------------------
// Ablations

// BenchmarkAblationChainVsMHT reports the VO size and simulated I/O of the
// two TNRA schemes side by side (the §3.3.2 motivation for chain-MHT).
func BenchmarkAblationChainVsMHT(b *testing.B) {
	f := benchFixture(b)
	queries := benchQueries(b, f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var mhtVO, cmhtVO, mhtIO, cmhtIO float64
		for _, q := range queries {
			_, voM, stM, err := f.Col.Search(q, 10, core.AlgoTNRA, core.SchemeMHT)
			if err != nil {
				b.Fatal(err)
			}
			_, voC, stC, err := f.Col.Search(q, 10, core.AlgoTNRA, core.SchemeCMHT)
			if err != nil {
				b.Fatal(err)
			}
			mhtVO += float64(len(voM))
			cmhtVO += float64(len(voC))
			mhtIO += float64(stM.IO.BlockReads)
			cmhtIO += float64(stC.IO.BlockReads)
		}
		n := float64(len(queries))
		b.ReportMetric(mhtVO/n, "mht-vo-B")
		b.ReportMetric(cmhtVO/n, "cmht-vo-B")
		b.ReportMetric(mhtIO/n, "mht-blocks")
		b.ReportMetric(cmhtIO/n, "cmht-blocks")
	}
}

// BenchmarkAblationDictionaryMode compares per-list signatures against the
// dictionary-MHT consolidation (§3.4): storage shrinks, VOs grow.
func BenchmarkAblationDictionaryMode(b *testing.B) {
	signer, err := sig.NewHMACSigner([]byte("ablation"), 128)
	if err != nil {
		b.Fatal(err)
	}
	docs := corpus.Generate(corpus.Tiny())
	for i := 0; i < b.N; i++ {
		for _, dict := range []bool{false, true} {
			cfg := engine.DefaultConfig(signer)
			cfg.DictMode = dict
			col, err := engine.BuildCollection(docs, cfg)
			if err != nil {
				b.Fatal(err)
			}
			queries := workload.Synthetic(col.Index(), 8, 3, 11)
			var voSum float64
			for _, q := range queries {
				_, voBytes, _, err := col.Search(q, 10, core.AlgoTNRA, core.SchemeCMHT)
				if err != nil {
					b.Fatal(err)
				}
				voSum += float64(len(voBytes))
			}
			label := "perlist"
			if dict {
				label = "dict"
			}
			b.ReportMetric(voSum/float64(len(queries)), label+"-vo-B")
			b.ReportMetric(float64(col.BuildStats().Signatures), label+"-sigs")
		}
	}
}

// BenchmarkAblationBlockSize sweeps the disk block size (the §4.1
// discussion of why 1 KB blocks fit the skewed list distribution).
func BenchmarkAblationBlockSize(b *testing.B) {
	signer, err := sig.NewHMACSigner([]byte("ablation"), 128)
	if err != nil {
		b.Fatal(err)
	}
	docs := corpus.Generate(corpus.Tiny())
	for i := 0; i < b.N; i++ {
		for _, bs := range []int{512, 1024, 4096} {
			cfg := engine.DefaultConfig(signer)
			cfg.Store = store.DefaultParams()
			cfg.Store.BlockSize = bs
			col, err := engine.BuildCollection(docs, cfg)
			if err != nil {
				b.Fatal(err)
			}
			queries := workload.Synthetic(col.Index(), 8, 3, 13)
			var ioMs float64
			for _, q := range queries {
				_, _, st, err := col.Search(q, 10, core.AlgoTNRA, core.SchemeCMHT)
				if err != nil {
					b.Fatal(err)
				}
				ioMs += st.IO.SimTime.Seconds() * 1000
			}
			b.ReportMetric(ioMs/float64(len(queries)), "io-ms/"+itoa(bs))
		}
	}
}

// BenchmarkAblationBuddyInclusion isolates the buddy-inclusion effect on
// TRA document proofs by comparing the data/digest split of TRA-MHT (no
// buddies) and TRA-CMHT (buddies) VOs, Table 2's mechanism.
func BenchmarkAblationBuddyInclusion(b *testing.B) {
	f := benchFixture(b)
	queries := benchQueries(b, f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var mhtData, mhtDigest, cmhtData, cmhtDigest float64
		for _, q := range queries {
			_, _, stM, err := f.Col.Search(q, 10, core.AlgoTRA, core.SchemeMHT)
			if err != nil {
				b.Fatal(err)
			}
			_, _, stC, err := f.Col.Search(q, 10, core.AlgoTRA, core.SchemeCMHT)
			if err != nil {
				b.Fatal(err)
			}
			mhtData += float64(stM.VO.Data)
			mhtDigest += float64(stM.VO.Digest)
			cmhtData += float64(stC.VO.Data)
			cmhtDigest += float64(stC.VO.Digest)
		}
		b.ReportMetric(100*mhtData/(mhtData+mhtDigest), "mht-data%")
		b.ReportMetric(100*cmhtData/(cmhtData+cmhtDigest), "cmht-data%")
	}
}

// BenchmarkBuildCollection is the owner's build under RSA-1024, where the
// signatures are nearly all of it, on one core and on every core the machine
// has: the build signs and hashes in parallel and lays out sequentially.
func BenchmarkBuildCollection(b *testing.B) {
	signer, err := sig.NewRSASigner(sig.DefaultRSABits)
	if err != nil {
		b.Fatal(err)
	}
	docs := corpus.Generate(corpus.Tiny())
	for _, procs := range []struct {
		name string
		n    int
	}{{"procs=1", 1}, {"procs=max", runtime.NumCPU()}} {
		b.Run(procs.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs.n))
			for i := 0; i < b.N; i++ {
				col, err := engine.BuildCollection(docs, engine.DefaultConfig(signer))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(col.BuildStats().Signatures), "signatures")
			}
		})
	}
}

// BenchmarkOwnerBuild is the full owner-side construction (index,
// structures, signatures) under RSA-1024 on the tiny profile, per variant
// set: all four structures (N + 4M + 1 signatures), TNRA-CMHT only (M + 1,
// what authserved builds by default), and TNRA-CMHT in dictionary mode (the
// manifest alone).
func BenchmarkOwnerBuild(b *testing.B) {
	signer, err := sig.NewRSASigner(sig.DefaultRSABits)
	if err != nil {
		b.Fatal(err)
	}
	docs := corpus.Generate(corpus.Tiny())
	tnra := core.VariantOf(core.KindTNRACMHT)
	for _, c := range []struct {
		name     string
		variants core.VariantSet
		dict     bool
	}{{"all", 0, false}, {"tnra-cmht", tnra, false}, {"tnra-cmht-dict", tnra, true}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := engine.DefaultConfig(signer)
			cfg.Variants, cfg.DictMode = c.variants, c.dict
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				col, err := engine.BuildCollection(docs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(col.BuildStats().Signatures), "signatures")
				b.ReportMetric(float64(col.BuildStats().BuildTime.Microseconds())/1e3, "build-ms")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Cold start: rebuilding from raw documents vs reopening a snapshot. The
// paper's model builds once (owner side) and serves many; these two
// benchmarks quantify what the snapshot subsystem buys every server start.

// BenchmarkColdStartRebuild is the status quo ante: every process start
// re-tokenises, re-indexes and re-signs the corpus.
func BenchmarkColdStartRebuild(b *testing.B) {
	signer, err := sig.NewHMACSigner([]byte("coldstart"), 128)
	if err != nil {
		b.Fatal(err)
	}
	docs := corpus.Generate(corpus.Tiny())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.BuildCollection(docs, engine.DefaultConfig(signer)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdStartSnapshot reopens the same collection from its snapshot
// bytes: no tokenising, no indexing, no signing.
func BenchmarkColdStartSnapshot(b *testing.B) {
	signer, err := sig.NewHMACSigner([]byte("coldstart"), 128)
	if err != nil {
		b.Fatal(err)
	}
	docs := corpus.Generate(corpus.Tiny())
	col, err := engine.BuildCollection(docs, engine.DefaultConfig(signer))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, col); err != nil {
		b.Fatal(err)
	}
	snap := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Open(bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPSCANBaseline measures the unauthenticated full-scan baseline
// (Fig 2), for comparison against the threshold algorithms.
func BenchmarkPSCANBaseline(b *testing.B) {
	f := benchFixture(b)
	idx := f.Col.Index()
	src := &core.MemSource{Idx: idx}
	queries := benchQueries(b, f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := core.BuildQuery(idx, queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.PSCAN(q, src); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Silence unused-import guards for build tags that strip benchmarks.
var (
	_ = index.DocID(0)
	_ = okapi.DefaultK1
)

// BenchmarkExtensionAuthorityBoost measures an authenticated boosted query
// (§5 extension): search + authority proof + verification.
func BenchmarkExtensionAuthorityBoost(b *testing.B) {
	signer, err := sig.NewHMACSigner([]byte("boost-bench"), 128)
	if err != nil {
		b.Fatal(err)
	}
	docs := corpus.Generate(corpus.Tiny())
	links := make([][]int, len(docs))
	for i := 1; i < len(docs); i++ {
		links[i] = []int{0, i / 2, i / 3}
	}
	g := linkgraph.NewGraph(len(docs))
	for src, outs := range links {
		for _, dst := range outs {
			if err := g.AddLink(src, dst); err != nil {
				b.Fatal(err)
			}
		}
	}
	authority, err := g.Normalized(0.85, 100, 1e-10)
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.DefaultConfig(signer)
	cfg.Authority = authority
	cfg.Beta = 2.0
	col, err := engine.BuildCollection(docs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.Synthetic(col.Index(), 32, 3, 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		res, voBytes, _, err := col.Search(q, 10, core.AlgoTNRA, core.SchemeCMHT)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := col.VerifyResult(q, 10, res, voBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Sharding: parallel multi-shard fan-out vs the single collection. The
// shard-ms metric is the per-query critical path (slowest shard's server
// wall) — the latency of a deployment with one core or host per shard; on
// a single-core runner the raw ns/op cannot drop below it.

var (
	shardBenchOnce sync.Once
	shardBenchSets map[int]*shard.Set
	shardBenchErr  error
)

func shardBenchSet(b *testing.B, k int) *shard.Set {
	b.Helper()
	shardBenchOnce.Do(func() {
		signer, err := sig.NewHMACSigner([]byte("shard-bench"), 128)
		if err != nil {
			shardBenchErr = err
			return
		}
		docs := corpus.Generate(corpus.Small())
		shardBenchSets = make(map[int]*shard.Set)
		for _, kk := range []int{1, 2, 4, 8} {
			set, err := shard.Build(docs, shard.Config{Engine: engine.DefaultConfig(signer), Shards: kk})
			if err != nil {
				shardBenchErr = err
				return
			}
			shardBenchSets[kk] = set
		}
	})
	if shardBenchErr != nil {
		b.Fatal(shardBenchErr)
	}
	return shardBenchSets[k]
}

// shardBenchQueries draws the sharding workload once, from the unsharded
// dictionary, so every shard count answers the same queries (a shard's own
// dictionary differs from shard to shard and from k to k).
func shardBenchQueries(b *testing.B) [][]string {
	return workload.Synthetic(shardBenchSet(b, 1).Col(0).Index(), 64, 3, 7)
}

func benchShardedSearch(b *testing.B, k int) {
	set := shardBenchSet(b, k)
	queries := shardBenchQueries(b)
	b.ReportAllocs()
	b.ResetTimer()
	var critPath, critEntries float64
	for i := 0; i < b.N; i++ {
		res, err := set.Search(queries[i%len(queries)], 10, core.AlgoTNRA, core.SchemeCMHT)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		var worstEntries int
		for _, sr := range res.PerShard {
			if s := sr.Stats.ServerWall.Seconds() * 1000; s > worst {
				worst = s
			}
			if sr.Stats.EntriesRead > worstEntries {
				worstEntries = sr.Stats.EntriesRead
			}
		}
		critPath += worst
		critEntries += float64(worstEntries)
	}
	b.ReportMetric(critPath/float64(b.N), "shard-ms")
	// The deterministic side of shard-ms: entries the busiest shard read.
	b.ReportMetric(critEntries/float64(b.N), "shard-entries")
}

func BenchmarkShardedSearch1(b *testing.B) { benchShardedSearch(b, 1) }
func BenchmarkShardedSearch2(b *testing.B) { benchShardedSearch(b, 2) }
func BenchmarkShardedSearch4(b *testing.B) { benchShardedSearch(b, 4) }
func BenchmarkShardedSearch8(b *testing.B) { benchShardedSearch(b, 8) }

// BenchmarkShardedSearchVerify measures the full round trip at 4 shards:
// fan-out search plus client-side verification of every shard VO and the
// merged ranking.
func BenchmarkShardedSearchVerify(b *testing.B) {
	set := shardBenchSet(b, 4)
	queries := shardBenchQueries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		res, err := set.Search(q, 10, core.AlgoTNRA, core.SchemeCMHT)
		if err != nil {
			b.Fatal(err)
		}
		if err := set.VerifyResult(q, 10, res); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Concurrent search on ONE collection: the read path is lock-free (each
// query runs on its own store session), so throughput scales with cores
// instead of serialising behind a collection-wide mutex. The Serialized
// variant re-imposes the pre-refactor global query lock for an
// apples-to-apples baseline on the same hardware: on an N-core runner the
// lock-free QPS at ≥N workers exceeds it by about N× (on a single-core
// runner the two converge — the paper-scale numbers live in
// docs/CONCURRENCY.md).

func benchConcurrentSearch(b *testing.B, workers int, serialize bool) {
	f := benchFixture(b)
	queries := benchQueries(b, f)
	var mu sync.Mutex
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				if serialize {
					mu.Lock()
				}
				_, _, _, err := f.Col.Search(queries[i%int64(len(queries))], 10, core.AlgoTNRA, core.SchemeCMHT)
				if serialize {
					mu.Unlock()
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkConcurrentSearch1(b *testing.B)  { benchConcurrentSearch(b, 1, false) }
func BenchmarkConcurrentSearch2(b *testing.B)  { benchConcurrentSearch(b, 2, false) }
func BenchmarkConcurrentSearch4(b *testing.B)  { benchConcurrentSearch(b, 4, false) }
func BenchmarkConcurrentSearch8(b *testing.B)  { benchConcurrentSearch(b, 8, false) }
func BenchmarkConcurrentSearch16(b *testing.B) { benchConcurrentSearch(b, 16, false) }

// BenchmarkSerializedSearch8 is the pre-refactor baseline: 8 workers
// queueing behind one collection-wide lock.
func BenchmarkSerializedSearch8(b *testing.B) { benchConcurrentSearch(b, 8, true) }

// BenchmarkSearchBatch8 measures the facade batch API end to end (64-query
// batches, 8 workers).
func BenchmarkSearchBatch8(b *testing.B) {
	f := benchFixture(b)
	queries := benchQueries(b, f)
	srv := authtext.ServerForTest(f.Col)
	batch := make([]authtext.BatchQuery, 64)
	for i := range batch {
		batch[i] = authtext.BatchQuery{Query: strings.Join(queries[i%len(queries)], " "), R: 10, Algorithm: authtext.TNRA, Scheme: authtext.ChainMHT}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, item := range srv.SearchBatch(batch, 8) {
			if item.Err != nil {
				b.Fatal(item.Err)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// VO codec allocation benchmarks: Encode pools its writer buffers and
// Decode backs digest lists with one flat allocation, so allocs/op stays
// small and flat as proofs grow.

func voCodecFixture(b *testing.B) ([]byte, *vo.VO) {
	b.Helper()
	f := benchFixture(b)
	queries := benchQueries(b, f)
	_, encoded, _, err := f.Col.Search(queries[0], 10, core.AlgoTRA, core.SchemeCMHT)
	if err != nil {
		b.Fatal(err)
	}
	decoded, err := vo.Decode(encoded)
	if err != nil {
		b.Fatal(err)
	}
	return encoded, decoded
}

func BenchmarkVOEncode(b *testing.B) {
	_, decoded := voCodecFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vo.Encode(decoded, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVODecode(b *testing.B) {
	encoded, _ := voCodecFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vo.Decode(encoded); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Parallel throughput: many client goroutines hammering one serving
// process. A single collection's read path is lock-free, and a sharded set
// adds per-query fan-out on top, so both scale with cores (visible on
// multi-core runners via -cpu).

func BenchmarkParallelThroughputSingle(b *testing.B) {
	f := benchFixture(b)
	queries := benchQueries(b, f)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, _, err := f.Col.Search(queries[i%len(queries)], 10, core.AlgoTNRA, core.SchemeCMHT); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

func benchParallelThroughputSharded(b *testing.B, k int) {
	set := shardBenchSet(b, k)
	queries := shardBenchQueries(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := set.Search(queries[i%len(queries)], 10, core.AlgoTNRA, core.SchemeCMHT); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

func BenchmarkParallelThroughputSharded4(b *testing.B) { benchParallelThroughputSharded(b, 4) }
func BenchmarkParallelThroughputSharded8(b *testing.B) { benchParallelThroughputSharded(b, 8) }

// BenchmarkShardedBuild measures owner-side build of the same corpus at 1
// and 4 shards (shard builds run concurrently; speedup tracks cores).
func BenchmarkShardedBuild(b *testing.B) {
	signer, err := sig.NewHMACSigner([]byte("shard-build"), 128)
	if err != nil {
		b.Fatal(err)
	}
	docs := corpus.Generate(corpus.Tiny())
	for _, k := range []int{1, 4} {
		b.Run(itoa(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shard.Build(docs, shard.Config{Engine: engine.DefaultConfig(signer), Shards: k}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Live-update benchmarks: the cost of publishing a generation (with
// signature reuse) and the read path's indifference to concurrent swaps.

// benchLiveCollection builds a live collection over the tiny profile plus
// a dictionary-stable document factory (no new terms, so appends reuse
// signatures; see docs/UPDATES.md).
func benchLiveCollection(b *testing.B) (*live.Collection, func() index.Document) {
	b.Helper()
	signer, err := sig.NewHMACSigner([]byte("live-bench"), 128)
	if err != nil {
		b.Fatal(err)
	}
	docs := corpus.Generate(corpus.Tiny())
	lc, _, err := live.New(docs, engine.DefaultConfig(signer))
	if err != nil {
		b.Fatal(err)
	}
	idx := lc.Current().Index()
	dict := make([]string, idx.M())
	for t := range dict {
		dict[t] = idx.Name(index.TermID(t))
	}
	seq := 0
	makeDoc := func() index.Document {
		toks := make([]string, 60)
		for i := range toks {
			toks[i] = dict[(seq*31+i*7)%len(dict)]
		}
		seq++
		return index.Document{Content: []byte(strings.Join(toks, " ")), Tokens: toks}
	}
	return lc, makeDoc
}

// BenchmarkLiveUpdateAppend measures one dictionary-stable single-document
// append published as a full generation (rebuild + atomic swap).
func BenchmarkLiveUpdateAppend(b *testing.B) {
	lc, makeDoc := benchLiveCollection(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st, err := lc.Update([]index.Document{makeDoc()}, nil); err != nil {
			b.Fatal(err)
		} else if i == b.N-1 {
			b.ReportMetric(float64(st.Reused)/float64(st.Signed+st.Reused)*100, "sig-reuse-%")
		}
	}
}

// BenchmarkLiveSwapUnderSearchLoad measures generation publication while
// 4 goroutines keep searching the collection — the acceptance shape of
// docs/UPDATES.md: updates must not stall the lock-free read path.
func BenchmarkLiveSwapUnderSearchLoad(b *testing.B) {
	lc, makeDoc := benchLiveCollection(b)
	queries := workload.Synthetic(lc.Current().Index(), 64, 3, 41)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if _, _, _, err := lc.Current().Search(queries[(c+i)%len(queries)], 10, core.AlgoTNRA, core.SchemeCMHT); err != nil {
					return
				}
			}
		}(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lc.Update([]index.Document{makeDoc()}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
}

// BenchmarkLiveSearchDuringUpdates is the inverse view: per-search cost
// while generations keep swapping underneath.
func BenchmarkLiveSearchDuringUpdates(b *testing.B) {
	lc, makeDoc := benchLiveCollection(b)
	queries := workload.Synthetic(lc.Current().Index(), 64, 3, 43)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, _, err := lc.Update([]index.Document{makeDoc()}, nil); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, _, err := lc.Current().Search(queries[i%len(queries)], 10, core.AlgoTNRA, core.SchemeCMHT); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
}
