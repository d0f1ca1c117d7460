package live

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"authtext/internal/core"
	synth "authtext/internal/corpus"
	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/shard"
	"authtext/internal/sig"
)

func testConfig(t *testing.T) engine.Config {
	t.Helper()
	signer, err := sig.NewHMACSigner([]byte("live-test-key"), 128)
	if err != nil {
		t.Fatal(err)
	}
	return engine.DefaultConfig(signer)
}

// vocab is a closed word pool: signature reuse across generations depends
// on dictionary stability (term IDs are baked into the signed messages),
// so the tests write documents whose vocabulary never grows.
var vocab = []string{
	"merkle", "tree", "signature", "verification", "inverted", "index",
	"threshold", "algorithm", "random", "access", "digest", "root",
	"chain", "block", "proof", "query", "result", "server", "client", "owner",
}

// corpusAt builds n documents whose word choice depends on the document's
// absolute position start+i, drawing only from vocab. Consecutive
// positions overlap heavily (no singleton terms in corpora of ≥ 9 docs)
// and every position yields distinct content (per-position repetition),
// so hash partitioning spreads documents usefully.
func corpusAt(start, n int) []index.Document {
	docs := make([]index.Document, n)
	for i := range docs {
		pos := start + i
		words := make([]byte, 0, 128)
		for j := 0; j < 8; j++ {
			words = append(words, vocab[(pos+j)%len(vocab)]...)
			words = append(words, ' ')
		}
		for j := 0; j <= pos%5; j++ {
			words = append(words, vocab[(pos*7)%len(vocab)]...)
			words = append(words, ' ')
		}
		docs[i] = index.Document{Content: words}
	}
	return docs
}

func corpus(n int) []index.Document { return corpusAt(0, n) }

func searchVerify(t *testing.T, col *engine.Collection, tokens []string) *engine.Result {
	t.Helper()
	res, vo, _, err := col.Search(tokens, 5, core.AlgoTNRA, core.SchemeCMHT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.VerifyResult(tokens, 5, res, vo); err != nil {
		t.Fatalf("self-verification failed: %v", err)
	}
	return res
}

func TestUpdateAdvancesGenerationAndReusesSignatures(t *testing.T) {
	c, handles, err := New(corpus(20), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Generation(); got != 1 {
		t.Fatalf("initial generation = %d, want 1", got)
	}
	m, _ := c.Current().Manifest()
	if m.Generation != 1 {
		t.Fatalf("manifest generation = %d, want 1", m.Generation)
	}
	first := c.LastStats()
	if first.Reused != 0 || first.Signed == 0 {
		t.Fatalf("first build stats = %+v, want all signed", first)
	}
	searchVerify(t, c.Current(), []string{"merkle", "digest"})

	// Appending one document leaves most term lists and every existing
	// document record untouched: the rebuild must reuse far more
	// signatures than it creates.
	added, st, err := c.Update(corpus(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != 2 || c.Generation() != 2 {
		t.Fatalf("generation after add = %d (stats %d), want 2", c.Generation(), st.Generation)
	}
	if len(added) != 1 {
		t.Fatalf("added handles = %v", added)
	}
	if st.Reused == 0 || st.Reused < st.Signed {
		t.Fatalf("append reused %d / signed %d signatures, expected mostly reuse", st.Reused, st.Signed)
	}
	m2, _ := c.Current().Manifest()
	if m2.Generation != 2 || m2.N != 21 {
		t.Fatalf("manifest after add: gen %d n %d", m2.Generation, m2.N)
	}
	searchVerify(t, c.Current(), []string{"merkle", "digest"})

	// Removal: the document becomes a tombstoned slot — every per-structure
	// signature is untouched, so the rebuild re-signs only the manifest.
	_, st3, err := c.Update(nil, []uint64{handles[0]})
	if err != nil {
		t.Fatal(err)
	}
	if c.Generation() != 3 {
		t.Fatalf("generation after remove = %d, want 3", c.Generation())
	}
	m3, _ := c.Current().Manifest()
	if m3.N != 21 {
		t.Fatalf("slot count after remove = %d, want 21 (tombstoned, not deleted)", m3.N)
	}
	if got := m3.LiveDocs(); got != 20 {
		t.Fatalf("live docs after remove = %d, want 20", got)
	}
	if !m3.IsTombstoned(0) || m3.IsTombstoned(1) {
		t.Fatalf("tombstone bitmap wrong: slot0=%v slot1=%v", m3.IsTombstoned(0), m3.IsTombstoned(1))
	}
	if st3.Signed != 1 {
		t.Fatalf("removal-only batch signed %d structures, want 1 (the manifest)", st3.Signed)
	}
	if st3.Documents != 20 || st3.TombstonedSlots != 1 {
		t.Fatalf("removal stats = %+v, want 20 live / 1 tombstoned", st3)
	}
	if got := len(c.Handles()); got != 20 {
		t.Fatalf("Handles() after remove = %d, want 20", got)
	}
	// The removed slot must never surface in (verified) results.
	res := searchVerify(t, c.Current(), []string{"merkle", "digest"})
	for _, e := range res.Entries {
		if e.Doc == 0 {
			t.Fatalf("tombstoned doc 0 returned in results: %+v", res.Entries)
		}
	}
}

// shapes is the table every update-contract test runs over: the same
// Collection as a bare collection and as a 2-shard set.
var shapes = []struct {
	name   string
	shards int
}{{"bare", 0}, {"k=2", 2}}

// failingSigner signs with the embedded signer until fail is set.
type failingSigner struct {
	sig.Signer
	fail bool
}

func (s *failingSigner) Sign(msg []byte) ([]byte, error) {
	if s.fail {
		return nil, errors.New("signing key unavailable")
	}
	return s.Signer.Sign(msg)
}

func newShape(t *testing.T, shards int, docs []index.Document) (*Collection, []uint64, *failingSigner) {
	t.Helper()
	cfg := testConfig(t)
	signer := &failingSigner{Signer: cfg.Signer}
	cfg.Signer = signer
	var (
		c       *Collection
		handles []uint64
		err     error
	)
	if shards == 0 {
		c, handles, err = New(docs, cfg)
	} else {
		c, handles, err = NewSharded(docs, cfg, shards, shard.HashContent)
	}
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", c.Shards(), shards)
	}
	if (c.Current() != nil) == (c.CurrentSet() != nil) {
		t.Fatal("exactly one of Current and CurrentSet must be published")
	}
	return c, handles, signer
}

// selfVerify searches the published generation and verifies the answer
// against the generation's own manifests, whatever the shape.
func selfVerify(t *testing.T, c *Collection) {
	t.Helper()
	tokens := []string{"merkle", "digest"}
	if set := c.CurrentSet(); set != nil {
		res, err := set.Search(tokens, 5, core.AlgoTNRA, core.SchemeCMHT)
		if err != nil {
			t.Fatal(err)
		}
		if err := set.VerifyResult(tokens, 5, res); err != nil {
			t.Fatalf("sharded self-verification failed: %v", err)
		}
		return
	}
	searchVerify(t, c.Current(), tokens)
}

// TestUpdateContractEveryShape: removal errors, failed-update rollback,
// compaction and the W_A re-pin behave alike on a bare collection and on a
// shard set.
func TestUpdateContractEveryShape(t *testing.T) {
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			c, handles, signer := newShape(t, shape.shards, corpus(20))
			if got := c.Handles(); !reflect.DeepEqual(sorted(got), handles) {
				t.Fatalf("Handles() = %v, want the initial handles %v", got, handles)
			}

			// Rejected batches leave corpus, generation and token sum untouched.
			if _, _, err := c.Update(nil, handles[:1]); err != nil {
				t.Fatal(err)
			}
			before := corpusState(c)
			for name, batch := range map[string]struct {
				add    []index.Document
				remove []uint64
			}{
				"empty":           {},
				"unknown handle":  {remove: []uint64{999}},
				"duplicate":       {remove: []uint64{handles[1], handles[1]}},
				"already removed": {remove: handles[:1]},
				"emptying":        {remove: handles[1:]},
				"failed build":    {add: corpusAt(20, 2), remove: handles[1:3]},
			} {
				signer.fail = name == "failed build"
				if _, _, err := c.Update(batch.add, batch.remove); err == nil {
					t.Fatalf("%s batch accepted", name)
				}
				signer.fail = false
				if after := corpusState(c); !reflect.DeepEqual(after, before) {
					t.Fatalf("%s batch left its mark on the collection:\n%+v\nwas\n%+v", name, after, before)
				}
			}
			selfVerify(t, c)

			// Compaction: once a list's dead slots outnumber its live documents
			// the rebuild drops them; the survivors keep their handles and order.
			var st *UpdateStats
			for i := 1; i < 16 && (st == nil || !st.Compacted); i++ {
				var err error
				if _, st, err = c.Update(nil, handles[i:i+1]); err != nil {
					t.Fatal(err)
				}
			}
			if !st.Compacted {
				t.Fatalf("16 of 20 documents removed and nothing compacted: %+v", st)
			}
			slots := 0
			for s := range c.slots {
				slots += len(c.slots[s])
			}
			if slots != st.Documents+st.TombstonedSlots || len(c.Handles()) != st.Documents {
				t.Fatalf("after compaction %d slots for %d live + %d tombstoned; %d handles",
					slots, st.Documents, st.TombstonedSlots, len(c.Handles()))
			}
			selfVerify(t, c)

			// Re-pin: a batch that crosses maxAvgLenDrift re-signs everything
			// and carries no shard over.
			_, st, err := c.Update(longCorpusAt(100, 40), nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.Reused > st.Signed || st.ShardsReused != 0 {
				t.Fatalf("re-pin reused %d / signed %d signatures and carried %d shards over", st.Reused, st.Signed, st.ShardsReused)
			}
			if want := float64(c.tokens) / float64(st.Documents+st.TombstonedSlots); c.pinnedAvgLen != want {
				t.Fatalf("re-pinned W_A %v, the corpus mean is %v", c.pinnedAvgLen, want)
			}
			selfVerify(t, c)
		})
	}
}

// corpusState is a deep copy of everything a failed update must restore.
func corpusState(c *Collection) any {
	type state struct {
		gen, nextHandle uint64
		tokens          int64
		dead            []int
		slots           [][]entry
	}
	st := state{gen: c.Generation(), nextHandle: c.nextHandle, tokens: c.tokens, dead: append([]int(nil), c.dead...)}
	for _, slots := range c.slots {
		st.slots = append(st.slots, append([]entry(nil), slots...))
	}
	return st
}

func sorted(hs []uint64) []uint64 {
	out := append([]uint64(nil), hs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestVOCarriesGeneration(t *testing.T) {
	c, _, err := New(corpus(8), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Update(corpus(2), nil); err != nil {
		t.Fatal(err)
	}
	col := c.Current()
	tokens := []string{"merkle", "digest"}
	res, voBytes, _, err := col.Search(tokens, 3, core.AlgoTRA, core.SchemeCMHT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.VerifyResult(tokens, 3, res, voBytes); err != nil {
		t.Fatal(err)
	}
	// A stale VO (generation 1) must be rejected against the generation-2
	// manifest with the dedicated code.
	c2, _, err := New(corpus(10), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	oldCol := c2.Current() // generation 1 over the same 10 documents
	res1, vo1, _, err := oldCol.Search(tokens, 3, core.AlgoTRA, core.SchemeCMHT)
	if err != nil {
		t.Fatal(err)
	}
	_, err = col.VerifyResult(tokens, 3, res1, vo1)
	if core.CodeOf(err) != core.CodeStaleGeneration {
		t.Fatalf("stale VO classified as %v (err %v), want stale-generation", core.CodeOf(err), err)
	}
}

func TestShardedUpdateReusesUntouchedShards(t *testing.T) {
	// HashContent placement is stable, so adding documents leaves most
	// shards' membership unchanged and they are carried over wholesale.
	c, _, err := NewSharded(corpus(40), testConfig(t), 4, shard.HashContent)
	if err != nil {
		t.Fatal(err)
	}
	if c.Generation() != 1 {
		t.Fatalf("initial generation = %d", c.Generation())
	}
	set := c.CurrentSet()
	sm, _ := set.Manifest()
	if sm.Generation != 1 {
		t.Fatalf("set manifest generation = %d", sm.Generation)
	}

	extra := []index.Document{{Content: []byte("a single brand new document about verification")}}
	_, st, err := c.Update(extra, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != 2 {
		t.Fatalf("generation after add = %d", st.Generation)
	}
	if st.ShardsReused == 0 {
		t.Fatalf("no shards reused on a 1-document add with hash partitioning (stats %+v)", st)
	}
	newSet := c.CurrentSet()
	sm2, _ := newSet.Manifest()
	if sm2.Generation != 2 || int(sm2.GlobalN) != 41 {
		t.Fatalf("set manifest after add: gen %d globalN %d", sm2.Generation, sm2.GlobalN)
	}
	// The whole set must verify end to end at the new generation.
	tokens := []string{"verification", "merkle"}
	res, err := newSet.Search(tokens, 5, core.AlgoTNRA, core.SchemeCMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := newSet.VerifyResult(tokens, 5, res); err != nil {
		t.Fatalf("sharded self-verification failed after update: %v", err)
	}
}

func TestCachingSignerEpochPruning(t *testing.T) {
	signer, err := sig.NewHMACSigner([]byte("prune-key"), 128)
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCachingSigner(signer)
	if _, err := cs.Sign([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Sign([]byte("b")); err != nil {
		t.Fatal(err)
	}
	cs.Begin()
	if _, err := cs.Sign([]byte("a")); err != nil {
		t.Fatal(err)
	}
	signed, reused := cs.End()
	if signed != 0 || reused != 1 {
		t.Fatalf("epoch counts signed=%d reused=%d, want 0/1", signed, reused)
	}
	// "b" was pruned; signing it again is a miss.
	cs.Begin()
	if _, err := cs.Sign([]byte("b")); err != nil {
		t.Fatal(err)
	}
	signed, reused = cs.End()
	if signed != 1 || reused != 0 {
		t.Fatalf("post-prune counts signed=%d reused=%d, want 1/0", signed, reused)
	}

	// EndKeep does NOT prune: an epoch that touched only "a" must leave
	// "b" cached (the reused-shard case).
	if _, err := cs.Sign([]byte("a")); err != nil { // cache = {a, b}
		t.Fatal(err)
	}
	cs.Begin()
	if _, err := cs.Sign([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if signed, reused = cs.EndKeep(); signed != 0 || reused != 1 {
		t.Fatalf("EndKeep counts signed=%d reused=%d, want 0/1", signed, reused)
	}
	cs.Begin()
	if _, err := cs.Sign([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if signed, reused = cs.End(); signed != 0 || reused != 1 {
		t.Fatalf("\"b\" was evicted by EndKeep: signed=%d reused=%d", signed, reused)
	}

	// Abort discards the epoch without pruning.
	cs.Begin()
	if _, err := cs.Sign([]byte("a")); err != nil {
		t.Fatal(err)
	}
	cs.Abort()
	cs.Begin()
	if _, err := cs.Sign([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if signed, reused = cs.End(); signed != 0 || reused != 1 {
		t.Fatalf("\"a\" lost across Abort: signed=%d reused=%d", signed, reused)
	}
}

// TestRebuildSignatureCountsIndependentOfGOMAXPROCS: the engine signs from
// every core, but which signatures a rebuild makes and which it reuses is a
// property of the update, not of the parallelism — and together they still
// account for every signature of the generation.
func TestRebuildSignatureCountsIndependentOfGOMAXPROCS(t *testing.T) {
	type counts struct{ signed, reused int }
	run := func(procs int) []counts {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		c, handles, err := New(corpus(40), testConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		out := []counts{{c.LastStats().Signed, c.LastStats().Reused}}
		for _, step := range []func() (*UpdateStats, error){
			func() (*UpdateStats, error) { _, st, err := c.Update(corpusAt(40, 3), nil); return st, err },
			func() (*UpdateStats, error) { _, st, err := c.Update(nil, handles[:2]); return st, err },
			func() (*UpdateStats, error) { _, st, err := c.Update(corpusAt(43, 1), handles[5:6]); return st, err },
		} {
			st, err := step()
			if err != nil {
				t.Fatal(err)
			}
			if total := c.Current().BuildStats().Signatures; st.Signed+st.Reused != total {
				t.Fatalf("GOMAXPROCS %d: signed %d + reused %d, the generation carries %d signatures",
					procs, st.Signed, st.Reused, total)
			}
			out = append(out, counts{st.Signed, st.Reused})
		}
		return out
	}
	one, four := run(1), run(4)
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("step %d: %+v on one core, %+v on four", i, one[i], four[i])
		}
	}
}

// longCorpusAt is corpusAt with every document four times as long: adding
// twice as many of these as the collection holds moves the mean document
// length far past maxAvgLenDrift.
func longCorpusAt(start, n int) []index.Document {
	docs := corpusAt(start, n)
	for i := range docs {
		docs[i].Content = bytes.Repeat(docs[i].Content, 4)
	}
	return docs
}

// assertOneBuild fails unless col is exactly what a single engine build of
// the given slots at avgLen produces (0: the true mean), the wall-clock
// build time aside.
func assertOneBuild(t *testing.T, col *engine.Collection, slots []entry, cfg engine.Config, avgLen float64) {
	t.Helper()
	m, _ := col.Manifest()
	cfg.Generation, cfg.FixedAvgLen = m.Generation, avgLen
	docs := make([]index.Document, len(slots))
	for i, e := range slots {
		docs[i] = e.doc
		if e.dead {
			if cfg.Tombstones == nil {
				cfg.Tombstones = make([]bool, len(slots))
			}
			cfg.Tombstones[i] = true
		}
	}
	direct, err := engine.BuildCollection(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, want := *col.ExportState(), *direct.ExportState()
	got.BuildTime, want.BuildTime = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("generation %d differs from one direct build at W_A %v", m.Generation, avgLen)
	}
}

// TestRepinBuildsOnceAndAccountsEverySignature drives a single collection
// through a no-drift history and then across maxAvgLenDrift. Every
// generation must be what one engine build of its slots produces at the
// W_A the collection chose — the pinned one until the drift, the true mean
// at the re-pin — with each structure accounted exactly once in the report
// and the signature cache holding the live signatures and nothing else.
func TestRepinBuildsOnceAndAccountsEverySignature(t *testing.T) {
	cfg := testConfig(t)
	c, handles, err := New(corpus(20), cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name   string
		add    []index.Document
		remove []uint64
		repin  bool // the batch crosses maxAvgLenDrift
		// signed and reused are what this history cost before a bare collection
		// and a shard set shared one rebuild (recorded at 51048d1).
		signed, reused int
	}{
		{"append", corpusAt(20, 3), nil, false, 48, 56},
		{"remove", nil, handles[:2], false, 1, 103},
		{"drift", longCorpusAt(23, 40), nil, true, 144, 0},
		{"append after re-pin", longCorpusAt(63, 1), nil, false, 38, 107},
	}
	if st := c.LastStats(); st.Signed != 101 || st.Reused != 0 {
		t.Fatalf("generation 1 signed %d / reused %d signatures, want 101 / 0", st.Signed, st.Reused)
	}
	for _, step := range steps {
		pinned := c.Current().Index().AvgLen
		_, st, err := c.Update(step.add, step.remove)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if st.Signed != step.signed || st.Reused != step.reused {
			t.Fatalf("%s: signed %d / reused %d signatures, want %d / %d", step.name, st.Signed, st.Reused, step.signed, step.reused)
		}
		col := c.Current()
		if step.repin {
			assertOneBuild(t, col, c.slots[0], cfg, 0)
			if now := col.Index().AvgLen; (now-pinned)/pinned <= maxAvgLenDrift {
				t.Fatalf("%s: W_A moved from %v to %v; the batch was meant to cross the %v drift bound",
					step.name, pinned, now, maxAvgLenDrift)
			}
		} else {
			assertOneBuild(t, col, c.slots[0], cfg, pinned)
			if st.Reused < st.Signed {
				t.Fatalf("%s: reused %d / signed %d signatures at an unchanged W_A", step.name, st.Reused, st.Signed)
			}
		}
		total := col.BuildStats().Signatures
		if st.Signed+st.Reused != total {
			t.Fatalf("%s: signed %d + reused %d, the generation carries %d signatures", step.name, st.Signed, st.Reused, total)
		}
		if got := len(c.signer.cache); got != total {
			t.Fatalf("%s: %d signatures cached for %d live", step.name, got, total)
		}
		searchVerify(t, col, []string{"merkle", "digest"})
	}
}

// TestShardedRepin is the sharded counterpart: crossing maxAvgLenDrift
// rebuilds every shard (none carried over) once at the shared true mean,
// and the set keeps verifying and carrying shards over afterwards.
func TestShardedRepin(t *testing.T) {
	cfg := testConfig(t)
	c, _, err := NewSharded(corpus(40), cfg, 4, shard.HashContent)
	if err != nil {
		t.Fatal(err)
	}
	check := func(st *UpdateStats, avgLen float64, shardsReused int) {
		t.Helper()
		if st.ShardsReused != shardsReused {
			t.Fatalf("generation %d carried %d shards over, want %d", st.Generation, st.ShardsReused, shardsReused)
		}
		set := c.CurrentSet()
		rebuilt := 0
		for s := 0; s < set.K(); s++ {
			if m, _ := set.Col(s).Manifest(); m.Generation == st.Generation {
				assertOneBuild(t, set.Col(s), c.slots[s], cfg, avgLen)
				rebuilt += set.Col(s).BuildStats().Signatures
			}
		}
		if st.Signed+st.Reused != rebuilt {
			t.Fatalf("generation %d: signed %d + reused %d, its rebuilt shards carry %d signatures",
				st.Generation, st.Signed, st.Reused, rebuilt)
		}
		tokens := []string{"verification", "merkle"}
		res, err := set.Search(tokens, 5, core.AlgoTNRA, core.SchemeCMHT)
		if err != nil {
			t.Fatal(err)
		}
		if err := set.VerifyResult(tokens, 5, res); err != nil {
			t.Fatalf("generation %d: sharded self-verification failed: %v", st.Generation, err)
		}
	}
	pinned := c.CurrentSet().Col(0).Index().AvgLen
	if want := float64(c.tokens) / 40; pinned != want {
		t.Fatalf("generation 1 pinned W_A %v, the corpus mean is %v", pinned, want)
	}

	_, st, err := c.Update(longCorpusAt(40, 80), nil)
	if err != nil {
		t.Fatal(err)
	}
	repinned := float64(c.tokens) / 120
	if (repinned-pinned)/pinned <= maxAvgLenDrift {
		t.Fatalf("W_A would move from %v to %v; the batch was meant to cross the drift bound", pinned, repinned)
	}
	check(st, repinned, 0)
	// Fully rebuilt, so the old W_A's signatures are pruned: the shards'
	// (identical structures in two shards share an entry) plus the set
	// manifest's remain.
	if got, live := len(c.signer.cache), st.Signed+st.Reused+1; got > live {
		t.Fatalf("re-pin: %d signatures cached for %d live", got, live)
	}

	_, st, err = c.Update(longCorpusAt(120, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	check(st, repinned, 3)
}

// TestReuseEconomicsOnZipfianCorpus is the removal-reuse regression gate on
// a realistic vocabulary: corpus.Tiny() grown by dictionary-stable batches
// (documents sampled from the corpus's own token bag — the steady state of
// a collection whose vocabulary has saturated, so no term enters or leaves
// the dictionary). Removing the oldest 10% must cost one signature (the
// manifest), and replacing the oldest 10% must reuse at least 60% — the
// regime that collapsed to 0% when removals renumbered the survivors.
func TestReuseEconomicsOnZipfianCorpus(t *testing.T) {
	p := synth.Tiny()
	pool := synth.Generate(p)
	c, handles, err := New(pool, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	idx := c.Current().Index()
	var bag []string
	for _, d := range pool {
		for _, tok := range d.Tokens {
			if _, ok := idx.Lookup(tok); ok {
				bag = append(bag, tok)
			}
		}
	}
	rng := rand.New(rand.NewSource(p.Seed + 99))
	batch := func(k int) []index.Document {
		docs := make([]index.Document, k)
		for i := range docs {
			toks := make([]string, int(p.AvgLen))
			for j := range toks {
				toks[j] = bag[rng.Intn(len(bag))]
			}
			docs[i] = index.Document{Content: []byte(strings.Join(toks, " ")), Tokens: toks}
		}
		return docs
	}
	for _, pct := range []int{1, 5, 10, 25, 50} {
		added, _, err := c.Update(batch(p.Docs*pct/100), nil)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, added...)
	}

	k := p.Docs / 10
	_, st, err := c.Update(nil, handles[:k])
	if err != nil {
		t.Fatal(err)
	}
	if st.Signed != 1 {
		t.Fatalf("remove oldest 10%%: signed %d structures, want 1 (the manifest)", st.Signed)
	}
	_, st, err = c.Update(batch(k), handles[k:2*k])
	if err != nil {
		t.Fatal(err)
	}
	if pct := 100 * float64(st.Reused) / float64(st.Signed+st.Reused); pct < 60 {
		t.Fatalf("replace oldest 10%%: reused %.1f%% of signatures (signed %d, reused %d), floor is 60%%",
			pct, st.Signed, st.Reused)
	}
}
