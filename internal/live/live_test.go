package live

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"testing"

	"authtext/internal/core"
	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/sig"
)

func testConfig(t *testing.T) engine.Config {
	t.Helper()
	signer, err := sig.NewHMACSigner([]byte("live-test-key"), 128)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig(signer)
	// What every facade owner deploys.
	cfg.DictMode, cfg.VocabProofs = true, true
	return cfg
}

// vocab is a closed word pool: the tests write documents whose vocabulary
// never grows, so no update shifts a term ID.
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

func TestUpdateAdvancesGeneration(t *testing.T) {
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
	if first := c.LastStats(); first.Signed != 1 {
		t.Fatalf("first build signed %d messages, want 1 (the manifest)", first.Signed)
	}
	searchVerify(t, c.Current(), []string{"merkle", "digest"})

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
	if st.Signed != 1 {
		t.Fatalf("append signed %d messages, want 1 (the manifest)", st.Signed)
	}
	m2, _ := c.Current().Manifest()
	if m2.Generation != 2 || m2.N != 21 {
		t.Fatalf("manifest after add: gen %d n %d", m2.Generation, m2.N)
	}
	searchVerify(t, c.Current(), []string{"merkle", "digest"})

	// Removal: the document becomes a tombstoned slot that the manifest's
	// removal bitmap marks.
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
		t.Fatalf("removal-only batch signed %d messages, want 1 (the manifest)", st3.Signed)
	}
	if st3.Documents != 20 || st3.TombstonedSlots != 1 || st3.Removed != 1 || st3.Added != 0 {
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
		c, handles, err = NewSharded(docs, cfg, shards)
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

			// Re-pin: a batch that crosses maxAvgLenDrift rebuilds every
			// shard and carries none over.
			_, st, err := c.Update(longCorpusAt(100, 40), nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.ShardsReused != 0 {
				t.Fatalf("re-pin carried %d shards over", st.ShardsReused)
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
	c, _, err := NewSharded(corpus(40), testConfig(t), 4)
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
	// One shard rebuilt: its manifest and the set manifest are signed.
	if st.ShardsReused != 3 || st.Signed != 2 {
		t.Fatalf("1-document add carried %d of 4 shards over and signed %d messages, want 3 and 2 (stats %+v)",
			st.ShardsReused, st.Signed, st)
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
// at the re-pin — and report exactly the signatures that build made.
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
	}{
		{"append", corpusAt(20, 3), nil, false},
		{"remove", nil, handles[:2], false},
		{"drift", longCorpusAt(23, 40), nil, true},
		{"append after re-pin", longCorpusAt(63, 1), nil, false},
	}
	for _, step := range steps {
		pinned := c.Current().Index().AvgLen
		_, st, err := c.Update(step.add, step.remove)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
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
		}
		if total := col.BuildStats().Signatures; st.Signed != total {
			t.Fatalf("%s: signed %d, the generation carries %d signatures", step.name, st.Signed, total)
		}
		searchVerify(t, col, []string{"merkle", "digest"})
	}
}

// TestShardedRepin is the sharded counterpart: crossing maxAvgLenDrift
// rebuilds every shard (none carried over) once at the shared true mean,
// and the set keeps verifying and carrying shards over afterwards.
func TestShardedRepin(t *testing.T) {
	cfg := testConfig(t)
	c, _, err := NewSharded(corpus(40), cfg, 4)
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
		if st.Signed != rebuilt+1 {
			t.Fatalf("generation %d: signed %d, its rebuilt shards carry %d signatures plus the set manifest's",
				st.Generation, st.Signed, rebuilt)
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

	_, st, err = c.Update(longCorpusAt(120, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	check(st, repinned, 3)
}
