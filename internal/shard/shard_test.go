package shard

import (
	"fmt"
	"testing"

	"authtext/internal/core"
	"authtext/internal/corpus"
	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/sig"
	"authtext/internal/workload"
)

func testDocs(n int) []index.Document {
	subjects := []string{
		"merkle tree authenticates the root digest of messages",
		"threshold algorithm pops the entry with the highest score",
		"inverted index stores impact entries sorted by frequency",
		"verification object carries digests to recompute the root",
		"sorted access maintains bounds for candidate documents",
		"signatures verify with the published public key",
		"audit trail archives verification objects for decisions",
		"random access fetches term frequencies from the record",
	}
	docs := make([]index.Document, n)
	for i := range docs {
		docs[i] = index.Document{Content: []byte(fmt.Sprintf("document %d: %s", i, subjects[i%len(subjects)]))}
	}
	return docs
}

func buildSet(t *testing.T, n, k int) *Set {
	t.Helper()
	signer, err := sig.NewHMACSigner([]byte("shard-test"), 128)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig(signer)
	// Tiny per-shard collections: keep singleton terms so even a one-document
	// shard still has a dictionary.
	cfg.RemoveSingletons = false
	set, err := Build(testDocs(n), Config{Engine: cfg, Shards: k})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestAssignRoundRobinBalanced(t *testing.T) {
	assign, err := roundRobin(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for s, ids := range assign {
		if len(ids) < 3 || len(ids) > 4 {
			t.Errorf("shard %d has %d documents", s, len(ids))
		}
		for _, g := range ids {
			if seen[g] || g%3 != s {
				t.Errorf("document %d assigned twice or to shard %d", g, s)
			}
			seen[g] = true
		}
	}
	if len(seen) != 10 {
		t.Errorf("%d documents assigned, want 10", len(seen))
	}
}

// TestAssignHashCoversAllDocs: HashDoc places every document on one of the
// k shards, on the same one every time, and spreads a corpus over all k.
func TestAssignHashCoversAllDocs(t *testing.T) {
	docs := testDocs(64)
	sizes := make([]int, 4)
	for _, d := range docs {
		s := HashDoc(d, 4)
		if s < 0 || s >= 4 || HashDoc(d, 4) != s {
			t.Fatalf("document %q placed on shard %d", d.Content, s)
		}
		sizes[s]++
	}
	for s, n := range sizes {
		if n == 0 {
			t.Fatalf("shard %d left empty: %v", s, sizes)
		}
	}
}

func TestAssignErrors(t *testing.T) {
	if _, err := roundRobin(3, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := roundRobin(3, 4); err == nil {
		t.Error("more shards than documents accepted")
	}
}

func TestSetManifestRoundTrip(t *testing.T) {
	set := buildSet(t, 12, 3)
	sm, smSig := set.Manifest()
	enc := sm.Encode()
	dec, err := DecodeSetManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if string(dec.Encode()) != string(enc) {
		t.Fatal("set manifest encode/decode not canonical")
	}
	if err := VerifySetManifest(dec, smSig, set.Verifier()); err != nil {
		t.Fatalf("signature over decoded manifest: %v", err)
	}
	// Any bit flip must break either decoding or the signature.
	for _, i := range []int{0, len(enc) / 2, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x01
		dm, err := DecodeSetManifest(bad)
		if err != nil {
			continue
		}
		if err := VerifySetManifest(dm, smSig, set.Verifier()); err == nil {
			t.Errorf("flipping byte %d went undetected", i)
		}
	}
}

func TestDocMapRoundTrip(t *testing.T) {
	m := []uint32{3, 1, 4, 1, 5, 9}
	dec, err := DecodeDocMap(EncodeDocMap(m))
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		if dec[i] != m[i] {
			t.Fatalf("entry %d: %d != %d", i, dec[i], m[i])
		}
	}
	if _, err := DecodeDocMap([]byte{0, 0}); err == nil {
		t.Error("truncated doc map accepted")
	}
	if _, err := DecodeDocMap(append(EncodeDocMap(m), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestSearchVerifyAcrossVariants(t *testing.T) {
	set := buildSet(t, 16, 4)
	for _, algo := range []core.Algo{core.AlgoTRA, core.AlgoTNRA} {
		for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
			name := fmt.Sprintf("%s-%s", algo, scheme)
			res, err := set.Search([]string{"merkle", "root", "digest"}, 5, algo, scheme)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res.Merged) == 0 {
				t.Fatalf("%s: empty merge", name)
			}
			if err := set.VerifyResult([]string{"merkle", "root", "digest"}, 5, res); err != nil {
				t.Errorf("%s: honest result rejected: %v", name, err)
			}
		}
	}
}

func TestGlobalIDsMatchPartition(t *testing.T) {
	set := buildSet(t, 10, 3)
	for s := 0; s < set.K(); s++ {
		for local, global := range set.DocMap(s) {
			// Round-robin: global g goes to shard g%k at local position g/k.
			if int(global)%set.K() != s || int(global)/set.K() != local {
				t.Errorf("shard %d local %d maps to global %d", s, local, global)
			}
		}
	}
	if set.Documents() != 10 {
		t.Errorf("Documents() = %d", set.Documents())
	}
}

func TestVerifyMergeDetectsTampering(t *testing.T) {
	set := buildSet(t, 16, 4)
	tokens := []string{"merkle", "entries", "root"}
	res, err := set.Search(tokens, 4, core.AlgoTNRA, core.SchemeCMHT)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merged) < 2 {
		t.Skipf("merge too small (%d) to tamper meaningfully", len(res.Merged))
	}

	perShard := make([][]core.ResultEntry, set.K())
	for i := range res.PerShard {
		perShard[i] = res.PerShard[i].Result.Entries
	}
	docMaps := make([][]uint32, set.K())
	for i := range docMaps {
		docMaps[i] = set.DocMap(i)
	}

	reordered := append([]MergedHit(nil), res.Merged...)
	reordered[0], reordered[1] = reordered[1], reordered[0]
	if err := VerifyMerge(perShard, docMaps, 4, reordered); core.CodeOf(err) != core.CodeBadOrdering {
		t.Errorf("reordered merge: err=%v", err)
	}

	truncated := res.Merged[:len(res.Merged)-1]
	if err := VerifyMerge(perShard, docMaps, 4, truncated); core.CodeOf(err) != core.CodeIncomplete {
		t.Errorf("truncated merge: err=%v", err)
	}

	inflated := append([]MergedHit(nil), res.Merged...)
	inflated[0].Score += 1 // additive so a zero score is still a change
	if err := VerifyMerge(perShard, docMaps, 4, inflated); core.CodeOf(err) != core.CodeBadOrdering {
		t.Errorf("inflated score: err=%v", err)
	}

	wrongGlobal := append([]MergedHit(nil), res.Merged...)
	wrongGlobal[0].Global++
	if err := VerifyMerge(perShard, docMaps, 4, wrongGlobal); core.CodeOf(err) != core.CodeBadOrdering {
		t.Errorf("wrong global id: err=%v", err)
	}
}

func TestAssembleRejectsMixedShards(t *testing.T) {
	set := buildSet(t, 12, 3)
	// A same-owner set over a DIFFERENT corpus: its shard manifests are
	// validly signed, but they are not the shards the set manifest pins.
	other := buildSet(t, 15, 3)
	sm, smSig := set.Manifest()
	cols := []*engine.Collection{set.Col(0), set.Col(1), set.Col(2)}
	maps := [][]uint32{set.DocMap(0), set.DocMap(1), set.DocMap(2)}

	if _, err := Assemble(cols, sm, smSig, set.Verifier(), maps); err != nil {
		t.Fatalf("honest assemble rejected: %v", err)
	}

	swapped := []*engine.Collection{set.Col(0), other.Col(1), set.Col(2)}
	if _, err := Assemble(swapped, sm, smSig, set.Verifier(), maps); err == nil {
		t.Error("substituted shard accepted")
	}

	badMaps := [][]uint32{set.DocMap(0), set.DocMap(2), set.DocMap(1)}
	if _, err := Assemble(cols, sm, smSig, set.Verifier(), badMaps); err == nil {
		t.Error("swapped doc maps accepted")
	}

	short := []*engine.Collection{set.Col(0), set.Col(1)}
	if _, err := Assemble(short, sm, smSig, set.Verifier(), maps[:2]); err == nil {
		t.Error("missing shard accepted")
	}
}

func TestBuildSplitsAuthority(t *testing.T) {
	signer, err := sig.NewHMACSigner([]byte("shard-boost"), 128)
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(9)
	cfg := engine.DefaultConfig(signer)
	cfg.Authority = make([]float64, len(docs))
	for i := range cfg.Authority {
		cfg.Authority[i] = float64(i) / float64(len(docs))
	}
	cfg.Beta = 1.5
	set, err := Build(docs, Config{Engine: cfg, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := set.Search([]string{"merkle", "digest"}, 3, core.AlgoTNRA, core.SchemeCMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.VerifyResult([]string{"merkle", "digest"}, 3, res); err != nil {
		t.Errorf("boosted sharded result rejected: %v", err)
	}
}

// TestPerShardWorkShrinksWithShardCount is sharding's deterministic claim:
// on the same queries — drawn once from the unsharded dictionary, since a
// shard's own dictionary changes with k — the most query-list entries any
// one shard holds, and the most any one shard reads, fall strictly as the
// documents spread over 1, 2, 4 and 8 shards. Both repeat exactly from run
// to run; wall-clock columns are bench_test.go's BenchmarkShardedSearch{k}.
func TestPerShardWorkShrinksWithShardCount(t *testing.T) {
	signer, err := sig.NewHMACSigner([]byte("shard-work"), 128)
	if err != nil {
		t.Fatal(err)
	}
	docs := corpus.Generate(corpus.Tiny())
	var queries [][]string
	var prevListed, prevRead float64
	for _, k := range []int{1, 2, 4, 8} {
		set, err := Build(docs, Config{Engine: engine.DefaultConfig(signer), Shards: k})
		if err != nil {
			t.Fatalf("%d shards: %v", k, err)
		}
		if queries == nil {
			queries = workload.Synthetic(set.Col(0).Index(), 5, 3, 101)
		}
		var listed, read float64
		for _, q := range queries {
			res, err := set.Search(q, 10, core.AlgoTNRA, core.SchemeCMHT)
			if err != nil {
				t.Fatal(err)
			}
			if err := set.VerifyResult(q, 10, res); err != nil {
				t.Fatalf("%d shards: %v", k, err)
			}
			var worstListed float64
			var worstRead int
			for _, sr := range res.PerShard {
				if l := sr.Stats.AvgListLen * float64(sr.Stats.QueryTerms); l > worstListed {
					worstListed = l
				}
				if sr.Stats.EntriesRead > worstRead {
					worstRead = sr.Stats.EntriesRead
				}
			}
			listed += worstListed
			read += float64(worstRead)
		}
		if read <= 0 || listed < read {
			t.Fatalf("%d shards: busiest shard lists %.0f entries and reads %.0f", k, listed, read)
		}
		if k > 1 && (listed >= prevListed || read >= prevRead) {
			t.Errorf("%d shards: busiest shard lists %.0f and reads %.0f entries over the workload; %d shards: %.0f and %.0f",
				k, listed, read, k/2, prevListed, prevRead)
		}
		prevListed, prevRead = listed, read
	}
}
