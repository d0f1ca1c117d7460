package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/mht"
)

// treeVariantCollection builds a collection with every collection-level
// tree in play: dictionary mode, vocabulary proofs and the authority boost.
func treeVariantCollection(t testing.TB) *Collection {
	t.Helper()
	return buildTestCollection(t, 77, 90, 40, func(c *Config) {
		c.DictMode = true
		c.VocabProofs = true
		authority := make([]float64, 90)
		for d := range authority {
			authority[d] = float64(d%11) / 10
		}
		c.Authority = authority
		c.Beta = 1.25
	})
}

// sameDigests compares a VO's proof digests with a reference proof.
func sameDigests(t *testing.T, what string, got [][]byte, want mht.Proof) {
	t.Helper()
	if len(got) != len(want.Digests) {
		t.Fatalf("%s: %d digests, the leaf-hashing proof has %d", what, len(got), len(want.Digests))
	}
	for i := range got {
		if !bytes.Equal(got[i], want.Digests[i]) {
			t.Fatalf("%s: digest %d differs from the leaf-hashing proof", what, i)
		}
	}
}

// TestCollectionProofsMatchLeafHashing pins the materialised trees to the
// construction they replaced: every collection-level proof in a VO must be
// exactly what mht.Prove yields when it re-hashes the full leaf table.
func TestCollectionProofsMatchLeafHashing(t *testing.T) {
	col := treeVariantCollection(t)
	idx := col.Index()
	st := col.ExportState()
	n, m := idx.N, idx.M()
	nameLeaves := make([][]byte, m)
	for i := range nameLeaves {
		nameLeaves[i] = core.VocabLeaf(idx.Name(index.TermID(i)))
	}
	authLeaves := make([][]byte, n)
	for d := range authLeaves {
		authLeaves[d] = core.EncodeAuthorityLeaf(index.DocID(d), st.Authority[d])
	}
	// A dictionary leaf is the message list mode signs for the term.
	var dictLeaves [4][][]byte
	for _, kind := range core.AllVariants.Kinds() {
		for t, root := range st.TermRoots[kind-1] {
			tid := index.TermID(t)
			dictLeaves[kind-1] = append(dictLeaves[kind-1], core.TermRootMessage(kind, idx.Name(tid), tid, uint32(idx.FT(tid)), root))
		}
	}
	manifest, _ := col.Manifest()
	for what, pair := range map[string][2][]byte{
		"doc-hash root":  {manifest.DocHashRoot, mht.Root(col.hasher, st.DocHash)},
		"name-dict root": {manifest.NameDictRoot, mht.Root(col.hasher, nameLeaves)},
		"authority root": {manifest.AuthorityRoot, mht.Root(col.hasher, authLeaves)},
		"dict root 1":    {manifest.DictRoots[0], mht.Root(col.hasher, dictLeaves[0])},
		"dict root 4":    {manifest.DictRoots[3], mht.Root(col.hasher, dictLeaves[3])},
	} {
		if !bytes.Equal(pair[0], pair[1]) {
			t.Fatalf("%s in the manifest differs from the root over the leaves", what)
		}
	}

	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		tokens := []string{
			idx.Name(index.TermID(r.Intn(m))),
			idx.Name(index.TermID(r.Intn(m))),
			"aaa-before-everything", "zzz-after-everything", idx.Name(index.TermID(r.Intn(m))) + "-between",
		}
		for _, v := range allVariants {
			res, voBytes, _, err := col.Search(tokens, 5, v.algo, v.scheme)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := col.VerifyResult(tokens, 5, res, voBytes); err != nil {
				t.Fatalf("%v-%v %v: %v", v.algo, v.scheme, tokens, err)
			}
			decoded, err := decodeForTest(voBytes)
			if err != nil {
				t.Fatal(err)
			}
			kind := core.KindFor(v.algo, v.scheme)

			var termIDs []int
			seenDoc := map[int]bool{}
			var revealed []int
			for _, tp := range decoded.Terms {
				termIDs = append(termIDs, int(tp.TermID))
				for _, d := range tp.Docs[:tp.KScore] {
					if !seenDoc[int(d)] {
						seenDoc[int(d)] = true
						revealed = append(revealed, int(d))
					}
				}
			}
			sort.Ints(termIDs)
			sort.Ints(revealed)

			want, err := mht.Prove(col.hasher, dictLeaves[kind-1], termIDs)
			if err != nil {
				t.Fatal(err)
			}
			sameDigests(t, "dictionary proof", decoded.DictProof.Digests, want)

			want, err = mht.Prove(col.hasher, authLeaves, revealed)
			if err != nil {
				t.Fatal(err)
			}
			sameDigests(t, "authority proof", decoded.AuthorityProof.Digests, want)

			if len(decoded.VocabProofs) != 3 {
				t.Fatalf("%d vocabulary proofs for 3 unknown tokens", len(decoded.VocabProofs))
			}
			for _, vp := range decoded.VocabProofs {
				positions := make([]int, len(vp.Positions))
				for i, p := range vp.Positions {
					positions[i] = int(p)
				}
				want, err = mht.Prove(col.hasher, nameLeaves, positions)
				if err != nil {
					t.Fatal(err)
				}
				sameDigests(t, "vocabulary proof "+vp.Token, vp.Digests, want)
			}

			if v.algo == core.AlgoTNRA && len(res.Entries) > 0 {
				var docs []int
				for _, e := range res.Entries {
					docs = append(docs, int(e.Doc))
				}
				sort.Ints(docs)
				want, err = mht.Prove(col.hasher, st.DocHash, docs)
				if err != nil {
					t.Fatal(err)
				}
				sameDigests(t, "content proof", decoded.ContentProof.Digests, want)
			}
		}
	}
}

// TestRestoredCollectionServesIdenticalVOs: the trees are derived state, so
// a collection restored from its exported state (aliasing the device, as
// every snapshot open does) must answer byte-for-byte like the one that was
// built.
func TestRestoredCollectionServesIdenticalVOs(t *testing.T) {
	built := treeVariantCollection(t)
	reopened := restored(t, built)
	idx := built.Index()
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		tokens := []string{
			idx.Name(index.TermID(r.Intn(idx.M()))),
			idx.Name(index.TermID(r.Intn(idx.M()))),
			"not-a-dictionary-term",
		}
		for _, v := range allVariants {
			_, want, wantStats, err := built.Search(tokens, 4, v.algo, v.scheme)
			if err != nil {
				t.Fatal(err)
			}
			_, got, gotStats, err := reopened.Search(tokens, 4, v.algo, v.scheme)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v-%v %v: VO differs from the built collection's", v.algo, v.scheme, tokens)
			}
			if gotStats.IO != wantStats.IO {
				t.Fatalf("%v-%v: IO stats %+v, built %+v", v.algo, v.scheme, gotStats.IO, wantStats.IO)
			}
		}
	}
}

// TestSearchAllocationsIndependentOfCollectionSize is the guard against an
// O(N) proof path creeping back: an uncached TNRA-CMHT search on a
// collection ten times larger, whose query lists are just as long, must
// allocate about the same. (Hashing the document-hash tree per query cost
// ≈2 allocations per document.) The TRA case is the same guard for the
// document proofs: with documents ten times longer — the same ones
// encountered, the same leaves revealed — a warm search hashes nothing and
// allocates about the same. (Hashing each encountered term vector per query
// cost ≈2 hashes per entry, and the proof slices ≈17 allocations per
// document.)
func TestSearchAllocationsIndependentOfCollectionSize(t *testing.T) {
	queryTerms := []string{"alpha", "beta", "gamma"}
	measure := func(nDocs, fillers int, algo core.Algo) (allocs float64, best time.Duration) {
		// Every query term occurs in exactly 30 documents whatever the
		// collection size, so the answer — revealed prefixes, result,
		// proofs — stays the same size while N or the documents grow.
		stride := nDocs / 30
		docs := make([]index.Document, nDocs)
		for i := range docs {
			toks := make([]string, 0, fillers+6)
			for f := 0; f < fillers; f++ {
				toks = append(toks, fmt.Sprintf("filler%d", (i+f)%max(nDocs/4, 2*fillers)))
			}
			for q, term := range queryTerms {
				if i%stride == q && i/stride < 30 {
					for rep := 0; rep <= (i/stride)%3; rep++ {
						toks = append(toks, term)
					}
				}
			}
			docs[i] = index.Document{Content: []byte(fmt.Sprint(i, toks)), Tokens: toks}
		}
		col, err := BuildCollection(docs, Config{Store: smallParams(), HashSize: 16, Signer: testSigner(t), VocabProofs: true})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			start := time.Now()
			res, _, _, err := col.Search(queryTerms, 10, algo, core.SchemeCMHT)
			if err != nil || len(res.Entries) != 10 {
				t.Fatalf("search: %d entries, %v", len(res.Entries), err)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		run()
		hashed := col.vecTrees.hashed.Load()
		best = 0
		allocs = testing.AllocsPerRun(20, run)
		if got := col.vecTrees.hashed.Load(); got != hashed {
			t.Fatalf("warm searches hashed %d term-vector leaves", got-hashed)
		}
		return allocs, best
	}
	small, _ := measure(200, 2, core.AlgoTNRA)
	large, _ := measure(2000, 2, core.AlgoTNRA)
	t.Logf("TNRA allocations per search: %.0f on 200 documents, %.0f on 2000", small, large)
	if large > small*1.2 {
		t.Fatalf("search allocations grew from %.0f (200 documents) to %.0f (2000): a per-query cost scales with the collection", small, large)
	}
	short, shortTime := measure(400, 20, core.AlgoTRA)
	long, longTime := measure(400, 200, core.AlgoTRA)
	t.Logf("TRA allocations per warm search: %.0f with 20-term documents (%v), %.0f with 200-term documents (%v)",
		short, shortTime, long, longTime)
	if long > short*1.2 {
		t.Fatalf("TRA search allocations grew from %.0f (20-term documents) to %.0f (200-term): a per-query cost scales with document length", short, long)
	}
	// What is left per entry is decoding the record (≈2× here); re-hashing
	// the vectors made the long documents ≈10× slower.
	if longTime > 5*shortTime {
		t.Fatalf("warm TRA search took %v with 20-term documents and %v with 200-term ones: time scales with document length", shortTime, longTime)
	}
}
