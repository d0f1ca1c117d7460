package engine

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/mht"
)

// verboseQueries returns multi-term queries whose TRA answers encounter a
// good share of a test collection, one unknown token included.
func verboseQueries(idx *index.Index, seed int64, n int) [][]string {
	r := rand.New(rand.NewSource(seed))
	queries := make([][]string, n)
	for i := range queries {
		q := []string{"not-a-dictionary-term"}
		for k := 2 + r.Intn(7); k > 0; k-- {
			q = append(q, idx.Name(index.TermID(r.Intn(idx.M()))))
		}
		queries[i] = q
	}
	return queries
}

// restored reopens col from its exported state, aliasing its device as
// every snapshot open does: a collection with derived state still cold.
func restored(t testing.TB, col *Collection) *Collection {
	t.Helper()
	r, err := Restore(col.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// residentBytes sums the trees actually sitting in the slots.
func residentBytes(vt *vecTrees) int64 {
	var sum int64
	for i := range vt.slots {
		if t := vt.slots[i].Load(); t != nil {
			sum += int64(t.Bytes())
		}
	}
	return sum
}

// TestVecTreesWarmSearchHashesNothing is the cache's contract: the first TRA
// answer that encounters a document hashes its term vector once, no later
// answer hashes it again, and cold, warm and restored collections all serve
// the bytes the leaf-hashing construction yields.
func TestVecTreesWarmSearchHashesNothing(t *testing.T) {
	for name, built := range map[string]*Collection{
		"plain":            buildTestCollection(t, 61, 90, 40, nil),
		"dict+vocab+boost": treeVariantCollection(t),
	} {
		reopened := restored(t, built)
		idx := built.Index()
		for _, tokens := range verboseQueries(idx, 3, 12) {
			for _, v := range allVariants {
				var want []byte
				for _, col := range []*Collection{built, reopened} {
					before := col.vecTrees.hashed.Load()
					res, cold, coldStats, err := col.Search(tokens, 5, v.algo, v.scheme)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := col.VerifyResult(tokens, 5, res, cold); err != nil {
						t.Fatalf("%s %v-%v %v: %v", name, v.algo, v.scheme, tokens, err)
					}
					hashed := col.vecTrees.hashed.Load()
					if v.algo == core.AlgoTNRA && hashed != before {
						t.Fatalf("%s: a TNRA search built document trees", name)
					}
					_, warm, warmStats, err := col.Search(tokens, 5, v.algo, v.scheme)
					if err != nil {
						t.Fatal(err)
					}
					if got := col.vecTrees.hashed.Load(); got != hashed {
						t.Fatalf("%s %v-%v: a repeated search hashed %d term-vector leaves", name, v.algo, v.scheme, got-hashed)
					}
					if want == nil {
						want = cold
					}
					if !bytes.Equal(cold, want) || !bytes.Equal(warm, want) {
						t.Fatalf("%s %v-%v %v: VO bytes differ between cold, warm and restored collections", name, v.algo, v.scheme, tokens)
					}
					if coldStats.IO != warmStats.IO {
						t.Fatalf("%s %v-%v: a warm search read %+v, the cold one %+v", name, v.algo, v.scheme, warmStats.IO, coldStats.IO)
					}
				}
				if v.algo != core.AlgoTRA {
					continue
				}
				// The digests are those of the construction the trees replaced.
				decoded, err := decodeForTest(want)
				if err != nil {
					t.Fatal(err)
				}
				if len(decoded.Docs) == 0 {
					t.Fatalf("%s %v: no document proofs", name, tokens)
				}
				for _, dp := range decoded.Docs {
					vec := idx.DocVector(index.DocID(dp.Doc))
					positions := make([]int, len(dp.Positions))
					for i, p := range dp.Positions {
						positions[i] = int(p)
					}
					ref, err := mht.ProveFunc(built.hasher, len(vec), core.TermFreqLeaves(vec), positions)
					if err != nil {
						t.Fatal(err)
					}
					sameDigests(t, "document proof", dp.Digests, ref)
				}
			}
		}
		if built.vecTrees.hashed.Load() == 0 {
			t.Fatalf("%s: no document tree was ever built", name)
		}
		for _, col := range []*Collection{built, reopened} {
			if got, want := col.vecTrees.resident.Load(), residentBytes(col.vecTrees); got != want {
				t.Fatalf("%s: resident counter %d, trees in slots hold %d bytes", name, got, want)
			}
		}
	}
}

// TestVecTreesConcurrentFirstTouch: goroutines racing to build the same
// documents' trees all answer with the bytes a single-threaded collection
// serves, and the bytes of the trees that lost a race are not kept on the
// books. Run under -race.
func TestVecTreesConcurrentFirstTouch(t *testing.T) {
	reference := buildTestCollection(t, 67, 120, 40, nil)
	queries := verboseQueries(reference.Index(), 5, 8)
	schemes := []core.Scheme{core.SchemeMHT, core.SchemeCMHT}
	want := make([][]byte, 0, len(queries)*len(schemes))
	for _, q := range queries {
		for _, scheme := range schemes {
			_, voBytes, _, err := reference.Search(q, 5, core.AlgoTRA, scheme)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, voBytes)
		}
	}
	cold := restored(t, reference)

	const goroutines = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			i := 0
			for _, q := range queries {
				for _, scheme := range schemes {
					_, voBytes, _, err := cold.Search(q, 5, core.AlgoTRA, scheme)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(voBytes, want[i]) {
						t.Errorf("%v %v: VO differs from the single-threaded collection's", scheme, q)
						return
					}
					i++
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if got, want := cold.vecTrees.resident.Load(), residentBytes(cold.vecTrees); got != want || got == 0 {
		t.Fatalf("resident counter %d, trees in slots hold %d bytes", got, want)
	}
}

// TestVecTreesBound: with room for only a few trees the collection stops
// admitting, never exceeds the bound, and answers byte-for-byte like one
// that keeps every tree.
func TestVecTreesBound(t *testing.T) {
	unbounded := buildTestCollection(t, 71, 120, 40, nil)
	bounded := restored(t, unbounded)
	const limit = 4 << 10
	bounded.vecTrees.limit = limit
	for round := 0; round < 2; round++ {
		for _, q := range verboseQueries(unbounded.Index(), 7, 10) {
			for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
				_, want, _, err := unbounded.Search(q, 5, core.AlgoTRA, scheme)
				if err != nil {
					t.Fatal(err)
				}
				_, got, _, err := bounded.Search(q, 5, core.AlgoTRA, scheme)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%v %v: the bounded collection's VO differs", scheme, q)
				}
				resident := residentBytes(bounded.vecTrees)
				if resident > limit || resident != bounded.vecTrees.resident.Load() {
					t.Fatalf("resident trees hold %d bytes (counter %d), bound %d", resident, bounded.vecTrees.resident.Load(), limit)
				}
			}
		}
	}
	if residentBytes(bounded.vecTrees) == 0 {
		t.Fatal("the bound admitted nothing")
	}
	if residentBytes(unbounded.vecTrees) <= limit {
		t.Fatalf("the workload only needs %d bytes of trees: the bound of %d never bound", residentBytes(unbounded.vecTrees), limit)
	}
}

// TestVecTreesDoNotMaskStorageFaults: the cache keeps digests, never data. A
// record corrupted after its tree was cached still produces an answer the
// client rejects, although every digest the answer needs is in memory.
func TestVecTreesDoNotMaskStorageFaults(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
		col := buildTestCollection(t, 73, 60, 25, nil)
		idx := col.Index()
		longest := index.TermID(0)
		for ti := 1; ti < idx.M(); ti++ {
			if idx.FT(index.TermID(ti)) > idx.FT(longest) {
				longest = index.TermID(ti)
			}
		}
		tokens := []string{idx.Name(longest)}
		res, voBytes, _, err := col.Search(tokens, 4, core.AlgoTRA, scheme)
		if err != nil || len(res.Entries) == 0 {
			t.Fatalf("clean query failed: %v", err)
		}
		if _, err := col.VerifyResult(tokens, 4, res, voBytes); err != nil {
			t.Fatal(err)
		}
		top := res.Entries[0].Doc
		if col.vecTrees.slots[top].Load() == nil {
			t.Fatal("the top document's tree was not cached")
		}

		// Flip a bit in the weight of the query term's own leaf.
		p, found := searchVec(idx.DocVector(top), 0, longest)
		if !found {
			t.Fatal("top document lacks the query term")
		}
		off := 4 + col.cfg.HashSize + 2 + col.cfg.Signer.Size() + p*entrySize + 5
		if err := col.Device().Corrupt(col.Layout().Doc[top], off, 0x55); err != nil {
			t.Fatal(err)
		}
		hashed := col.vecTrees.hashed.Load()
		res, voBytes, _, err = col.Search(tokens, 4, core.AlgoTRA, scheme)
		if err == nil {
			if _, err := col.VerifyResult(tokens, 4, res, voBytes); err == nil {
				t.Fatalf("%v: a record corrupted behind a cached tree went undetected", scheme)
			}
		}
		if col.vecTrees.hashed.Load() != hashed {
			t.Fatalf("%v: the corrupted record was served from a rebuilt tree, not the cached one", scheme)
		}
	}
}
