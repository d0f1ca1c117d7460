package snapshot

import (
	"bytes"
	"runtime"
	"testing"

	"authtext/internal/core"
	"authtext/internal/corpus"
	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/live"
	"authtext/internal/sig"
)

// testAuthority is a deterministic authority vector for n documents.
func testAuthority(n, salt int) []float64 {
	a := make([]float64, n)
	for i := range a {
		a[i] = float64((i+salt)%9) / 8
	}
	return a
}

// configVariant is one build configuration the byte-identity tests cover:
// with and without the dictionary-mode, vocabulary-proof and authority-boost
// trees.
type configVariant struct {
	name   string
	mutate func(*engine.Config)
	boost  bool
}

func configVariants(nDocs int) []configVariant {
	return []configVariant{
		{name: "plain"},
		{name: "dict+vocab", mutate: func(c *engine.Config) { c.DictMode, c.VocabProofs = true, true }},
		{name: "vocab+boost", boost: true, mutate: func(c *engine.Config) {
			c.VocabProofs = true
			c.Authority, c.Beta = testAuthority(nDocs, 0), 1.5
		}},
	}
}

// TestLiveRebuiltReopenedAndMappedServeIdenticalVOs: the collection-level
// Merkle trees are derived at build and at restore, never persisted, so a
// live-rebuilt generation, its reopen and its mapped reopen must
// answer byte-for-byte alike — for every algorithm × scheme, with and
// without the dictionary-mode, vocabulary-proof and authority-boost trees.
func TestLiveRebuiltReopenedAndMappedServeIdenticalVOs(t *testing.T) {
	docs := corpus.Generate(corpus.Tiny())
	initial, added := docs[:len(docs)-6], docs[len(docs)-6:]
	for _, v := range configVariants(len(initial)) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			signer, err := sig.NewHMACSigner([]byte("snapshot-test"), 128)
			if err != nil {
				t.Fatal(err)
			}
			cfg := engine.DefaultConfig(signer)
			if v.mutate != nil {
				v.mutate(&cfg)
			}
			lc, handles, err := live.New(initial, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Generation 2: appended documents and two tombstones.
			var addAuth []float64
			if v.boost {
				addAuth = testAuthority(len(added), 3)
			}
			if _, _, err := lc.UpdateWithAuthority(added, addAuth, handles[:2]); err != nil {
				t.Fatal(err)
			}
			rebuilt := lc.Current()
			if m, _ := rebuilt.Manifest(); m.Generation != 2 {
				t.Fatalf("generation %d, want 2", m.Generation)
			}

			snap := encode(t, rebuilt)
			copied, err := Open(bytes.NewReader(snap))
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := OpenMapped(writeSnapshotFile(t, snap))
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()

			idx := rebuilt.Index()
			queries := [][]string{
				{idx.Name(0), idx.Name(1)},
				{idx.Name(index.TermID(idx.M() - 1)), idx.Name(index.TermID(idx.M() / 2)), "zzzunknownterm"},
				{"aaaunknownterm", idx.Name(index.TermID(idx.M() / 3))},
			}
			for _, tokens := range queries {
				for _, algo := range []core.Algo{core.AlgoTRA, core.AlgoTNRA} {
					for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
						res, want, _, err := rebuilt.Search(tokens, 5, algo, scheme)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := rebuilt.VerifyResult(tokens, 5, res, want); err != nil {
							t.Fatalf("%v-%v %v: %v", algo, scheme, tokens, err)
						}
						for name, col := range map[string]*engine.Collection{"Open": copied, "mapped open": mapped.Collection()} {
							_, got, _, err := col.Search(tokens, 5, algo, scheme)
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(got, want) {
								t.Fatalf("%s, %v-%v %v: VO differs from the live-rebuilt collection's", name, algo, scheme, tokens)
							}
						}
					}
				}
			}
		})
	}
}

// TestBuildDeterministicAcrossGOMAXPROCS: the owner's build hashes and signs
// on every core but lays the device out sequentially, so one corpus under
// one signer must yield the same snapshot bytes and the same VOs whether it
// was built on one core, on four, or on three of four (SpareCore, as a live
// rebuild runs).
func TestBuildDeterministicAcrossGOMAXPROCS(t *testing.T) {
	docs := corpus.Generate(corpus.Tiny())
	for _, v := range configVariants(len(docs)) {
		t.Run(v.name, func(t *testing.T) {
			signer, err := sig.NewHMACSigner([]byte("snapshot-test"), 128)
			if err != nil {
				t.Fatal(err)
			}
			cfg := engine.DefaultConfig(signer)
			if v.mutate != nil {
				v.mutate(&cfg)
			}
			build := func(procs int, spare bool) *engine.Collection {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cfg := cfg
				cfg.SpareCore = spare
				col, err := engine.BuildCollection(docs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return col
			}
			one, four, three := build(1, false), build(4, false), build(4, true)
			snapOne := encode(t, one)
			for name, col := range map[string]*engine.Collection{"four cores": four, "three of four": three} {
				if a, b := one.BuildStats().Signatures, col.BuildStats().Signatures; a != b {
					t.Fatalf("%d signatures on one core, %d on %s", a, b, name)
				}
				snap := encode(t, col)
				for _, id := range sectionOrder {
					s1, e1, _ := sectionRange(t, snapOne, id)
					s, e, _ := sectionRange(t, snap, id)
					if id == secStats { // ends in the wall-clock build time
						e1, e = e1-8, e-8
					}
					if !bytes.Equal(snapOne[s1:e1], snap[s:e]) {
						t.Errorf("snapshot section %d differs between one core and %s", id, name)
					}
				}
			}

			idx := one.Index()
			queries := [][]string{
				{idx.Name(0), idx.Name(1)},
				{idx.Name(index.TermID(idx.M() - 1)), idx.Name(index.TermID(idx.M() / 2)), "zzzunknownterm"},
			}
			for _, tokens := range queries {
				for _, algo := range []core.Algo{core.AlgoTRA, core.AlgoTNRA} {
					for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
						res, want, st1, err := one.Search(tokens, 5, algo, scheme)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := one.VerifyResult(tokens, 5, res, want); err != nil {
							t.Fatalf("%v-%v %v: %v", algo, scheme, tokens, err)
						}
						_, got, st4, err := four.Search(tokens, 5, algo, scheme)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%v-%v %v: VO differs between GOMAXPROCS 1 and 4", algo, scheme, tokens)
						}
						if st1.IO != st4.IO {
							t.Fatalf("%v-%v %v: I/O %+v on one core, %+v on four", algo, scheme, tokens, st1.IO, st4.IO)
						}
					}
				}
			}
		})
	}
}
