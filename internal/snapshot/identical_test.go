package snapshot

import (
	"bytes"
	"testing"

	"authtext/internal/core"
	"authtext/internal/corpus"
	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/live"
	"authtext/internal/sig"
)

// TestLiveRebuiltReopenedAndMappedServeIdenticalVOs: the collection-level
// Merkle trees are derived at build and at restore, never persisted, so a
// live-rebuilt generation, its copying reopen and its mapped reopen must
// answer byte-for-byte alike — for every algorithm × scheme, with and
// without the dictionary-mode, vocabulary-proof and authority-boost trees.
func TestLiveRebuiltReopenedAndMappedServeIdenticalVOs(t *testing.T) {
	docs := corpus.Generate(corpus.Tiny())
	initial, added := docs[:len(docs)-6], docs[len(docs)-6:]
	authority := func(n, salt int) []float64 {
		a := make([]float64, n)
		for i := range a {
			a[i] = float64((i+salt)%9) / 8
		}
		return a
	}
	variants := []struct {
		name   string
		mutate func(*engine.Config)
		boost  bool
	}{
		{name: "plain"},
		{name: "dict+vocab", mutate: func(c *engine.Config) { c.DictMode, c.VocabProofs = true, true }},
		{name: "vocab+boost", boost: true, mutate: func(c *engine.Config) {
			c.VocabProofs = true
			c.Authority, c.Beta = authority(len(initial), 0), 1.5
		}},
	}
	for _, v := range variants {
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
				addAuth = authority(len(added), 3)
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
			defer mapped.Release()
			if err := mapped.Wait(); err != nil {
				t.Fatal(err)
			}

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
						for name, col := range map[string]*engine.Collection{"copying open": copied, "mapped open": mapped.Collection()} {
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
