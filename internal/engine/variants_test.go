package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"authtext/internal/core"
	"authtext/internal/index"
)

// variantQuery is one query of the fixed stream the variant tests replay.
type variantQuery struct {
	tokens []string
	r      int
}

func variantQueries(idx *index.Index) []variantQuery {
	r := rand.New(rand.NewSource(43))
	qs := make([]variantQuery, 20)
	for i := range qs {
		qs[i].tokens = make([]string, 1+r.Intn(4))
		for j := range qs[i].tokens {
			qs[i].tokens[j] = idx.Name(index.TermID(r.Intn(idx.M())))
		}
		qs[i].r = 1 + r.Intn(8)
	}
	return qs
}

// TestBuildOnlyWhatIsServed builds every non-empty variant set with one HMAC
// key and checks that a build signs and lays out exactly what its set needs —
// (N if a TRA kind) + |set|·M + 1 signatures, zero space for every structure
// it skipped — while each built variant answers byte-identically to the
// all-four build, and each other one is refused with ErrVariantNotBuilt.
func TestBuildOnlyWhatIsServed(t *testing.T) {
	docs := randomDocs(rand.New(rand.NewSource(41)), 60, 40)
	build := func(set core.VariantSet, dict bool) *Collection {
		t.Helper()
		col, err := BuildCollection(docs, Config{Store: smallParams(), HashSize: 16, Signer: testSigner(t),
			Variants: set, DictMode: dict})
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	all := build(0, false)
	n, m := all.Index().N, all.Index().M()
	if got := all.BuildStats().Signatures; got != n+4*m+1 {
		t.Fatalf("all four sign %d, want N + 4M + 1 = %d", got, n+4*m+1)
	}
	queries := variantQueries(all.Index())
	kinds := core.AllVariants.Kinds()

	for set := core.VariantSet(1); set <= core.AllVariants; set++ {
		col := build(set, false)
		want := len(set.Kinds())*m + 1
		if set.HasTRA() {
			want += n
		}
		if got := col.BuildStats().Signatures; got != want {
			t.Errorf("%v: %d signatures, want %d", set, got, want)
		}
		sp, full := col.Space(), all.Space()
		for _, c := range []struct {
			what      string
			got, want int64
			built     bool
		}{
			{"plain lists", sp.PlainListBytes, full.PlainListBytes, set.HasMHT()},
			{"TRA chains", sp.ChainTRABytes, full.ChainTRABytes, set.Has(core.KindTRACMHT)},
			{"TNRA chains", sp.ChainTNRABytes, full.ChainTNRABytes, set.Has(core.KindTNRACMHT)},
			{"document records", sp.DocRecordBytes, full.DocRecordBytes, set.HasTRA()},
		} {
			if (c.built && c.got != c.want) || (!c.built && c.got != 0) {
				t.Errorf("%v: %s take %d bytes, want %d when built, 0 when not", set, c.what, c.got, c.want)
			}
		}
		if sp.ContentBytes != full.ContentBytes || sp.TermSigBytes != int64(len(set.Kinds())*m*testSigner(t).Size()) {
			t.Errorf("%v: space %+v", set, sp)
		}
		manifest, _ := col.Manifest()
		wantMask := set // the full set is signed by absence
		if set == core.AllVariants {
			wantMask = 0
		}
		if manifest.Variants != wantMask {
			t.Errorf("%v: manifest variants %#x, want %#x", set, uint8(manifest.Variants), uint8(wantMask))
		}

		// A restored copy serves exactly like the build.
		restored, err := Restore(col.ExportState())
		if err != nil {
			t.Fatalf("%v: restore: %v", set, err)
		}
		for _, kind := range kinds {
			algo, scheme := kindAlgoScheme(kind)
			for _, c := range []*Collection{col, restored} {
				if !set.Has(kind) {
					_, _, _, err := c.Search(queries[0].tokens, queries[0].r, algo, scheme)
					if !errors.Is(err, core.ErrVariantNotBuilt) {
						t.Fatalf("%v: %v search: %v, want ErrVariantNotBuilt", set, kind, err)
					}
					continue
				}
				for _, q := range queries {
					res, voBytes, _, err := c.Search(q.tokens, q.r, algo, scheme)
					if err != nil {
						t.Fatalf("%v: %v %v: %v", set, kind, q.tokens, err)
					}
					wantRes, wantVO, _, err := all.Search(q.tokens, q.r, algo, scheme)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(voBytes, wantVO) || len(res.Entries) != len(wantRes.Entries) {
						t.Fatalf("%v: %v %v: answer differs from the all-four build's", set, kind, q.tokens)
					}
					for i := range res.Entries {
						if res.Entries[i] != wantRes.Entries[i] {
							t.Fatalf("%v: %v %v: hit %d is %+v, all four give %+v", set, kind, q.tokens, i, res.Entries[i], wantRes.Entries[i])
						}
					}
					if _, err := c.VerifyResult(q.tokens, q.r, res, voBytes); err != nil {
						t.Fatalf("%v: %v %v: %v", set, kind, q.tokens, err)
					}
				}
			}
		}
	}

	// TNRA-CMHT in dictionary mode signs the manifest and nothing else —
	// the measurement ROADMAP "Signature-lean proofs" asks for first.
	lean := build(core.VariantOf(core.KindTNRACMHT), true)
	if got := lean.BuildStats().Signatures; got != 1 {
		t.Fatalf("{tnra-cmht} + dictionary mode signs %d messages, want 1", got)
	}
	for _, q := range queries {
		res, voBytes, _, err := lean.Search(q.tokens, q.r, core.AlgoTNRA, core.SchemeCMHT)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lean.VerifyResult(q.tokens, q.r, res, voBytes); err != nil {
			t.Fatalf("%v: %v", q.tokens, err)
		}
	}
	t.Logf("N=%d M=%d: all four sign %d, {tnra-cmht} %d, {tnra-cmht}+dict %d",
		n, m, all.BuildStats().Signatures, m+1, lean.BuildStats().Signatures)
}

// kindAlgoScheme inverts core.KindFor.
func kindAlgoScheme(kind core.StructureKind) (core.Algo, core.Scheme) {
	algo, scheme := core.AlgoTNRA, core.SchemeCMHT
	if kind == core.KindTRAMHT || kind == core.KindTRACMHT {
		algo = core.AlgoTRA
	}
	if kind == core.KindTRAMHT || kind == core.KindTNRAMHT {
		scheme = core.SchemeMHT
	}
	return algo, scheme
}

// A State whose tables disagree with the signed variant set — one present for
// a kind that was not built, or absent for one that was — is refused by
// Restore with an ordinary error, never served (and never a panic).
func TestRestoreChecksTablesAgainstVariantSet(t *testing.T) {
	docs := randomDocs(rand.New(rand.NewSource(47)), 30, 25)
	tnra, err := BuildCollection(docs, Config{Store: smallParams(), HashSize: 16, Signer: testSigner(t),
		Variants: core.VariantOf(core.KindTNRACMHT)})
	if err != nil {
		t.Fatal(err)
	}
	full := buildTestCollection(t, 47, 30, 25, nil).ExportState()
	for _, c := range []struct {
		name   string
		mutate func(*State)
	}{
		{"plain table for an unbuilt MHT kind", func(st *State) { st.Layout.Plain = full.Layout.Plain }},
		{"TRA chain table for an unbuilt kind", func(st *State) { st.Layout.ChainTRA = full.Layout.ChainTRA }},
		{"document records without a TRA kind", func(st *State) { st.Layout.Doc = full.Layout.Doc }},
		{"built TNRA chain table missing", func(st *State) { st.Layout.ChainTNRA = nil }},
		{"term roots for an unbuilt kind", func(st *State) { st.TermRoots[0] = full.TermRoots[0] }},
		{"signatures for an unbuilt kind", func(st *State) { st.TermSigs[2] = full.TermSigs[2] }},
		{"built kind's roots missing", func(st *State) { st.TermRoots[3] = nil }},
		{"built kind's signatures missing", func(st *State) { st.TermSigs[3] = nil }},
		{"manifest widened to all four", func(st *State) {
			m := *st.Manifest
			m.Variants = 0
			st.Manifest = &m
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := tnra.ExportState()
			c.mutate(st)
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic: %v", p)
				}
			}()
			if _, err := Restore(st); err == nil || core.CodeOf(err) != core.VerifyOK {
				t.Fatalf("restore: %v, want a plain error", err)
			}
		})
	}
	// The full set's tables go missing the same way.
	st := buildTestCollection(t, 47, 30, 25, nil).ExportState()
	st.Layout.Plain = nil
	if _, err := Restore(st); err == nil {
		t.Fatal("an all-four state without plain lists restored")
	}
}
