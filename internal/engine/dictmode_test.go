package engine

import (
	"testing"

	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/vo"
)

func TestDictModeTamperedRootRejected(t *testing.T) {
	col := buildTestCollection(t, 31, 50, 30, func(c *Config) { c.DictMode = true })
	idx := col.Index()
	tokens := []string{idx.Name(0), idx.Name(1)}
	res, voBytes, _, err := col.Search(tokens, 4, core.AlgoTNRA, core.SchemeCMHT)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := vo.Decode(voBytes)
	if err != nil {
		t.Fatal(err)
	}
	// Forge a revealed frequency: the recomputed term root changes, the
	// dictionary root no longer matches the manifest.
	decoded.Terms[0].Freqs[0] += 1
	if err := col.verifyDecoded(tokens, 4, res, decoded); err == nil {
		t.Fatal("dict-mode frequency forgery accepted")
	} else if core.CodeOf(err) != core.CodeBadTermProof {
		t.Fatalf("wrong code: %v", err)
	}
}

func TestDictModeMissingProofRejected(t *testing.T) {
	col := buildTestCollection(t, 31, 50, 30, func(c *Config) { c.DictMode = true })
	idx := col.Index()
	tokens := []string{idx.Name(0)}
	res, voBytes, _, err := col.Search(tokens, 4, core.AlgoTNRA, core.SchemeMHT)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := vo.Decode(voBytes)
	if err != nil {
		t.Fatal(err)
	}
	decoded.DictProof = nil
	if err := col.verifyDecoded(tokens, 4, res, decoded); err == nil {
		t.Fatal("missing dictionary proof accepted")
	}
}

func TestDictModeWrongMRejected(t *testing.T) {
	col := buildTestCollection(t, 31, 50, 30, func(c *Config) { c.DictMode = true })
	idx := col.Index()
	tokens := []string{idx.Name(0)}
	res, voBytes, _, err := col.Search(tokens, 4, core.AlgoTRA, core.SchemeMHT)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := vo.Decode(voBytes)
	if err != nil {
		t.Fatal(err)
	}
	decoded.DictProof.M++
	if err := col.verifyDecoded(tokens, 4, res, decoded); err == nil {
		t.Fatal("wrong dictionary size accepted")
	}
}

// TestDictModeProofSignatureRejected: the dictionary proof carries no
// signature (the manifest signs the dictionary roots), so bytes a server
// puts there make the VO malformed rather than ride along unchecked.
func TestDictModeProofSignatureRejected(t *testing.T) {
	col := buildTestCollection(t, 31, 50, 30, func(c *Config) { c.DictMode = true })
	tokens := []string{col.Index().Name(0)}
	res, voBytes, _, err := col.Search(tokens, 4, core.AlgoTNRA, core.SchemeCMHT)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := vo.Decode(voBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.verifyDecoded(tokens, 4, res, decoded); err != nil {
		t.Fatalf("honest dictionary-mode answer: %v", err)
	}
	decoded.DictProof.Sig = []byte("unchecked")
	if err := col.verifyDecoded(tokens, 4, res, decoded); core.CodeOf(err) != core.CodeMalformedVO {
		t.Fatalf("dictionary proof with a signature: %v, want %v", err, core.CodeMalformedVO)
	}
}

// TestDictModeTermSubstitutionRejected: a dictionary leaf binds a list root
// to its term, as list mode's signature does. A server answering term a with
// term b's list relabelled as a — or proving b's dictionary leaf once for two
// term proofs, b's own and a copy under a's name — is caught in every
// variant, in dictionary mode as in list mode.
func TestDictModeTermSubstitutionRejected(t *testing.T) {
	for _, mode := range []struct {
		name           string
		dict           bool
		relabel, twice core.VerifyCode
	}{
		{"list", false, core.CodeBadSignature, core.CodeBadSignature},
		{"dictionary", true, core.CodeBadTermProof, core.CodeMalformedVO},
	} {
		col := buildTestCollection(t, 31, 50, 30, func(c *Config) { c.DictMode = mode.dict })
		idx := col.Index()
		a, b := idx.Name(0), idx.Name(1)
		for _, v := range allVariants {
			// b's answer, relabelled: the client asked for a.
			res, voBytes, _, err := col.Search([]string{b}, 4, v.algo, v.scheme)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := vo.Decode(voBytes)
			if err != nil {
				t.Fatal(err)
			}
			decoded.Terms[0].Name = a
			err = col.verifyDecoded([]string{a}, 4, res, decoded)
			if core.CodeOf(err) != mode.relabel {
				t.Fatalf("%s mode %v-%v: %q's list relabelled %q: %v, want %v", mode.name, v.algo, v.scheme, b, a, err, mode.relabel)
			}

			// Both terms asked for; a's proof replaced by b's under a's name,
			// with the dictionary proof of b alone: one leaf proved, two
			// term proofs resting on it.
			bOnly := decoded.DictProof
			res, voBytes, _, err = col.Search([]string{a, b}, 4, v.algo, v.scheme)
			if err != nil {
				t.Fatal(err)
			}
			if decoded, err = vo.Decode(voBytes); err != nil {
				t.Fatal(err)
			}
			ia, ib := 0, 1
			if decoded.Terms[0].Name != a {
				ia, ib = 1, 0
			}
			decoded.Terms[ia] = decoded.Terms[ib]
			decoded.Terms[ia].Name = a
			decoded.DictProof = bOnly
			if err := col.verifyDecoded([]string{a, b}, 4, res, decoded); core.CodeOf(err) != mode.twice {
				t.Fatalf("%s mode %v-%v: %q proved with %q's list beside it: %v, want %v", mode.name, v.algo, v.scheme, a, b, err, mode.twice)
			}
		}
	}
}

func TestDictModeWithVocabProofs(t *testing.T) {
	col := buildTestCollection(t, 33, 50, 30, func(c *Config) {
		c.DictMode = true
		c.VocabProofs = true
	})
	idx := col.Index()
	tokens := []string{idx.Name(0), "zz-out-of-vocab"}
	for _, v := range allVariants {
		res, voBytes, _, err := col.Search(tokens, 4, v.algo, v.scheme)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := col.VerifyResult(tokens, 4, res, voBytes); err != nil {
			t.Fatalf("%v-%v dict+vocab: %v", v.algo, v.scheme, err)
		}
	}
}

// TestChainIOBeatsFullScan asserts the §3.3.2 motivation quantitatively:
// for a query on a long list that the algorithm prunes, TNRA-CMHT's I/O
// must come in well below TNRA-MHT's full-list digest regeneration.
func TestChainIOBeatsFullScan(t *testing.T) {
	col := buildTestCollection(t, 35, 400, 60, nil)
	idx := col.Index()
	// One rare term plus the longest discriminative list: the threshold
	// algorithm stops partway down the long list, so the chain saves I/O.
	longest, rare := -1, -1
	for ti := 0; ti < idx.M(); ti++ {
		ft := idx.FT(index.TermID(ti))
		if ft > idx.N/3 {
			continue
		}
		if longest < 0 || ft > idx.FT(index.TermID(longest)) {
			longest = ti
		}
		if ft <= 4 && rare < 0 {
			rare = ti
		}
	}
	if longest < 0 || rare < 0 {
		t.Skip("fixture lacks suitable terms")
	}
	tokens := []string{idx.Name(index.TermID(rare)), idx.Name(index.TermID(longest))}
	_, _, mht, err := col.Search(tokens, 3, core.AlgoTNRA, core.SchemeMHT)
	if err != nil {
		t.Fatal(err)
	}
	_, _, cmht, err := col.Search(tokens, 3, core.AlgoTNRA, core.SchemeCMHT)
	if err != nil {
		t.Fatal(err)
	}
	// The MHT variant reads every list twice (processing + digest
	// regeneration, no caching); the chain variant reads each block once.
	if cmht.IO.BlockReads*3 > mht.IO.BlockReads*2 {
		t.Fatalf("TNRA-CMHT read %d blocks, TNRA-MHT %d: chain should save ≥ a third",
			cmht.IO.BlockReads, mht.IO.BlockReads)
	}
}
