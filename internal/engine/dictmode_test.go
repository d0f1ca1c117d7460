package engine

import (
	"bytes"
	"strings"
	"testing"

	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/mht"
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

// TestDictModeDocRootTree: a dictionary-mode build of a TRA kind signs the
// manifest alone. Its document records hold their document-MHT roots, the
// manifest commits one tree whose leaf d is the message list mode signs for
// document d, and every TRA answer proves its encountered documents with one
// multiproof over that tree and no signature. A restore rebuilds the tree
// from the records' headers and refuses a record whose root the manifest
// does not commit, with a plain error.
func TestDictModeDocRootTree(t *testing.T) {
	col := buildTestCollection(t, 31, 50, 30, func(c *Config) { c.DictMode = true })
	if got := col.BuildStats().Signatures; got != 1 {
		t.Fatalf("a dictionary-mode build of every variant made %d signatures, want 1", got)
	}
	m, _ := col.Manifest()
	idx := col.Index()
	leaves := make([][]byte, idx.N)
	for d := range leaves {
		vec := idx.DocVector(index.DocID(d))
		root := mht.RootFunc(col.hasher, len(vec), core.TermFreqLeaves(vec))
		leaves[d] = core.DocRootMessage(index.DocID(d), uint32(len(vec)), col.docHash[d], root)
	}
	if !bytes.Equal(mht.Root(col.hasher, leaves), m.DocRootTreeRoot) {
		t.Fatal("the manifest's document-root tree is not the tree over the document-root messages")
	}

	reopened, err := Restore(col.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	tokens := []string{idx.Name(0), idx.Name(1), idx.Name(2)}
	for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
		res, voBytes, _, err := col.Search(tokens, 4, core.AlgoTRA, scheme)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := col.VerifyResult(tokens, 4, res, voBytes); err != nil {
			t.Fatalf("TRA-%v: %v", scheme, err)
		}
		decoded, err := vo.Decode(voBytes)
		if err != nil {
			t.Fatal(err)
		}
		if decoded.DocRootProof == nil || len(decoded.Docs) == 0 {
			t.Fatalf("TRA-%v: %d document proofs and document-root proof %v", scheme, len(decoded.Docs), decoded.DocRootProof)
		}
		for _, dp := range decoded.Docs {
			if len(dp.Sig) != 0 {
				t.Fatalf("TRA-%v: document %d carries a signature", scheme, dp.Doc)
			}
		}
		if _, again, _, err := reopened.Search(tokens, 4, core.AlgoTRA, scheme); err != nil || !bytes.Equal(again, voBytes) {
			t.Fatalf("TRA-%v: the restored collection answers otherwise (%v)", scheme, err)
		}
	}

	st := col.ExportState()
	st.DeviceData = bytes.Clone(st.DeviceData)
	rootAt := int(st.Layout.Doc[7].Off) + 4 + int(m.HashSize) + 2
	st.DeviceData[rootAt] ^= 1
	if _, err := Restore(st); err == nil || !strings.Contains(err.Error(), "document-root") {
		t.Fatalf("a record whose root the manifest does not commit: restore returned %v", err)
	}
}
