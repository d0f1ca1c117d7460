package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"authtext/internal/core"
	"authtext/internal/vo"
)

// verifyCapped is VerifyResult for a client that holds cap.
func verifyCapped(col *Collection, tokens []string, r int, res *Result, encoded []byte, cap *core.Cap) error {
	decoded, err := vo.Decode(encoded)
	if err != nil {
		return err
	}
	return core.Verify(&core.VerifyInput{
		Manifest: col.manifest, Verifier: col.verifier, Tokens: tokens, R: r,
		Result: res.Entries, Contents: res.Contents, VO: decoded, Cap: cap,
	})
}

// TestSearchCappedVerifies cuts every variant's answers at several depths
// over a collection with every collection-level tree (dictionary mode,
// vocabulary proofs, boost): depth 0 is Search byte for byte, a cut answer
// is no larger and verifies against a verified cap at least as deep, and a
// cut below the cap held — or with no cap — is CodeCapDepth.
func TestSearchCappedVerifies(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	docs := randomDocs(r, 300, 400)
	authority := make([]float64, len(docs))
	for d := range authority {
		authority[d] = r.Float64()
	}
	col, err := BuildCollection(docs, Config{Store: smallParams(), HashSize: 16, Signer: testSigner(t),
		DictMode: true, VocabProofs: true, Authority: authority, Beta: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(core.CapTrees(col.manifest)); got != 8 {
		t.Fatalf("%d capped trees, want 8 (document hashes, four dictionaries, names, authority, document roots)", got)
	}
	caps := map[int]*core.Cap{}
	for _, d := range []int{1, 3, 8} {
		b, err := col.Cap(d)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := col.Cap(d); &again[0] != &b[0] {
			t.Fatal("the cap is not memoised")
		}
		if caps[d], err = core.VerifyCap(col.manifest, b); err != nil {
			t.Fatalf("depth %d: honest cap refused: %v", d, err)
		}
		bad := bytes.Clone(b)
		bad[len(bad)/2] ^= 1
		if _, err := core.VerifyCap(col.manifest, bad); core.CodeOf(err) != core.CodeBadCap {
			t.Fatalf("depth %d: a flipped cap byte gave %v, want %v", d, err, core.CodeBadCap)
		}
		if _, err := core.VerifyCap(col.manifest, b[:len(b)-1]); core.CodeOf(err) != core.CodeBadCap {
			t.Fatalf("depth %d: a short cap gave %v", d, err)
		}
	}
	idx := col.Index()
	queries := [][]string{
		{idx.Name(0), "zz-not-a-term", idx.Name(2)},
		{idx.Name(5), idx.Name(40), idx.Name(77)},
	}
	for _, tokens := range queries {
		for _, v := range allVariants {
			res0, vo0, _, err := col.Search(tokens, 5, v.algo, v.scheme)
			if err != nil {
				t.Fatal(err)
			}
			if _, same, _, _ := col.SearchCapped(tokens, 5, v.algo, v.scheme, 0); !bytes.Equal(same, vo0) {
				t.Fatalf("%v-%v: depth 0 differs from Search", v.algo, v.scheme)
			}
			if err := verifyCapped(col, tokens, 5, res0, vo0, caps[8]); err != nil {
				t.Fatalf("%v-%v: an uncut answer to a client holding a cap: %v", v.algo, v.scheme, err)
			}
			for _, d := range []int{1, 3, 8} {
				res, cut, _, err := col.SearchCapped(tokens, 5, v.algo, v.scheme, d)
				if err != nil {
					t.Fatal(err)
				}
				if len(cut) > len(vo0) || d == 8 && len(cut) >= len(vo0)-16 {
					t.Fatalf("%v-%v depth %d: %d bytes cut, %d uncut", v.algo, v.scheme, d, len(cut), len(vo0))
				}
				for held, cap := range caps {
					err := verifyCapped(col, tokens, 5, res, cut, cap)
					if held >= d && err != nil {
						t.Fatalf("%v-%v depth %d, cap %d: %v", v.algo, v.scheme, d, held, err)
					}
					if held < d && core.CodeOf(err) != core.CodeCapDepth {
						t.Fatalf("%v-%v depth %d, cap %d: %v, want %v", v.algo, v.scheme, d, held, err, core.CodeCapDepth)
					}
				}
				if err := verifyCapped(col, tokens, 5, res, cut, nil); core.CodeOf(err) != core.CodeCapDepth {
					t.Fatalf("%v-%v depth %d, no cap: %v", v.algo, v.scheme, d, err)
				}
			}
		}
	}
	if _, _, _, err := col.SearchCapped(queries[0], 5, core.AlgoTNRA, core.SchemeCMHT, 17); err == nil {
		t.Fatal("a cut at depth 17 was answered")
	}
}

// TestCappedDocRootMismatchNamesTheDocument: a forged result content in a
// cut TRA answer fails as bad-doc-proof naming the forged document, because
// the client narrows the document-root tree mismatch against its cap; the
// uncut answer keeps the unnarrowed detail.
func TestCappedDocRootMismatchNamesTheDocument(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	col, err := BuildCollection(randomDocs(r, 300, 400), Config{Store: smallParams(), HashSize: 16, Signer: testSigner(t),
		DictMode: true, VocabProofs: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := col.Cap(8)
	if err != nil {
		t.Fatal(err)
	}
	cap, err := core.VerifyCap(col.manifest, b)
	if err != nil {
		t.Fatal(err)
	}
	idx := col.Index()
	tokens := []string{idx.Name(5), idx.Name(40), idx.Name(77)}
	for _, d := range []int{8, 0} {
		res, encoded, _, err := col.SearchCapped(tokens, 5, core.AlgoTRA, core.SchemeCMHT, d)
		if err != nil {
			t.Fatal(err)
		}
		top := res.Entries[0].Doc
		res.Contents[top] = append(bytes.Clone(res.Contents[top]), " forged"...)
		err = verifyCapped(col, tokens, 5, res, encoded, cap)
		if core.CodeOf(err) != core.CodeBadDocProof {
			t.Fatalf("depth %d: forged content gave %v, want %v", d, err, core.CodeBadDocProof)
		}
		named := regexp.MustCompile(fmt.Sprintf(`\bdoc %d\b`, top)).MatchString(err.Error())
		if d > 0 && !named {
			t.Fatalf("depth %d: %q does not name the forged doc %d", d, err, top)
		}
		if d == 0 && !strings.Contains(err.Error(), "document-root tree root mismatch") {
			t.Fatalf("uncut: %q, want the root mismatch", err)
		}
	}
}
