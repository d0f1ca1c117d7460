package authtext

import (
	"fmt"
	"strings"
	"testing"
)

// newsDocs is a small realistic corpus used across the facade tests.
func newsDocs() []Document {
	texts := []string{
		"The patent examiner reviewed the search results from the portal",
		"A breached server may return incomplete or tampered search results",
		"Merkle hash trees let anyone verify a subset of signed messages",
		"The inverted index maps every term to the documents containing it",
		"Threshold algorithms stop early once the top results have emerged",
		"Financial and legal users require integrity assurance from paid content services",
		"The patent portal and the patent examiner signed the integrity report",
		"Search engines rank documents by similarity to the query keywords",
		"Signatures generated with the private key verify with the public key",
		"Digest chains authenticate the leading blocks of every inverted list",
		"The examiner compared the portal results against the CD-ROM edition",
		"Verification objects archive into an audit trail for later review",
	}
	docs := make([]Document, len(texts))
	for i, tx := range texts {
		docs[i] = Document{Content: []byte(tx)}
	}
	return docs
}

// buildOwner builds with real RSA-1024 once per test binary.
var ownerFixture *Owner

func owner(t *testing.T) *Owner {
	t.Helper()
	if ownerFixture == nil {
		o, err := NewOwner(newsDocs())
		if err != nil {
			t.Fatal(err)
		}
		ownerFixture = o
	}
	return ownerFixture
}

func TestEndToEndAllCombinations(t *testing.T) {
	o := owner(t)
	server, client := o.Server(), o.Client()
	queries := []string{
		"patent examiner portal",
		"merkle hash trees",
		"search results integrity",
		"inverted index documents",
		"the of and", // stopwords only
	}
	for _, q := range queries {
		for _, algo := range []Algorithm{TRA, TNRA} {
			for _, scheme := range []Scheme{MHT, ChainMHT} {
				res, err := server.Search(q, 3, algo, scheme)
				if err != nil {
					t.Fatalf("%v-%v %q: %v", algo, scheme, q, err)
				}
				if err := client.Verify(q, 3, res); err != nil {
					t.Fatalf("%v-%v %q: verify: %v", algo, scheme, q, err)
				}
				if res.Stats.VOBytes != len(res.VO) {
					t.Fatal("stats VO size mismatch")
				}
			}
		}
	}
}

func TestResultsAreRelevant(t *testing.T) {
	o := owner(t)
	server, client := o.Server(), o.Client()
	res, err := server.Search("patent examiner", 2, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits")
	}
	top := string(res.Hits[0].Content)
	if !strings.Contains(top, "patent") && !strings.Contains(top, "examiner") {
		t.Fatalf("top hit irrelevant: %q", top)
	}
	if err := client.Verify("patent examiner", 2, res); err != nil {
		t.Fatal(err)
	}
	// Scores ordered.
	for i := 1; i < len(res.Hits); i++ {
		if res.Hits[i-1].Score < res.Hits[i].Score {
			t.Fatal("hits out of order")
		}
	}
}

func TestVerifyWrongQueryFails(t *testing.T) {
	o := owner(t)
	server, client := o.Server(), o.Client()
	res, err := server.Search("patent examiner", 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Verify("signatures private key", 3, res); err == nil {
		t.Fatal("result for a different query accepted")
	}
}

func TestNewOwnerValidation(t *testing.T) {
	if _, err := NewOwner(nil); err == nil {
		t.Fatal("empty collection accepted")
	}
}

// TestOptionsApply pins what every owner builds without options: dictionary
// mode with vocabulary proofs, on every constructor and in every manifest, so
// a build of all four variants signs the manifest alone — the document-root
// tree commits the TRA document roots — as a TNRA-CMHT-only build does.
// WithVocabularyProofs changes nothing.
func TestOptionsApply(t *testing.T) {
	docs := newsDocs()
	fast := WithFastSigner([]byte("opt-test"))
	servers := map[string]*Server{"NewOwner": owner(t).Server()}
	sharded, err := NewShardedOwner(docs, 2, fast, WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	servers["NewShardedOwner"] = sharded.Server()
	live, _, err := NewLiveOwner(docs, fast, WithVocabularyProofs())
	if err != nil {
		t.Fatal(err)
	}
	servers["NewLiveOwner"] = live.Server()
	liveSharded, _, err := NewLiveShardedOwner(docs, 2, fast, WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	servers["NewLiveShardedOwner"] = liveSharded.Server()
	for name, srv := range servers {
		for i, col := range srv.v.cols() {
			if m, _ := col.Manifest(); !m.DictMode || !m.VocabProofsEnabled {
				t.Errorf("%s, collection %d: DictMode %v, VocabProofsEnabled %v", name, i, m.DictMode, m.VocabProofsEnabled)
			}
		}
	}

	if _, sigs, _ := owner(t).Stats(); sigs != 1 {
		t.Fatalf("all four variants signed %d messages, want 1", sigs)
	}
	tnra, err := NewOwner(docs, fast, WithVariants(Variant{TNRA, ChainMHT}))
	if err != nil {
		t.Fatal(err)
	}
	if _, sigs, _ := tnra.Stats(); sigs != 1 {
		t.Fatalf("a TNRA-CMHT build signed %d messages, want 1", sigs)
	}
	res, err := tnra.Server().Search("merkle trees", 3, TNRA, ChainMHT)
	if err == nil {
		err = tnra.Client().Verify("merkle trees", 3, res)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsPlausible(t *testing.T) {
	o := owner(t)
	server := o.Server()
	res, err := server.Search("patent examiner portal", 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.QueryTerms == 0 || st.EntriesRead == 0 || st.BlockReads == 0 || st.IOTime <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if st.PctListRead <= 0 || st.PctListRead > 100.01 {
		t.Fatalf("pct list read: %v", st.PctListRead)
	}
}

func TestAlgorithmSchemeStrings(t *testing.T) {
	if fmt.Sprint(TRA, TNRA, MHT, ChainMHT) != "TRA TNRA MHT CMHT" {
		t.Fatalf("got %q", fmt.Sprint(TRA, TNRA, MHT, ChainMHT))
	}
}
