package index

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"authtext/internal/okapi"
)

// figure1Docs reconstructs a small corpus in the spirit of Fig 1 (the classic
// Zobel–Moffat "night keeper" example documents).
func figure1Docs() []Document {
	texts := []string{
		"The old night keeper keeps the keep in the night",
		"In the big old house in the big old gown",
		"The house in the town had the big old keep",
		"Where the old night keeper never did sleep",
		"The night keeper keeps the keep in the night",
		"And this is the big old sleeps dark light house keeps",
		"in x y",
		"in z w",
	}
	docs := make([]Document, len(texts))
	for i, tx := range texts {
		docs[i] = Document{Content: []byte(tx)}
	}
	return docs
}

func TestBuildBasics(t *testing.T) {
	idx, err := Build(figure1Docs(), Options{Okapi: okapi.DefaultParams(), RemoveSingletons: false})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Validate(); err != nil {
		t.Fatal(err)
	}
	if idx.N != 8 {
		t.Fatalf("N = %d, want 8", idx.N)
	}
	// "keeper" appears in docs 0, 3, 4 → ft = 3.
	tid, ok := idx.Lookup("keeper")
	if !ok {
		t.Fatal("keeper not in dictionary")
	}
	if idx.FT(tid) != 3 {
		t.Fatalf("ft(keeper) = %d, want 3", idx.FT(tid))
	}
	// Stopword "the" must not be indexed.
	if _, ok := idx.Lookup("the"); ok {
		t.Fatal("stopword indexed")
	}
}

func TestSingletonRemoval(t *testing.T) {
	idx, err := Build(figure1Docs(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// "town" appears in exactly one document → removed.
	if _, ok := idx.Lookup("town"); ok {
		t.Fatal("singleton term kept")
	}
	// "keep" appears in 3 documents → kept.
	if _, ok := idx.Lookup("keep"); !ok {
		t.Fatal("non-singleton removed")
	}
}

func TestFrequencyOrdering(t *testing.T) {
	idx, err := Build(figure1Docs(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for tid := range idx.Lists {
		l := idx.Lists[tid]
		for j := 1; j < len(l); j++ {
			if l[j-1].W < l[j].W {
				t.Fatalf("list %q out of order", idx.Name(TermID(tid)))
			}
		}
	}
}

func TestDocVectorSortedAndConsistentWithLists(t *testing.T) {
	idx, err := Build(figure1Docs(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < idx.N; d++ {
		vec := idx.DocVector(DocID(d))
		for j := 1; j < len(vec); j++ {
			if vec[j-1].Term >= vec[j].Term {
				t.Fatalf("doc %d vector unsorted", d)
			}
		}
		// Every vector entry appears in the corresponding list with the
		// same weight, and vice versa.
		for _, tf := range vec {
			found := false
			for _, p := range idx.List(tf.Term) {
				if p.Doc == DocID(d) {
					if p.W != tf.W {
						t.Fatalf("doc %d term %d: list W %v != vector W %v", d, tf.Term, p.W, tf.W)
					}
					found = true
				}
			}
			if !found {
				t.Fatalf("doc %d term %d in vector but not list", d, tf.Term)
			}
		}
	}
	total := 0
	for _, l := range idx.Lists {
		total += len(l)
	}
	vecTotal := 0
	for d := 0; d < idx.N; d++ {
		vecTotal += len(idx.DocVector(DocID(d)))
	}
	if total != vecTotal {
		t.Fatalf("posting count %d != vector entry count %d", total, vecTotal)
	}
}

func TestOkapiWeightsMatchFormula(t *testing.T) {
	idx, err := Build(figure1Docs(), Options{Okapi: okapi.DefaultParams(), RemoveSingletons: false})
	if err != nil {
		t.Fatal(err)
	}
	// doc 0 tokens after stopword removal:
	// old night keeper keeps keep night → length 6, night appears twice.
	if idx.DocLen[0] != 6 {
		t.Fatalf("docLen[0] = %d, want 6", idx.DocLen[0])
	}
	tid, _ := idx.Lookup("night")
	want := float32(idx.Okapi.DocWeight(2, 6, idx.AvgLen))
	var got float32
	for _, p := range idx.List(tid) {
		if p.Doc == 0 {
			got = p.W
		}
	}
	if got != want {
		t.Fatalf("w_{d0,night} = %v, want %v", got, want)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, DefaultOptions()); err == nil {
		t.Fatal("empty collection accepted")
	}
	// All-stopword collection: no terms.
	docs := []Document{{Content: []byte("the of to and")}, {Content: []byte("a an but")}}
	if _, err := Build(docs, DefaultOptions()); err == nil {
		t.Fatal("stopword-only collection accepted")
	}
}

// TestKeepsTermMatchesBuild: KeepsTerm is true exactly when Build keeps a
// dictionary term, with and without singleton removal.
func TestKeepsTermMatchesBuild(t *testing.T) {
	corpora := map[string][]Document{
		"stopwords only":  {{Content: []byte("the of to and")}, {Content: []byte("a an but")}},
		"no shared term":  {{Content: []byte("alpha beta")}, {Content: []byte("gamma delta")}},
		"one shared term": {{Content: []byte("alpha beta")}, {Content: []byte("gamma beta")}},
		"repeat in one":   {{Content: []byte("alpha alpha")}, {Content: []byte("the")}},
		"pre-tokenized":   {{Tokens: []string{"the", "alpha"}}, {Tokens: []string{"alpha"}}},
		"one document":    {{Content: []byte("alpha beta")}},
		"figure 1":        figure1Docs(),
	}
	for name, docs := range corpora {
		for _, removeSingletons := range []bool{false, true} {
			opts := DefaultOptions()
			opts.RemoveSingletons = removeSingletons
			_, err := Build(docs, opts)
			if got := KeepsTerm(docs, removeSingletons); got != (err == nil) {
				t.Errorf("%s, remove singletons %v: KeepsTerm = %v, Build error %v", name, removeSingletons, got, err)
			}
		}
	}
}

func TestPreTokenizedInput(t *testing.T) {
	docs := []Document{
		{Content: []byte("c1"), Tokens: []string{"alpha", "beta", "the"}},
		{Content: []byte("c2"), Tokens: []string{"alpha", "gamma"}},
	}
	idx, err := Build(docs, Options{Okapi: okapi.DefaultParams(), RemoveSingletons: false})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx.Lookup("the"); ok {
		t.Fatal("stopword survived pre-tokenised path")
	}
	tid, ok := idx.Lookup("alpha")
	if !ok || idx.FT(tid) != 2 {
		t.Fatal("alpha not indexed correctly")
	}
}

func TestLookupIsLexicographic(t *testing.T) {
	idx, err := Build(figure1Docs(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(idx.Terms); i++ {
		if idx.Terms[i-1].Name >= idx.Terms[i].Name {
			t.Fatal("dictionary not lexicographically ordered")
		}
	}
}

func TestListLengths(t *testing.T) {
	idx, err := Build(figure1Docs(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lens := idx.ListLengths()
	if len(lens) != idx.M() {
		t.Fatal("ListLengths size mismatch")
	}
	for i, n := range lens {
		if n != len(idx.Lists[i]) {
			t.Fatal("ListLengths value mismatch")
		}
	}
}

// Property: for random synthetic corpora the index validates and f_t equals
// the number of documents containing each term.
func TestBuildInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nDocs := 2 + r.Intn(20)
		vocab := 3 + r.Intn(15)
		docs := make([]Document, nDocs)
		for i := range docs {
			ln := 1 + r.Intn(30)
			toks := make([]string, ln)
			for j := range toks {
				toks[j] = fmt.Sprintf("w%02d", r.Intn(vocab))
			}
			docs[i] = Document{Content: []byte(fmt.Sprint(toks)), Tokens: toks}
		}
		idx, err := Build(docs, Options{Okapi: okapi.DefaultParams(), RemoveSingletons: r.Intn(2) == 0})
		if err != nil {
			// Possible when every term is a singleton and removal is on.
			return true
		}
		if idx.Validate() != nil {
			return false
		}
		// Cross-check ft against a recount.
		for tid := range idx.Terms {
			count := 0
			for d := 0; d < idx.N; d++ {
				for _, tf := range idx.DocVector(DocID(d)) {
					if tf.Term == TermID(tid) {
						count++
					}
				}
			}
			if count != idx.FT(TermID(tid)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
