// Package index implements the frequency-ordered inverted index of §2.1
// (Fig 1): a dictionary mapping each term t to its document count f_t, plus
// an inverted list of ⟨d, w_{d,t}⟩ impact entries sorted by non-increasing
// frequency. It also retains the per-document term vectors (the leaves of
// the document-MHTs of §3.3.1) and raw content (whose digest is committed
// in each document-MHT root).
package index

import (
	"errors"
	"fmt"
	"sort"

	"authtext/internal/okapi"
	"authtext/internal/textproc"
)

// DocID identifies a document; ids are assigned densely from 0 in input
// order.
type DocID uint32

// TermID identifies a dictionary term; ids are assigned densely from 0 in
// lexicographic term order, so the dictionary order is canonical for a
// given corpus.
type TermID uint32

// Posting is one impact entry ⟨d, w_{d,t}⟩ of an inverted list. The weight
// is stored as float32 (4 bytes, per Table 1's entry sizes); all scoring is
// performed in float64 over these rounded values, identically on the owner,
// server and client sides.
type Posting struct {
	Doc DocID
	W   float32
}

// TermFreq is one leaf of a document's term vector: ⟨t, w_{d,t}⟩.
type TermFreq struct {
	Term TermID
	W    float32
}

// TermMeta is the dictionary entry for a term.
type TermMeta struct {
	Name string
	FT   uint32 // number of documents containing the term
}

// Document is the builder input: raw content plus (optionally) a
// pre-tokenised term stream. When Tokens is nil the content is run through
// the textproc pipeline.
type Document struct {
	Content []byte
	Tokens  []string
}

// Options configures index construction.
type Options struct {
	Okapi okapi.Params
	// RemoveSingletons drops terms that appear in only one document, the
	// standard indexing step of §4.1.
	RemoveSingletons bool
	// FixedAvgLen, when non-zero, overrides the computed average document
	// length W_A in every w_{d,t} impact weight. Live collections pin it
	// at their first generation so that an update leaves the weights —
	// and therefore the signable list structures — of untouched documents
	// byte-identical (docs/UPDATES.md); scoring stays consistent because
	// owner, server and client all take W_A from the signed manifest.
	FixedAvgLen float64
}

// DefaultOptions mirrors the paper's setup.
func DefaultOptions() Options {
	return Options{Okapi: okapi.DefaultParams(), RemoveSingletons: true}
}

// Index is the in-memory inverted index. The dictionary (Terms, byName) is
// the component that §4.1 pins in memory; Lists and DocTerms model the
// on-disk structures and are serialised onto the simulated device by the
// engine.
type Index struct {
	N       int     // number of documents
	AvgLen  float64 // W_A, average document length
	Okapi   okapi.Params
	Terms   []TermMeta // indexed by TermID
	Lists   [][]Posting
	DocTerm [][]TermFreq // per-document term vector, sorted by TermID
	DocLen  []uint32     // W_d per document
	Content [][]byte     // raw document content

	byName map[string]TermID
}

// documentTerms is d's post-pipeline term stream, the one Build indexes.
func documentTerms(d Document) []string {
	if d.Tokens == nil {
		return textproc.Terms(string(d.Content))
	}
	return textproc.RemoveStopwords(d.Tokens)
}

// KeepsTerm reports whether Build keeps at least one dictionary term for
// docs — without one it refuses them: some document has a term and, when
// singletons are removed, some term occurs in two documents.
func KeepsTerm(docs []Document, removeSingletons bool) bool {
	firstDoc := make(map[string]int)
	for i, d := range docs {
		for _, t := range documentTerms(d) {
			if !removeSingletons {
				return true
			}
			if first, ok := firstDoc[t]; !ok {
				firstDoc[t] = i
			} else if first != i {
				return true
			}
		}
	}
	return false
}

// Build constructs the index from the documents.
func Build(docs []Document, opts Options) (*Index, error) {
	if len(docs) == 0 {
		return nil, errors.New("index: empty collection")
	}
	if opts.Okapi.K1 == 0 && opts.Okapi.B == 0 {
		opts.Okapi = okapi.DefaultParams()
	}

	n := len(docs)
	docTokens := make([][]string, n)
	docLen := make([]uint32, n)
	var totalLen int64
	for i, d := range docs {
		toks := documentTerms(d)
		docTokens[i] = toks
		docLen[i] = uint32(len(toks))
		totalLen += int64(len(toks))
	}
	avgLen := float64(totalLen) / float64(n)
	if avgLen == 0 {
		return nil, errors.New("index: collection has no indexable terms")
	}
	if opts.FixedAvgLen < 0 {
		return nil, fmt.Errorf("index: negative fixed average length %v", opts.FixedAvgLen)
	}
	if opts.FixedAvgLen > 0 {
		avgLen = opts.FixedAvgLen
	}

	// First pass: document frequencies.
	df := make(map[string]uint32)
	for _, toks := range docTokens {
		seen := make(map[string]struct{}, len(toks))
		for _, t := range toks {
			if _, ok := seen[t]; !ok {
				seen[t] = struct{}{}
				df[t]++
			}
		}
	}

	// Dictionary: drop singletons if requested, sort lexicographically.
	names := make([]string, 0, len(df))
	for t, c := range df {
		if opts.RemoveSingletons && c < 2 {
			continue
		}
		names = append(names, t)
	}
	if len(names) == 0 {
		return nil, errors.New("index: no terms survive dictionary construction")
	}
	sort.Strings(names)

	idx := &Index{
		N:       n,
		AvgLen:  avgLen,
		Okapi:   opts.Okapi,
		Terms:   make([]TermMeta, len(names)),
		Lists:   make([][]Posting, len(names)),
		DocTerm: make([][]TermFreq, n),
		DocLen:  docLen,
		Content: make([][]byte, n),
		byName:  make(map[string]TermID, len(names)),
	}
	for i, name := range names {
		idx.Terms[i] = TermMeta{Name: name, FT: df[name]}
		idx.byName[name] = TermID(i)
	}
	for i, d := range docs {
		idx.Content[i] = d.Content
	}

	// Second pass: per-document weights, postings, document vectors.
	for i, toks := range docTokens {
		counts := textproc.Counts(toks)
		vec := make([]TermFreq, 0, len(counts))
		for name, fdt := range counts {
			tid, ok := idx.byName[name]
			if !ok {
				continue // removed singleton
			}
			w := float32(opts.Okapi.DocWeight(fdt, float64(docLen[i]), avgLen))
			vec = append(vec, TermFreq{Term: tid, W: w})
			idx.Lists[tid] = append(idx.Lists[tid], Posting{Doc: DocID(i), W: w})
		}
		sort.Slice(vec, func(a, b int) bool { return vec[a].Term < vec[b].Term })
		idx.DocTerm[i] = vec
	}

	// Frequency-order every list: non-increasing w, ties by ascending doc
	// (a deterministic instance of "breaking ties arbitrarily").
	for tid := range idx.Lists {
		l := idx.Lists[tid]
		sort.Slice(l, func(a, b int) bool {
			if l[a].W != l[b].W {
				return l[a].W > l[b].W
			}
			return l[a].Doc < l[b].Doc
		})
		if int(idx.Terms[tid].FT) != len(l) {
			return nil, fmt.Errorf("index: term %q ft=%d but list has %d entries",
				idx.Terms[tid].Name, idx.Terms[tid].FT, len(l))
		}
	}
	return idx, nil
}

// Lookup returns the TermID for a term name.
func (x *Index) Lookup(name string) (TermID, bool) {
	id, ok := x.byName[name]
	return id, ok
}

// M returns the dictionary size (number of terms).
func (x *Index) M() int { return len(x.Terms) }

// List returns the inverted list for a term.
func (x *Index) List(t TermID) []Posting { return x.Lists[t] }

// FT returns the document count of a term.
func (x *Index) FT(t TermID) int { return int(x.Terms[t].FT) }

// Name returns the term string of a TermID.
func (x *Index) Name(t TermID) string { return x.Terms[t].Name }

// DocVector returns the ⟨term, weight⟩ leaves for a document, sorted by
// TermID.
func (x *Index) DocVector(d DocID) []TermFreq { return x.DocTerm[d] }

// ListLengths returns the lengths of all inverted lists (the raw data of
// Fig 4).
func (x *Index) ListLengths() []int {
	out := make([]int, len(x.Lists))
	for i, l := range x.Lists {
		out[i] = len(l)
	}
	return out
}

// Validate checks the structural invariants of the index. It is used by
// tests and by the owner before publication.
func (x *Index) Validate() error {
	if x.N != len(x.DocTerm) || x.N != len(x.DocLen) || x.N != len(x.Content) {
		return errors.New("index: document array length mismatch")
	}
	if len(x.Terms) != len(x.Lists) {
		return errors.New("index: dictionary/list length mismatch")
	}
	for tid, l := range x.Lists {
		if len(l) == 0 {
			return fmt.Errorf("index: term %d has empty list", tid)
		}
		if len(l) != int(x.Terms[tid].FT) {
			return fmt.Errorf("index: term %d ft mismatch", tid)
		}
		for j := range l {
			if j > 0 && l[j-1].W < l[j].W {
				return fmt.Errorf("index: list %d not frequency-ordered at %d", tid, j)
			}
			if int(l[j].Doc) >= x.N {
				return fmt.Errorf("index: list %d references unknown doc %d", tid, l[j].Doc)
			}
			if l[j].W <= 0 {
				return fmt.Errorf("index: list %d has non-positive weight at %d", tid, j)
			}
		}
	}
	for d, vec := range x.DocTerm {
		for j := range vec {
			if j > 0 && vec[j-1].Term >= vec[j].Term {
				return fmt.Errorf("index: doc %d vector not strictly term-ordered", d)
			}
		}
	}
	return nil
}
