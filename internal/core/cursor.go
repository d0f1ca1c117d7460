package core

import (
	"fmt"

	"authtext/internal/index"
)

// Cursor iterates an inverted list front to back. Implementations charge
// I/O costs on block boundaries (engine) or are free (tests).
type Cursor interface {
	// Peek returns the next unconsumed entry, or ok=false when exhausted.
	// Fetching the entry (loading its block) happens here, matching the
	// "fetch the next entry in term t's inverted list" steps of Figs 5/10.
	Peek() (p index.Posting, ok bool)
	// Advance consumes the entry returned by Peek.
	Advance()
	// Consumed returns the number of entries advanced past.
	Consumed() int
	// Len returns the total list length l_i (known from the dictionary).
	Len() int
}

// ListSource opens cursors over inverted lists.
type ListSource interface {
	OpenList(t index.TermID) (Cursor, error)
}

// DocVectorSource provides the random accesses of TRA: the full ⟨term,
// weight⟩ vector of a document (physically, the leaves of its document
// record / document-MHT).
type DocVectorSource interface {
	DocVector(d index.DocID) ([]index.TermFreq, error)
}

// QueryWeights extracts the per-query-term weights w_{d,ti} from a document
// vector (0 for absent terms). vec must be sorted by TermID.
func QueryWeights(q *Query, vec []index.TermFreq) []float32 {
	return queryWeightsInto(make([]float32, len(q.Terms)), q, vec)
}

// queryWeightsInto is QueryWeights into w, which holds one weight per query
// term: TRA scores every popped document through the same buffer.
func queryWeightsInto(w []float32, q *Query, vec []index.TermFreq) []float32 {
	for i := range q.Terms {
		w[i] = lookupWeight(vec, q.Terms[i].ID)
	}
	return w
}

func lookupWeight(vec []index.TermFreq, t index.TermID) float32 {
	lo, hi := 0, len(vec)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case vec[mid].Term < t:
			lo = mid + 1
		case vec[mid].Term > t:
			hi = mid
		default:
			return vec[mid].W
		}
	}
	return 0
}

// ---------------------------------------------------------------------------
// In-memory implementations (tests, PSCAN oracle, examples)

// MemSource serves cursors and document vectors straight from an Index.
type MemSource struct {
	Idx *index.Index
}

// OpenList implements ListSource.
func (m *MemSource) OpenList(t index.TermID) (Cursor, error) {
	if int(t) >= m.Idx.M() {
		return nil, fmt.Errorf("core: unknown term id %d", t)
	}
	return &memCursor{list: m.Idx.List(t)}, nil
}

// DocVector implements DocVectorSource.
func (m *MemSource) DocVector(d index.DocID) ([]index.TermFreq, error) {
	if int(d) >= m.Idx.N {
		return nil, fmt.Errorf("core: unknown doc id %d", d)
	}
	return m.Idx.DocVector(d), nil
}

type memCursor struct {
	list []index.Posting
	pos  int
}

func (c *memCursor) Peek() (index.Posting, bool) {
	if c.pos >= len(c.list) {
		return index.Posting{}, false
	}
	return c.list[c.pos], true
}

func (c *memCursor) Advance()      { c.pos++ }
func (c *memCursor) Consumed() int { return c.pos }
func (c *memCursor) Len() int      { return len(c.list) }
