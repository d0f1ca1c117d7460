package core

import (
	"sort"

	"authtext/internal/index"
)

// TraceEvent reports one iteration of a threshold algorithm, mirroring the
// trace tables of Figs 6 and 11. Thres is the threshold *before* the pop.
type TraceEvent struct {
	Iter       int
	Thres      float64
	Term       int // query-term position popped from; -1 on termination
	Entry      index.Posting
	Terminated bool
}

// TRAOutcome is everything the engine needs to assemble a TRA verification
// object: the result, the per-list revealed prefixes, and the set of
// encountered documents whose frequency vectors must be proven.
type TRAOutcome struct {
	// Result holds the top-r entries in canonical order, with canonical
	// scores.
	Result []ResultEntry
	// KScore[i] is the revealed prefix length of term i's list: every popped
	// entry plus the cut-off head entry (the entry whose term score
	// constitutes the threshold at termination). KScore[i] == Len when the
	// list was exhausted.
	KScore []int
	// Exhausted[i] reports whether list i was fully consumed.
	Exhausted []bool
	// Encountered lists, in ascending order, every document at a position
	// < KScore[i] in any list: the popped documents plus the cut-off heads.
	// All of them need document-MHT proofs in the VO (§3.3).
	Encountered []index.DocID
	// Scores maps every *popped* document to its canonical score. Cut-off
	// heads that were never popped are present in Encountered but absent
	// here (their scores are bounded by the threshold).
	Scores map[index.DocID]float64
	// Thres is the canonical termination threshold Σ w_{Q,ti}·f(head_i).
	Thres float64
	// Iterations counts pop operations.
	Iterations int
	// RandomAccesses counts document-vector fetches during processing.
	RandomAccesses int
}

// TRA runs Threshold with Random Access (Fig 5) for the top r documents.
// Unlike the classic TA of Fagin et al., which advances all lists in
// lockstep, this adaptation always pops the entry with the globally highest
// term score c_i = w_{Q,ti}·L_i.f — essential when some lists are orders of
// magnitude longer than others (§3.3).
func TRA(q *Query, lists ListSource, docs DocVectorSource, r int, trace func(TraceEvent)) (*TRAOutcome, error) {
	return TRAWithBoost(q, lists, docs, r, nil, nil, trace)
}

// TRAWithBoost is TRA with the §5 authority-boost extension: document
// scores gain β·A(d) and the termination threshold widens by β·A_max so
// that unseen matching documents remain bounded.
//
// dead (optional) marks tombstoned document slots of a live collection:
// their postings are still revealed (they are part of the signed lists)
// but they are never scored and never enter the result. The verifier
// replays the identical rule from the signed manifest's bitmap, so owner
// and client agree on the skip deterministically. A dead head entry still
// contributes to the termination threshold — the bound stays a valid
// upper bound for unrevealed live documents, merely a conservative one.
func TRAWithBoost(q *Query, lists ListSource, docs DocVectorSource, r int, boost *Boost, dead func(index.DocID) bool, trace func(TraceEvent)) (*TRAOutcome, error) {
	nq := len(q.Terms)
	if nq == 0 {
		return nil, ErrNoQueryTerms
	}
	cursors := make([]Cursor, nq)
	for i := range q.Terms {
		cur, err := lists.OpenList(q.Terms[i].ID)
		if err != nil {
			return nil, err
		}
		cursors[i] = cur
	}

	out := &TRAOutcome{
		KScore:    make([]int, nq),
		Exhausted: make([]bool, nq),
		Scores:    make(map[index.DocID]float64),
	}
	popped := make(map[index.DocID]struct{})
	weights := make([]float32, nq)
	var result []ResultEntry // sorted by resultLess

	thres := func() float64 {
		var t float64
		for i := range q.Terms {
			if p, ok := cursors[i].Peek(); ok {
				t += q.Terms[i].WQ * float64(p.W)
			}
		}
		return t
	}

	for {
		th := thres() + boost.Max()
		if len(result) >= r && result[r-1].Score >= th {
			out.Thres = th
			if trace != nil {
				trace(TraceEvent{Iter: out.Iterations + 1, Thres: th, Term: -1, Terminated: true})
			}
			break
		}
		// Pick the list with the highest current term score; ties break to
		// the lowest query-term position (a deterministic instance of
		// "breaking ties arbitrarily").
		best, bestC := -1, 0.0
		for i := range q.Terms {
			p, ok := cursors[i].Peek()
			if !ok {
				continue
			}
			c := q.Terms[i].WQ * float64(p.W)
			if best == -1 || c > bestC {
				best, bestC = i, c
			}
		}
		if best == -1 { // every list exhausted
			out.Thres = 0
			if trace != nil {
				trace(TraceEvent{Iter: out.Iterations + 1, Thres: 0, Term: -1, Terminated: true})
			}
			break
		}
		entry, _ := cursors[best].Peek()
		cursors[best].Advance()
		out.Iterations++
		if trace != nil {
			trace(TraceEvent{Iter: out.Iterations, Thres: th, Term: best, Entry: entry})
		}
		if _, seen := popped[entry.Doc]; !seen {
			popped[entry.Doc] = struct{}{}
			if dead != nil && dead(entry.Doc) {
				continue // tombstoned: revealed but never scored
			}
			vec, err := docs.DocVector(entry.Doc)
			if err != nil {
				return nil, err
			}
			out.RandomAccesses++
			s := Score(q, queryWeightsInto(weights, q, vec)) + boost.Score(entry.Doc)
			out.Scores[entry.Doc] = s
			result = insertResult(result, ResultEntry{Doc: entry.Doc, Score: s})
		}
	}

	for i := range q.Terms {
		k := cursors[i].Consumed()
		if _, ok := cursors[i].Peek(); ok {
			k++ // the cut-off head entry is revealed too
		}
		out.KScore[i] = k
		// A prefix covering the whole list proves that absent documents
		// have frequency 0, whether or not the last entry was popped; the
		// client applies the same rule.
		out.Exhausted[i] = k == cursors[i].Len()
	}
	prefixes := cursorPrefixes(cursors, out.KScore)
	// Canonical threshold: lists whose prefixes cover the whole list
	// contribute 0 (unrevealed documents cannot appear in them at all).
	out.Thres = 0
	for i := range q.Terms {
		if !out.Exhausted[i] {
			k := out.KScore[i]
			out.Thres += q.Terms[i].WQ * float64(prefixes[i][k-1].W)
		}
	}
	out.Encountered = encounteredDocs(prefixes)
	if len(result) > r {
		result = result[:r]
	}
	out.Result = result
	return out, nil
}

// insertResult inserts e into a slice kept sorted by resultLess.
func insertResult(rs []ResultEntry, e ResultEntry) []ResultEntry {
	i := sort.Search(len(rs), func(i int) bool { return !resultLess(rs[i], e) })
	rs = append(rs, ResultEntry{})
	copy(rs[i+1:], rs[i:])
	rs[i] = e
	return rs
}

// cursorPrefixes re-reads the revealed prefixes from cursors that retain
// their consumed entries; for cursors that do not (the in-memory test
// cursor), the prefix is sliced from the backing list.
func cursorPrefixes(cursors []Cursor, k []int) [][]index.Posting {
	out := make([][]index.Posting, len(cursors))
	for i, c := range cursors {
		out[i] = CursorPrefix(c, k[i])
	}
	return out
}

// PrefixReader is implemented by cursors that can return the first k
// entries they have read (the engine's store-backed cursor retains them for
// VO construction).
type PrefixReader interface {
	Prefix(k int) []index.Posting
}

// CursorPrefix extracts the first k entries from a cursor.
func CursorPrefix(c Cursor, k int) []index.Posting {
	if pr, ok := c.(PrefixReader); ok {
		return pr.Prefix(k)
	}
	if mc, ok := c.(*memCursor); ok {
		return mc.list[:k]
	}
	panic("core: cursor cannot expose prefixes")
}

// encounteredDocs returns the sorted union of doc ids in the prefixes.
func encounteredDocs(prefixes [][]index.Posting) []index.DocID {
	seen := make(map[index.DocID]struct{})
	var out []index.DocID
	for _, pre := range prefixes {
		for _, p := range pre {
			if _, ok := seen[p.Doc]; !ok {
				seen[p.Doc] = struct{}{}
				out = append(out, p.Doc)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
