package core

import (
	"container/heap"
	"sort"

	"authtext/internal/index"
)

// DocBounds carries the score bounds of §3.4: SLB assumes 0 for unseen
// query-term frequencies, SUB assumes the latest frequency read from the
// corresponding list.
type DocBounds struct {
	SLB float64
	SUB float64
}

// TNRAOutcome is the TNRA analogue of TRAOutcome. TNRA needs no document
// proofs: the revealed ⟨d, f⟩ prefixes alone determine the bounds.
type TNRAOutcome struct {
	Result     []ResultEntry
	KScore     []int
	Exhausted  []bool
	Bounds     map[index.DocID]DocBounds // canonical final bounds of all revealed docs
	Thres      float64
	Iterations int
}

// TNRAEval is the canonical evaluation of a set of revealed prefixes: the
// same computation performed by the server to finalise its answer and by
// the client to verify it (docs/ARCHITECTURE.md, "Departures from the
// paper").
type TNRAEval struct {
	Bounds map[index.DocID]DocBounds
	// Order lists every revealed doc by (SLB desc, doc asc).
	Order  []index.DocID
	Result []ResultEntry // first min(r, len(Order)) entries with SLB scores
	Thres  float64
	// OK reports whether the three termination conditions of Fig 10 hold.
	OK bool
}

// EvalTNRA computes canonical TNRA bounds over the revealed prefixes.
// prefixes[i] holds the first KScore[i] entries of term i's list (popped
// entries plus the cut-off head); exhausted[i] is true when the prefix is
// the whole list. Frequencies of a document in lists where it was not
// revealed are bounded by the last revealed frequency (0 if exhausted).
func EvalTNRA(q *Query, prefixes [][]index.Posting, exhausted []bool, r int) *TNRAEval {
	return EvalTNRAWithBoost(q, prefixes, exhausted, r, nil, nil)
}

// EvalTNRAWithBoost is EvalTNRA under the §5 authority-boost extension:
// every candidate's bounds gain β·A(d), and the unseen-document bound in
// termination condition 3 widens by β·A_max.
//
// dead (optional) marks tombstoned document slots of a live collection:
// their revealed postings never become candidates, so they cannot enter
// the result or the termination ordering. Their frequencies still set the
// per-list bounds (they sit inside the signed, frequency-ordered lists),
// which keeps every bound a valid — merely conservative — cap on live
// documents.
func EvalTNRAWithBoost(q *Query, prefixes [][]index.Posting, exhausted []bool, r int, boost *Boost, dead func(index.DocID) bool) *TNRAEval {
	nq := len(q.Terms)
	type cand struct {
		w    []float32
		mask uint64
	}
	cands := make(map[index.DocID]*cand)
	bound := make([]float64, nq)
	for i := 0; i < nq; i++ {
		if exhausted[i] || len(prefixes[i]) == 0 {
			bound[i] = 0
		} else {
			bound[i] = float64(prefixes[i][len(prefixes[i])-1].W)
		}
		for _, p := range prefixes[i] {
			if dead != nil && dead(p.Doc) {
				continue // tombstoned: revealed but never a candidate
			}
			c := cands[p.Doc]
			if c == nil {
				c = &cand{w: make([]float32, nq)}
				cands[p.Doc] = c
			}
			c.w[i] = p.W
			c.mask |= 1 << uint(i)
		}
	}

	ev := &TNRAEval{Bounds: make(map[index.DocID]DocBounds, len(cands))}
	for i := 0; i < nq; i++ {
		ev.Thres += q.Terms[i].WQ * bound[i]
	}
	for d, c := range cands {
		var slb, sub float64
		for i := 0; i < nq; i++ {
			if c.mask&(1<<uint(i)) != 0 {
				v := q.Terms[i].WQ * float64(c.w[i])
				slb += v
				sub += v
			} else {
				sub += q.Terms[i].WQ * bound[i]
			}
		}
		bs := boost.Score(d)
		slb += bs
		sub += bs
		ev.Bounds[d] = DocBounds{SLB: slb, SUB: sub}
		ev.Order = append(ev.Order, d)
	}
	sort.Slice(ev.Order, func(a, b int) bool {
		da, db := ev.Order[a], ev.Order[b]
		ba, bb := ev.Bounds[da], ev.Bounds[db]
		if ba.SLB != bb.SLB {
			return ba.SLB > bb.SLB
		}
		return da < db
	})

	top := r
	if top > len(ev.Order) {
		top = len(ev.Order)
	}
	for _, d := range ev.Order[:top] {
		ev.Result = append(ev.Result, ResultEntry{Doc: d, Score: ev.Bounds[d].SLB})
	}

	// Termination conditions (Fig 10, step 4a), canonically evaluated.
	if len(ev.Order) < r {
		// Fewer candidates than requested: legitimate only when every list
		// has been fully consumed (nothing else can ever appear).
		ev.OK = allTrue(exhausted) && ev.Thres == 0
		return ev
	}
	slbLast := ev.Bounds[ev.Order[r-1]].SLB
	// Condition 3, boost-widened: unseen matching documents score at most
	// thres + β·A_max. When every list is fully revealed no unseen matching
	// document exists and the bound is vacuous.
	ok := allTrue(exhausted) || ev.Thres+boost.Max() <= slbLast
	if ok { // condition 1: complete ordering within R
		minSLB := ev.Bounds[ev.Order[0]].SLB
		for k := 1; k < r && ok; k++ {
			b := ev.Bounds[ev.Order[k]]
			if b.SUB > minSLB {
				ok = false
			}
			if b.SLB < minSLB {
				minSLB = b.SLB
			}
		}
	}
	if ok { // condition 2: no outsider can overtake R.dr
		for _, d := range ev.Order[r:] {
			if ev.Bounds[d].SUB > slbLast {
				ok = false
				break
			}
		}
	}
	ev.OK = ok
	return ev
}

func allTrue(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Incremental TNRA

type tnraCand struct {
	doc    index.DocID
	w      []float32
	mask   uint64
	slb    float64
	inTopR bool
}

type subEntry struct {
	doc index.DocID
	key float64
}

// subHeap is a max-heap of (doc, stale SUB upper bound).
type subHeap []subEntry

func (h subHeap) Len() int            { return len(h) }
func (h subHeap) Less(i, j int) bool  { return h[i].key > h[j].key }
func (h subHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *subHeap) Push(x interface{}) { *h = append(*h, x.(subEntry)) }
func (h *subHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TNRA runs Threshold with No Random Access (Fig 10) for the top r
// documents. Like TRA it favours the list with the highest current term
// score rather than advancing lists in lockstep. Sorted access alone
// determines the result: the algorithm maintains per-document lower/upper
// score bounds and stops once the three termination conditions hold.
//
// Termination is first detected with incrementally maintained bounds (a
// lazy max-heap tracks the best non-result candidate) and then confirmed
// with the canonical EvalTNRA computation, whose outcome — including the
// head entries of each list, which the VO reveals anyway — is what the
// server answers with and what the client recomputes.
func TNRA(q *Query, lists ListSource, r int, trace func(TraceEvent)) (*TNRAOutcome, error) {
	return TNRAWithBoost(q, lists, r, nil, nil, trace)
}

// TNRAWithBoost is TNRA with the §5 authority-boost extension. Authority
// scores are memory-resident (like the dictionary), so the boost costs no
// additional I/O: a candidate's bounds simply include β·A(d) from the
// moment it is first polled. dead (optional) marks tombstoned slots,
// excluded from candidacy exactly as in EvalTNRAWithBoost.
func TNRAWithBoost(q *Query, lists ListSource, r int, boost *Boost, dead func(index.DocID) bool, trace func(TraceEvent)) (*TNRAOutcome, error) {
	nq := len(q.Terms)
	if nq == 0 {
		return nil, ErrNoQueryTerms
	}
	if r < 1 {
		r = 1
	}
	cursors := make([]Cursor, nq)
	for i := range q.Terms {
		cur, err := lists.OpenList(q.Terms[i].ID)
		if err != nil {
			return nil, err
		}
		cursors[i] = cur
	}

	cands := make(map[index.DocID]*tnraCand)
	topR := make([]index.DocID, 0, r) // sorted by (slb desc, doc asc)
	var others subHeap
	out := &TNRAOutcome{KScore: make([]int, nq), Exhausted: make([]bool, nq)}

	latest := func(i int) float64 {
		if p, ok := cursors[i].Peek(); ok {
			return float64(p.W)
		}
		return 0
	}
	sub := func(c *tnraCand) float64 {
		s := c.slb
		for i := 0; i < nq; i++ {
			if c.mask&(1<<uint(i)) == 0 {
				s += q.Terms[i].WQ * latest(i)
			}
		}
		return s
	}
	thres := func() float64 {
		var t float64
		for i := 0; i < nq; i++ {
			t += q.Terms[i].WQ * latest(i)
		}
		return t
	}
	candLess := func(a, b index.DocID) bool {
		ca, cb := cands[a], cands[b]
		if ca.slb != cb.slb {
			return ca.slb > cb.slb
		}
		return a < b
	}

	finalize := func() *TNRAEval {
		for i := range cursors {
			k := cursors[i].Consumed()
			if _, ok := cursors[i].Peek(); ok {
				k++
			}
			out.KScore[i] = k
			// Same rule as the client: a prefix covering the whole list
			// bounds absent documents by 0.
			out.Exhausted[i] = k == cursors[i].Len()
		}
		return EvalTNRAWithBoost(q, cursorPrefixes(cursors, out.KScore), out.Exhausted, r, boost, dead)
	}

	// incrementalOK is a cheap sufficient check before paying for EvalTNRA.
	incrementalOK := func(th float64) bool {
		if len(topR) < r {
			return false
		}
		slbLast := cands[topR[r-1]].slb
		if th+boost.Max() > slbLast { // condition 3 (boost-widened)
			return false
		}
		// Condition 1 over the maintained top-r.
		minSLB := cands[topR[0]].slb
		for k := 1; k < r; k++ {
			c := cands[topR[k]]
			if sub(c) > minSLB {
				return false
			}
			if c.slb < minSLB {
				minSLB = c.slb
			}
		}
		// Condition 2 via the lazy heap.
		for others.Len() > 0 {
			e := others[0]
			c := cands[e.doc]
			if c.inTopR {
				heap.Pop(&others)
				continue
			}
			cur := sub(c)
			if cur < e.key {
				others[0].key = cur
				heap.Fix(&others, 0)
				continue
			}
			return cur <= slbLast
		}
		return true
	}

	for {
		th := thres()
		if incrementalOK(th) {
			ev := finalize()
			if ev.OK {
				out.Result, out.Bounds, out.Thres = ev.Result, ev.Bounds, ev.Thres
				if trace != nil {
					trace(TraceEvent{Iter: out.Iterations + 1, Thres: th, Term: -1, Terminated: true})
				}
				return out, nil
			}
			// Marginal disagreement between incremental and canonical
			// arithmetic: keep popping (termination is guaranteed at
			// exhaustion).
		}
		best, bestC := -1, 0.0
		for i := 0; i < nq; i++ {
			p, ok := cursors[i].Peek()
			if !ok {
				continue
			}
			c := q.Terms[i].WQ * float64(p.W)
			if best == -1 || c > bestC {
				best, bestC = i, c
			}
		}
		if best == -1 {
			ev := finalize()
			out.Result, out.Bounds, out.Thres = ev.Result, ev.Bounds, ev.Thres
			if trace != nil {
				trace(TraceEvent{Iter: out.Iterations + 1, Thres: 0, Term: -1, Terminated: true})
			}
			return out, nil
		}
		entry, _ := cursors[best].Peek()
		cursors[best].Advance()
		out.Iterations++
		if trace != nil {
			trace(TraceEvent{Iter: out.Iterations, Thres: th, Term: best, Entry: entry})
		}
		if dead != nil && dead(entry.Doc) {
			continue // tombstoned: revealed but never a candidate
		}

		c := cands[entry.Doc]
		if c == nil {
			c = &tnraCand{doc: entry.Doc, w: make([]float32, nq), slb: boost.Score(entry.Doc)}
			cands[entry.Doc] = c
		}
		if c.mask&(1<<uint(best)) == 0 {
			c.mask |= 1 << uint(best)
			c.w[best] = entry.W
			c.slb += q.Terms[best].WQ * float64(entry.W)
		}

		// Maintain the top-r slice.
		if c.inTopR {
			// slb grew: restore sort order around this doc.
			pos := indexOf(topR, entry.Doc)
			for pos > 0 && candLess(topR[pos], topR[pos-1]) {
				topR[pos], topR[pos-1] = topR[pos-1], topR[pos]
				pos--
			}
		} else if len(topR) < r {
			topR = insertSorted(topR, entry.Doc, candLess)
			c.inTopR = true
		} else if candLess(entry.Doc, topR[r-1]) {
			evicted := topR[r-1]
			cands[evicted].inTopR = false
			heap.Push(&others, subEntry{doc: evicted, key: sub(cands[evicted])})
			topR = insertSorted(topR[:r-1], entry.Doc, candLess)
			c.inTopR = true
		} else {
			heap.Push(&others, subEntry{doc: entry.Doc, key: sub(c)})
		}
	}
}

func indexOf(s []index.DocID, d index.DocID) int {
	for i, v := range s {
		if v == d {
			return i
		}
	}
	return -1
}

func insertSorted(s []index.DocID, d index.DocID, less func(a, b index.DocID) bool) []index.DocID {
	i := sort.Search(len(s), func(i int) bool { return !less(s[i], d) })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = d
	return s
}
