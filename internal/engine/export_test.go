package engine

import (
	"slices"

	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/vo"
)

// A TRA lie, as the paper's §1 adversary tells it: a server that runs the
// algorithm, stops early or leaves a document out, and then proves what it
// reveals with valid proofs. Structural checks — roots, the dictionary and
// document-root multiproofs, contents — all pass, so only a completeness
// check can refuse the answer.
type traLie struct {
	// pops stops the pop sequence after this many pops; < 0 runs it to
	// TRA's own termination.
	pops int
	// omitR leaves the r-th ranked document out and promotes the (r+1)-th.
	omitR bool
}

// lieTRA answers tokens the way lie says: the real TRA pop sequence (the
// rule of core.TRAWithBoost: pop the entry of highest term score, ties to
// the lowest query-term position, until the r-th score reaches the
// threshold), cut short if asked, then the top r of every document the
// prefixes reveal, proved by the engine's own assemblers at cap depth 0.
// Without a lie on a collection with no tombstones and no boost, that is
// Search's answer, byte for byte, barring ties with an unpopped head.
func (c *Collection) lieTRA(tokens []string, r int, scheme core.Scheme, lie traLie) (*Result, []byte, error) {
	q, err := core.BuildQuery(c.idx, tokens)
	if err != nil {
		return nil, nil, err
	}
	sess := c.dev.NewSession()
	chain := scheme == core.SchemeCMHT
	exts := c.layout.Plain
	if chain {
		exts = c.layout.ChainTRA
	}
	src := &recordingSource{open: func(t index.TermID) (*listCursor, error) {
		return newListCursor(sess, exts[t], c.idx.FT(t), chain, c.cfg.Store.BlockSize, c.cfg.HashSize), nil
	}}
	for _, qt := range q.Terms {
		if _, err := src.OpenList(qt.ID); err != nil {
			return nil, nil, err
		}
	}
	docs := newDocSource(c, sess)
	score := func(d index.DocID) (float64, error) {
		vec, err := docs.DocVector(d)
		if err != nil {
			return 0, err
		}
		return core.Score(q, core.QueryWeights(q, vec)), nil
	}
	ranked := func(ds []index.DocID) ([]core.ResultEntry, error) {
		out := make([]core.ResultEntry, 0, len(ds))
		for _, d := range ds {
			s, err := score(d)
			if err != nil {
				return nil, err
			}
			out = append(out, core.ResultEntry{Doc: d, Score: s})
		}
		slices.SortFunc(out, func(a, b core.ResultEntry) int {
			if a.Score != b.Score {
				if a.Score > b.Score {
					return -1
				}
				return 1
			}
			return int(a.Doc) - int(b.Doc)
		})
		return out, nil
	}

	var popped []index.DocID
	seen := map[index.DocID]bool{}
	for n := 0; lie.pops < 0 || n < lie.pops; n++ {
		var thres float64
		best, bestC := -1, 0.0
		for i, cur := range src.cursors {
			p, ok := cur.Peek()
			if !ok {
				continue
			}
			ts := q.Terms[i].WQ * float64(p.W)
			thres += ts
			if best == -1 || ts > bestC {
				best, bestC = i, ts
			}
		}
		top, err := ranked(popped)
		if err != nil {
			return nil, nil, err
		}
		if best == -1 || len(top) >= r && top[r-1].Score >= thres {
			break
		}
		entry, _ := src.cursors[best].Peek()
		src.cursors[best].Advance()
		if !seen[entry.Doc] {
			seen[entry.Doc] = true
			popped = append(popped, entry.Doc)
		}
	}

	out := &core.TRAOutcome{KScore: make([]int, len(q.Terms))}
	seen = map[index.DocID]bool{}
	for i, cur := range src.cursors {
		k := cur.Consumed()
		if _, ok := cur.Peek(); ok {
			k++ // the cut-off head is revealed too
		}
		out.KScore[i] = k
		for _, p := range cur.Prefix(k) {
			if !seen[p.Doc] {
				seen[p.Doc] = true
				out.Encountered = append(out.Encountered, p.Doc)
			}
		}
	}
	slices.Sort(out.Encountered)
	all, err := ranked(out.Encountered)
	if err != nil {
		return nil, nil, err
	}
	out.Result = all[:min(r, len(all))]
	if lie.omitR && len(all) > r {
		out.Result = append(slices.Clone(all[:r-1]), all[r])
	}

	kind := core.KindFor(core.AlgoTRA, scheme)
	v := &vo.VO{Algo: uint8(core.AlgoTRA), Scheme: uint8(scheme), Generation: c.manifest.Generation}
	if err := c.assembleTermProofs(v, q, src.cursors, out.KScore, kind, scheme); err != nil {
		return nil, nil, err
	}
	if err := c.assembleDocProofs(v, q, docs, out, scheme, 0); err != nil {
		return nil, nil, err
	}
	if c.cfg.DictMode {
		if err := c.assembleDictProof(v, q, kind, 0); err != nil {
			return nil, nil, err
		}
	}
	res := &Result{Entries: out.Result, Contents: map[index.DocID][]byte{}}
	for _, e := range out.Result {
		res.Contents[e.Doc] = c.idx.Content[e.Doc]
	}
	encoded, _, err := vo.Encode(v, c.cfg.HashSize)
	return res, encoded, err
}
