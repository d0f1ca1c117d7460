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
	// dropLast leaves the last ranked document out of the answer, proved
	// like every other encountered document outside it.
	dropLast bool
	// unbound answers with every ranked document but proves the last as if
	// it were outside the answer: its proof carries the committed content
	// digest instead of binding the delivered body.
	unbound bool
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
	if lie.dropLast && len(out.Result) > 0 {
		out.Result = out.Result[:len(out.Result)-1]
	}
	answer := out.Result
	if lie.unbound && len(out.Result) > 0 {
		out.Result = out.Result[:len(out.Result)-1]
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
	res := &Result{Entries: answer, Contents: map[index.DocID][]byte{}}
	for _, e := range answer {
		res.Contents[e.Doc] = c.idx.Content[e.Doc]
	}
	encoded, _, err := vo.Encode(v, c.cfg.HashSize)
	return res, encoded, err
}

// A TNRA lie (Fig 10): a server that stops popping early — every list, or
// one list while the others run on — and answers with what the canonical
// evaluation of the shorter prefixes ranks, proved like an honest answer.
// Only the termination conditions, or the length check, can refuse it.
type tnraLie struct {
	// pops is how many entries the liar pops in all.
	pops int
	// oneList stops popping the list of query term list after at pops;
	// the others run on to pops.
	oneList  bool
	list, at int
	// short leaves the last hit of the evaluation out of the answer.
	short bool
}

// lieTNRA answers tokens the way lie says: the real TNRA pop sequence (the
// rule of core.TNRAWithBoost: pop the entry of highest term score, ties to
// the lowest query-term position), cut short as asked, then core.EvalTNRA's
// result over the prefixes — popped entries plus each cut-off head — proved
// by the engine's own assemblers at cap depth 0. Without a lie, popping as
// many entries as Search does on a collection with no tombstones and no
// boost, that is Search's answer, byte for byte.
func (c *Collection) lieTNRA(tokens []string, r int, scheme core.Scheme, lie tnraLie) (*Result, []byte, error) {
	q, err := core.BuildQuery(c.idx, tokens)
	if err != nil {
		return nil, nil, err
	}
	sess := c.dev.NewSession()
	chain := scheme == core.SchemeCMHT
	exts := c.layout.Plain
	if chain {
		exts = c.layout.ChainTNRA
	}
	src := &recordingSource{open: func(t index.TermID) (*listCursor, error) {
		return newListCursor(sess, exts[t], c.idx.FT(t), chain, c.cfg.Store.BlockSize, c.cfg.HashSize), nil
	}}
	for _, qt := range q.Terms {
		if _, err := src.OpenList(qt.ID); err != nil {
			return nil, nil, err
		}
	}

	for n := 0; n < lie.pops; n++ {
		best, bestC := -1, 0.0
		for i, cur := range src.cursors {
			p, ok := cur.Peek()
			if !ok || lie.oneList && i == lie.list && n >= lie.at {
				continue
			}
			if ts := q.Terms[i].WQ * float64(p.W); best == -1 || ts > bestC {
				best, bestC = i, ts
			}
		}
		if best == -1 {
			break
		}
		src.cursors[best].Advance()
	}
	kScore := make([]int, len(q.Terms))
	prefixes := make([][]index.Posting, len(q.Terms))
	exhausted := make([]bool, len(q.Terms))
	for i, cur := range src.cursors {
		k := cur.Consumed()
		if _, ok := cur.Peek(); ok {
			k++ // the cut-off head is revealed too
		}
		kScore[i], prefixes[i], exhausted[i] = k, cur.Prefix(k), k == cur.Len()
	}
	result := core.EvalTNRA(q, prefixes, exhausted, r).Result
	if lie.short && len(result) > 0 {
		result = result[:len(result)-1]
	}

	kind := core.KindFor(core.AlgoTNRA, scheme)
	v := &vo.VO{Algo: uint8(core.AlgoTNRA), Scheme: uint8(scheme), Generation: c.manifest.Generation}
	if err := c.assembleTermProofs(v, q, src.cursors, kScore, kind, scheme); err != nil {
		return nil, nil, err
	}
	if err := c.assembleContentProof(v, result, 0); err != nil {
		return nil, nil, err
	}
	if c.cfg.DictMode {
		if err := c.assembleDictProof(v, q, kind, 0); err != nil {
			return nil, nil, err
		}
	}
	res := &Result{Entries: result, Contents: map[index.DocID][]byte{}}
	for _, e := range result {
		res.Contents[e.Doc] = c.idx.Content[e.Doc]
	}
	encoded, _, err := vo.Encode(v, c.cfg.HashSize)
	return res, encoded, err
}

// lieAbsent answers tokens as if absent were not in the dictionary: Search's
// answer for the other tokens, plus a non-membership proof for absent built
// from the real name-dictionary leaves at positions, correctly proved. Only
// the rules a non-membership proof must satisfy can refuse it.
func (c *Collection) lieAbsent(tokens []string, absent string, positions []int, r int, algo core.Algo, scheme core.Scheme) (*Result, []byte, error) {
	var others []string
	for _, tok := range tokens {
		if tok != absent {
			others = append(others, tok)
		}
	}
	res, encoded, _, err := c.Search(others, r, algo, scheme)
	if err != nil {
		return nil, nil, err
	}
	v, err := vo.Decode(encoded)
	if err != nil {
		return nil, nil, err
	}
	proof, err := c.nameTree.ProveCapped(positions, 0)
	if err != nil {
		return nil, nil, err
	}
	vp := vo.VocabProof{Token: absent, Digests: proof.Digests}
	for _, pos := range positions {
		vp.Positions = append(vp.Positions, uint32(pos))
		vp.Names = append(vp.Names, c.idx.Name(index.TermID(pos)))
	}
	v.VocabProofs = append(v.VocabProofs, vp)
	encoded, _, err = vo.Encode(v, c.cfg.HashSize)
	return res, encoded, err
}
