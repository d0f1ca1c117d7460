package engine

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/mht"
	"authtext/internal/store"
	"authtext/internal/vo"
)

// Result is the query answer delivered to the user: the ordered entries and
// the contents of the result documents (whose retrieval cost is constant
// across algorithms and excluded from the metrics, §4.1).
type Result struct {
	Entries  []core.ResultEntry
	Contents map[index.DocID][]byte
}

// QueryStats captures the per-query costs behind Figs 13–15.
type QueryStats struct {
	Algo           core.Algo
	Scheme         core.Scheme
	QueryTerms     int
	EntriesRead    int     // Σ_i KScore_i
	EntriesPerTerm float64 // Fig 13a/14a/15a
	PctListRead    float64 // Fig 13b/14b/15b (mean over query terms)
	AvgListLen     float64 // the "List Length" baseline
	IO             store.Stats
	VO             vo.Breakdown
	Iterations     int
	RandomAccesses int
	ServerWall     time.Duration
	// EncodeWall is the slice of ServerWall spent serializing the VO;
	// ServerWall-EncodeWall is index traversal + proof assembly, which
	// WalkWall and ProofWall split: query parsing plus the threshold
	// algorithm's pass over the lists and document records, and everything
	// assembled into the VO afterwards.
	EncodeWall time.Duration
	WalkWall   time.Duration
	ProofWall  time.Duration
}

// Search processes a query (tokens are the post-pipeline token stream) for
// the top r documents using the chosen algorithm and authentication scheme,
// returning the result, the encoded VO, and the cost statistics. A structure
// kind outside the collection's variant set is refused with
// core.ErrVariantNotBuilt before any session opens.
//
// Search is safe for concurrent use: a built Collection's inputs are
// immutable, its per-document tree cache is lock-free, and all per-query
// mutable state — the simulated disk head and the I/O statistics — lives in
// a store.Session private to this call. Each session
// starts with a cold head, so per-query QueryStats.IO is identical to what
// the serialized engine reported for the same query.
func (c *Collection) Search(tokens []string, r int, algo core.Algo, scheme core.Scheme) (retRes *Result, retVO []byte, retStats *QueryStats, retErr error) {
	if r < 1 {
		return nil, nil, nil, fmt.Errorf("engine: result size %d", r)
	}
	if kind := core.KindFor(algo, scheme); !c.manifest.Serves(kind) {
		return nil, nil, nil, fmt.Errorf("engine: %v: %w (this collection builds %v)", kind, core.ErrVariantNotBuilt, c.manifest.Variants)
	}
	// Cursor code raises block-read failures as a typed panic (the cursor
	// interfaces have no error channel). Recover it here so a poisoned
	// device — a mapped snapshot that failed its deferred checksum —
	// surfaces as a query error, not a process crash.
	defer func() {
		if p := recover(); p != nil {
			f, ok := p.(deviceFault)
			if !ok {
				panic(p)
			}
			retRes, retVO, retStats, retErr = nil, nil, nil, f.err
		}
	}()
	start := time.Now()
	sess := c.dev.NewSession()
	stats := &QueryStats{Algo: algo, Scheme: scheme}

	q, err := core.BuildQuery(c.idx, tokens)
	if err != nil {
		return nil, nil, nil, err
	}
	stats.QueryTerms = len(q.Terms)

	v := &vo.VO{Algo: uint8(algo), Scheme: uint8(scheme), Generation: c.manifest.Generation}
	if c.cfg.VocabProofs && len(q.Unknown) > 0 {
		// Proof assembly ahead of the walk; finish adds the rest to it.
		vocabStart := time.Now()
		if err := c.appendVocabProofs(v, q.Unknown); err != nil {
			return nil, nil, nil, err
		}
		stats.ProofWall = time.Since(vocabStart)
	}

	res := &Result{Contents: make(map[index.DocID][]byte)}
	if len(q.Terms) == 0 {
		return c.finish(res, v, stats, sess, start, time.Now())
	}

	chain := scheme == core.SchemeCMHT
	exts := c.layout.Plain
	if chain {
		if algo == core.AlgoTRA {
			exts = c.layout.ChainTRA
		} else {
			exts = c.layout.ChainTNRA
		}
	}
	src := &recordingSource{open: func(t index.TermID) (*listCursor, error) {
		return newListCursor(sess, exts[t], c.idx.FT(t), chain, c.cfg.Store.BlockSize, c.cfg.HashSize), nil
	}}

	kind := core.KindFor(algo, scheme)
	var walked time.Time // the threshold algorithm is done; what follows is proof assembly
	switch algo {
	case core.AlgoTRA:
		docs := newDocSource(c, sess)
		out, err := core.TRAWithBoost(q, src, docs, r, c.boost, c.deadPredicate(), nil)
		if err != nil {
			return nil, nil, nil, err
		}
		walked = time.Now()
		stats.Iterations, stats.RandomAccesses = out.Iterations, out.RandomAccesses
		res.Entries = out.Result
		if err := c.assembleTermProofs(v, q, src.cursors, out.KScore, kind, scheme); err != nil {
			return nil, nil, nil, err
		}
		if err := c.assembleDocProofs(v, q, docs, out, scheme); err != nil {
			return nil, nil, nil, err
		}
		c.recordReadStats(stats, q, out.KScore)
	default:
		out, err := core.TNRAWithBoost(q, src, r, c.boost, c.deadPredicate(), nil)
		if err != nil {
			return nil, nil, nil, err
		}
		walked = time.Now()
		stats.Iterations = out.Iterations
		res.Entries = out.Result
		if err := c.assembleTermProofs(v, q, src.cursors, out.KScore, kind, scheme); err != nil {
			return nil, nil, nil, err
		}
		if err := c.assembleContentProof(v, out.Result); err != nil {
			return nil, nil, nil, err
		}
		c.recordReadStats(stats, q, out.KScore)
	}

	if c.cfg.DictMode {
		if err := c.assembleDictProof(v, q, kind); err != nil {
			return nil, nil, nil, err
		}
	}
	if c.boost != nil {
		if err := c.assembleAuthorityProof(v); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, e := range res.Entries {
		res.Contents[e.Doc] = c.idx.Content[e.Doc]
	}
	return c.finish(res, v, stats, sess, start, walked)
}

// finish encodes the VO and closes the books: walked is when the index walk
// ended and proof assembly began.
func (c *Collection) finish(res *Result, v *vo.VO, stats *QueryStats, sess *store.Session, start, walked time.Time) (*Result, []byte, *QueryStats, error) {
	encStart := time.Now()
	encoded, bd, err := vo.Encode(v, c.cfg.HashSize)
	if err != nil {
		return nil, nil, nil, err
	}
	stats.EncodeWall = time.Since(encStart)
	stats.ProofWall += encStart.Sub(walked)
	stats.WalkWall = encStart.Sub(start) - stats.ProofWall
	stats.VO = bd
	stats.IO = sess.Stats()
	stats.ServerWall = time.Since(start)
	return res, encoded, stats, nil
}

func (c *Collection) recordReadStats(stats *QueryStats, q *core.Query, kScore []int) {
	var pct, lens float64
	for i := range q.Terms {
		ft := q.Terms[i].FT
		stats.EntriesRead += kScore[i]
		pct += float64(kScore[i]) / float64(ft)
		lens += float64(ft)
	}
	nq := float64(len(q.Terms))
	stats.EntriesPerTerm = float64(stats.EntriesRead) / nq
	stats.PctListRead = 100 * pct / nq
	stats.AvgListLen = lens / nq
}

// assembleTermProofs builds one TermProof per query term from the revealed
// prefixes.
func (c *Collection) assembleTermProofs(v *vo.VO, q *core.Query, cursors []*listCursor, kScore []int, kind core.StructureKind, scheme core.Scheme) error {
	withFreqs := kind == core.KindTNRAMHT || kind == core.KindTNRACMHT
	rho := core.ChainRho(c.cfg.Store.BlockSize, c.cfg.HashSize)
	group := mht.BuddyGroupSize(kind.LeafSize(), c.cfg.HashSize)
	for i := range q.Terms {
		qt := q.Terms[i]
		cur := cursors[i]
		ft := qt.FT
		ks := kScore[i]
		tp := vo.TermProof{
			TermID: uint32(qt.ID),
			FT:     uint32(ft),
			Name:   qt.Name,
			KScore: uint32(ks),
		}

		var proof mht.Proof
		var kp int
		if scheme == core.SchemeMHT {
			kp = ks
			all := cur.FullListForProof()
			var err error
			proof, err = mht.ProveFunc(c.hasher, len(all), kind.PostingLeaves(all), mht.PrefixPositions(kp))
			if err != nil {
				return fmt.Errorf("engine: term %q proof: %w", qt.Name, err)
			}
		} else {
			kp = core.ChainKProof(ks, ft, rho, group)
			cur.Prefix(kp) // ensure coverage (stays within loaded blocks)
			switch {
			case kp == ft:
				// Whole list revealed: the chain rebuilds from data alone.
			case kp%rho == 0:
				// Boundary: the digest covering block kp/ρ sits in the
				// previous block's header.
				j := kp / rho
				proof.Digests = [][]byte{cur.NextDigest(j - 1)}
			default:
				j := kp / rho
				block := cur.BlockEntries(j)
				size, tree := core.ChainBlockTree(kind.PostingLeaves(block), 0, len(block), cur.NextDigest(j))
				var err error
				proof, err = mht.ProveFunc(c.hasher, size, tree, mht.PrefixPositions(kp%rho))
				if err != nil {
					return fmt.Errorf("engine: term %q chain proof: %w", qt.Name, err)
				}
			}
		}
		tp.KProof = uint32(kp)
		prefix := cur.Prefix(kp)
		tp.Docs = make([]uint32, kp)
		if withFreqs {
			tp.Freqs = make([]float32, kp)
		}
		for j, p := range prefix {
			tp.Docs[j] = uint32(p.Doc)
			if withFreqs {
				tp.Freqs[j] = p.W
			}
		}
		tp.Digests = proof.Digests
		if !c.cfg.DictMode {
			tp.Sig = c.termSigs[kind-1][qt.ID]
		}
		v.Terms = append(v.Terms, tp)
	}
	return nil
}

// assembleDocProofs adds a document-MHT proof for every encountered
// document (TRA): the query-term leaves (or absence boundaries), buddies
// under CMHT, the complementary digests and the signed root. The digests
// are copied from the document's materialised tree (vecTrees) and every
// proof's slices are carved from arenas the whole query shares, so the work
// and the allocations follow the size of the answer, not the lengths of the
// documents.
func (c *Collection) assembleDocProofs(v *vo.VO, q *core.Query, docs *docSource, out *core.TRAOutcome, scheme core.Scheme) error {
	group := 1
	if scheme == core.SchemeCMHT {
		group = mht.BuddyGroupSize(entrySize, c.cfg.HashSize)
	}
	// Term vectors are sorted by term id: looking the query terms up in the
	// same order yields each document's positions (nearly) ascending.
	terms := make([]index.TermID, len(q.Terms))
	for i := range q.Terms {
		terms[i] = q.Terms[i].ID
	}
	slices.Sort(terms)

	var (
		want, positions []int // reused from document to document
		u32s            []uint32
		f32s            []float32
		digests         mht.ProofArena
	)
	v.Docs = make([]vo.DocProof, 0, len(out.Encountered))
	for _, d := range out.Encountered {
		rec, err := docs.record(d) // cached for popped docs; random I/O for heads
		if err != nil {
			return err
		}
		n := len(rec.vec)
		want = want[:0]
		from := 0
		for _, t := range terms {
			p, found := searchVec(rec.vec, from, t)
			from = p
			if !found && p > 0 {
				want = addPosition(want, p-1)
			}
			if p < n {
				want = addPosition(want, p)
			}
		}
		positions = mht.AppendBuddies(positions[:0], want, group, n)

		dp := vo.DocProof{
			Doc:       uint32(d),
			LeafCount: uint32(n),
			Sig:       rec.sig,
		}
		dp.Digests, err = c.vecTrees.tree(c.hasher, d, rec.vec).ProveInto(&digests, positions)
		if err != nil {
			return fmt.Errorf("engine: doc %d proof: %w", d, err)
		}
		for _, e := range out.Result {
			if e.Doc == d {
				dp.InResult = true
				break
			}
		}
		if !dp.InResult {
			dp.ContentHash = rec.contentHash
		}
		dp.Positions = carve(&u32s, len(positions))
		dp.Terms = carve(&u32s, len(positions))
		dp.Ws = carve(&f32s, len(positions))
		for j, p := range positions {
			dp.Positions[j] = uint32(p)
			dp.Terms[j] = uint32(rec.vec[p].Term)
			dp.Ws[j] = rec.vec[p].W
		}
		v.Docs = append(v.Docs, dp)
	}
	return nil
}

// addPosition inserts p into the ascending, duplicate-free positions; p is
// expected at or next to the end.
func addPosition(positions []int, p int) []int {
	i := len(positions)
	for i > 0 && positions[i-1] > p {
		i--
	}
	if i > 0 && positions[i-1] == p {
		return positions
	}
	positions = append(positions, 0)
	copy(positions[i+1:], positions[i:])
	positions[i] = p
	return positions
}

// searchVec finds t in vec[from:], a term vector sorted by term id,
// returning (position, true) or the insertion point and false.
func searchVec(vec []index.TermFreq, from int, t index.TermID) (int, bool) {
	lo, hi := from, len(vec)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case vec[mid].Term < t:
			lo = mid + 1
		case vec[mid].Term > t:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// assembleContentProof authenticates TNRA result contents against the
// document-hash tree.
func (c *Collection) assembleContentProof(v *vo.VO, result []core.ResultEntry) error {
	if len(result) == 0 {
		return nil
	}
	positions := make([]int, 0, len(result))
	for _, e := range result {
		positions = append(positions, int(e.Doc))
	}
	sort.Ints(positions)
	proof, err := c.docTree.Prove(positions)
	if err != nil {
		return err
	}
	v.ContentProof = &vo.ContentProof{Digests: proof.Digests}
	return nil
}

// assembleDictProof replaces per-term signatures with one dictionary-MHT
// multiproof (§3.4 space optimisation).
func (c *Collection) assembleDictProof(v *vo.VO, q *core.Query, kind core.StructureKind) error {
	positions := make([]int, 0, len(q.Terms))
	for i := range q.Terms {
		positions = append(positions, int(q.Terms[i].ID))
	}
	sort.Ints(positions)
	proof, err := c.dictTrees[kind-1].Prove(positions)
	if err != nil {
		return err
	}
	v.DictProof = &vo.DictProof{M: uint32(c.idx.M()), Digests: proof.Digests}
	return nil
}

// appendVocabProofs adds non-membership proofs for out-of-dictionary tokens.
func (c *Collection) appendVocabProofs(v *vo.VO, unknown []string) error {
	m := c.idx.M()
	for _, tok := range unknown {
		p := sort.Search(m, func(i int) bool { return c.idx.Name(index.TermID(i)) >= tok })
		var positions []int
		switch {
		case p == 0:
			positions = []int{0}
		case p == m:
			positions = []int{m - 1}
		default:
			positions = []int{p - 1, p}
		}
		proof, err := c.nameTree.Prove(positions)
		if err != nil {
			return err
		}
		vp := vo.VocabProof{Token: tok, Digests: proof.Digests}
		for _, pos := range positions {
			vp.Positions = append(vp.Positions, uint32(pos))
			vp.Names = append(vp.Names, c.idx.Name(index.TermID(pos)))
		}
		v.VocabProofs = append(v.VocabProofs, vp)
	}
	return nil
}

// assembleAuthorityProof adds the authority-MHT multiproof covering every
// revealed document (boost extension). The revealed set is the union of the
// scoring prefixes; the per-document authority values travel as data leaves.
func (c *Collection) assembleAuthorityProof(v *vo.VO) error {
	seen := make(map[index.DocID]struct{})
	var docs []int
	for _, tp := range v.Terms {
		for j := 0; j < int(tp.KScore); j++ {
			d := index.DocID(tp.Docs[j])
			if _, ok := seen[d]; !ok {
				seen[d] = struct{}{}
				docs = append(docs, int(d))
			}
		}
	}
	sort.Ints(docs)
	proof, err := c.authorityTree.Prove(docs)
	if err != nil {
		return err
	}
	ap := &vo.AuthorityProof{Digests: proof.Digests, Values: make([]float32, len(docs))}
	for i, d := range docs {
		ap.Values[i] = c.authority[d]
	}
	v.AuthorityProof = ap
	return nil
}

// VerifyResult runs the client-side verification against this collection's
// published manifest and key, returning the verification wall time.
func (c *Collection) VerifyResult(tokens []string, r int, res *Result, encodedVO []byte) (time.Duration, error) {
	start := time.Now()
	decoded, err := vo.Decode(encodedVO)
	if err != nil {
		return time.Since(start), err
	}
	err = core.Verify(&core.VerifyInput{
		Manifest: c.manifest,
		Verifier: c.verifier,
		Tokens:   tokens,
		R:        r,
		Result:   res.Entries,
		Contents: res.Contents,
		VO:       decoded,
	})
	return time.Since(start), err
}
