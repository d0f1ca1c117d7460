package core

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"

	"authtext/internal/index"
	"authtext/internal/mht"
	"authtext/internal/okapi"
	"authtext/internal/sig"
	"authtext/internal/textproc"
	"authtext/internal/vo"
)

// VerifyInput bundles everything the user has when checking a query result:
// the owner's published manifest and public key, the query, the result R
// with the delivered document contents, and the VO from the search engine.
type VerifyInput struct {
	Manifest *Manifest
	Verifier sig.Verifier
	// Tokens is the query token stream after the text pipeline; the client
	// derives f_{Q,t} and the canonical term order from it.
	Tokens []string
	R      int
	Result []ResultEntry
	// Contents delivers the result documents (needed to recompute their
	// committed digests).
	Contents map[index.DocID][]byte
	VO       *vo.VO
	// Cap is the top of the collection-level trees the client holds for
	// its manifest's generation (VerifyCap), or nil. An answer may cut its
	// collection-tree proofs at any depth up to Cap.Depth (VO.CapDepth);
	// one cut deeper is CodeCapDepth.
	Cap *Cap
}

// Verify checks a query result against the correctness criteria of §3.1:
// result entries ordered by non-increasing scores that match the recomputed
// values, and no excluded document able to outscore the result tail. It
// returns nil iff the result is authentic; failures carry a VerifyError
// classifying the tampering.
func Verify(in *VerifyInput) error {
	m := in.Manifest
	if m == nil || in.VO == nil {
		return vErr(CodeMalformedVO, "missing manifest or VO")
	}
	if err := m.Validate(); err != nil {
		return vErr(CodeMalformedVO, "manifest: %v", err)
	}
	if in.VO.Generation != m.Generation {
		// The generation stamp is the server's claim of which publication
		// state produced this answer. A mismatch with the manifest the
		// client holds means a replayed (or prematurely served) answer —
		// flagged here before any cryptographic work. A server that lies
		// about the stamp instead faces the manifest-pinned checks below
		// (content tree, collection statistics) under the wrong state.
		return vErr(CodeStaleGeneration, "answer generation %d, manifest generation %d",
			in.VO.Generation, m.Generation)
	}
	// The stated depth only says where each collection-tree proof takes its
	// top from — the answer or the verified cap — and every root is still
	// compared against the signed one, so it needs no authentication of its
	// own: it must only not reach below the cap held.
	var k cut
	if d := int(in.VO.CapDepth); d > 0 {
		held := 0
		if in.Cap != nil && in.Cap.Generation == m.Generation {
			held = in.Cap.Depth
		}
		if d > held {
			return vErr(CodeCapDepth, "answer cut at depth %d, the cap held for generation %d is %d deep", d, m.Generation, held)
		}
		k = cut{in.Cap, d}
	}
	algo, scheme := Algo(in.VO.Algo), Scheme(in.VO.Scheme)
	if algo != AlgoTRA && algo != AlgoTNRA {
		return vErr(CodeMalformedVO, "unknown algorithm %d", in.VO.Algo)
	}
	if scheme != SchemeMHT && scheme != SchemeCMHT {
		return vErr(CodeMalformedVO, "unknown scheme %d", in.VO.Scheme)
	}
	if in.R < 1 {
		return vErr(CodeMalformedVO, "result size %d", in.R)
	}
	if len(in.Result) > in.R {
		return vErr(CodeMalformedVO, "result has %d entries for r=%d", len(in.Result), in.R)
	}
	kind := KindFor(algo, scheme)
	if !m.Serves(kind) {
		// The owner signed no structure of this kind, so nothing in the VO
		// can be authentic; an honest server refuses such a query instead.
		return vErr(CodeMalformedVO, "%v is outside the signed variant set %v", kind, m.Variants)
	}
	baseHasher := sig.MustHasher(int(m.HashSize))
	hasher := mht.NewHasher(baseHasher)

	// Resolve the query: unique tokens in first-occurrence order, matched
	// against the VO's term proofs by name.
	counts := textproc.Counts(in.Tokens)
	var uniq []string
	seen := make(map[string]struct{}, len(in.Tokens))
	for _, tok := range in.Tokens {
		if _, dup := seen[tok]; !dup {
			seen[tok] = struct{}{}
			uniq = append(uniq, tok)
		}
	}
	byName := make(map[string]*vo.TermProof, len(in.VO.Terms))
	for i := range in.VO.Terms {
		t := &in.VO.Terms[i]
		if _, dup := byName[t.Name]; dup {
			return vErr(CodeMalformedVO, "duplicate term proof %q", t.Name)
		}
		if counts[t.Name] == 0 {
			return vErr(CodeMalformedVO, "term proof %q not in query", t.Name)
		}
		byName[t.Name] = t
	}

	q := &Query{}
	var termProofs []*vo.TermProof
	var unknown []string
	for _, tok := range uniq {
		tp := byName[tok]
		if tp == nil {
			unknown = append(unknown, tok)
			continue
		}
		q.Terms = append(q.Terms, QueryTerm{
			Name: tok,
			ID:   index.TermID(tp.TermID),
			FQ:   counts[tok],
			FT:   int(tp.FT),
			WQ:   okapi.QueryWeight(int(m.N), int(tp.FT), counts[tok]),
		})
		termProofs = append(termProofs, tp)
	}
	if len(q.Terms) > MaxQueryTerms {
		return vErr(CodeMalformedVO, "too many query terms: %d", len(q.Terms))
	}
	if m.VocabProofsEnabled {
		if err := verifyVocabProofs(m, hasher, k, unknown, in.VO.VocabProofs); err != nil {
			return err
		}
	}
	if len(q.Terms) == 0 {
		if len(in.Result) != 0 {
			return vErr(CodeSpurious, "result entries for a query with no dictionary terms")
		}
		return nil
	}

	// Authenticate every term's revealed prefix against its signed root.
	nq := len(q.Terms)
	prefixes := make([][]index.Posting, nq)
	exhausted := make([]bool, nq)
	dictWant := make(map[int][]byte)
	for i, tp := range termProofs {
		ft := int(tp.FT)
		kScore, kProof := int(tp.KScore), int(tp.KProof)
		if ft < 1 || kScore < 1 || kScore > kProof || kProof > ft {
			return vErr(CodeMalformedVO, "term %q: ft=%d kScore=%d kProof=%d", tp.Name, ft, kScore, kProof)
		}
		if len(tp.Docs) != kProof {
			return vErr(CodeMalformedVO, "term %q: %d revealed ids for kProof=%d", tp.Name, len(tp.Docs), kProof)
		}
		if algo == AlgoTNRA {
			if len(tp.Freqs) != kProof {
				return vErr(CodeMalformedVO, "term %q: missing frequencies", tp.Name)
			}
		} else if tp.Freqs != nil {
			return vErr(CodeMalformedVO, "term %q: unexpected frequencies in TRA VO", tp.Name)
		}

		posts := make([]index.Posting, kProof)
		for j := 0; j < kProof; j++ {
			p := index.Posting{Doc: index.DocID(tp.Docs[j])}
			if algo == AlgoTNRA {
				p.W = tp.Freqs[j]
				if math.IsNaN(float64(p.W)) || p.W < 0 {
					return vErr(CodeMalformedVO, "term %q: invalid frequency at %d", tp.Name, j)
				}
			}
			posts[j] = p
		}

		var root []byte
		var err error
		switch scheme {
		case SchemeMHT:
			root, err = mht.RootFromProofFunc(hasher, ft, mht.PrefixPositions(kProof), kind.PostingLeaves(posts), mht.Proof{Digests: tp.Digests})
		default:
			rho := ChainRho(int(m.BlockSize), int(m.HashSize))
			root, err = ChainRootFromPrefix(hasher, kProof, kind.PostingLeaves(posts), ft, rho, mht.Proof{Digests: tp.Digests})
		}
		if err != nil {
			return vErr(CodeBadTermProof, "term %q: %v", tp.Name, err)
		}
		if m.DictMode {
			if tp.Sig != nil {
				return vErr(CodeMalformedVO, "term %q: signature present in dictionary mode", tp.Name)
			}
			if _, dup := dictWant[int(tp.TermID)]; dup {
				return vErr(CodeMalformedVO, "term %q: term id %d proved twice", tp.Name, tp.TermID)
			}
			// The leaf binds the root to the term exactly as list mode's
			// signed message does.
			dictWant[int(tp.TermID)] = TermRootMessage(kind, tp.Name, index.TermID(tp.TermID), tp.FT, root)
		} else {
			msg := TermRootMessage(kind, tp.Name, index.TermID(tp.TermID), tp.FT, root)
			if err := in.Verifier.Verify(msg, tp.Sig); err != nil {
				return vErr(CodeBadSignature, "term %q: %v", tp.Name, err)
			}
		}
		prefixes[i] = posts[:kScore]
		exhausted[i] = kScore == ft
	}
	if m.DictMode {
		dp := in.VO.DictProof
		if dp == nil {
			return vErr(CodeMalformedVO, "dictionary mode without dictionary proof")
		}
		if dp.M != m.M {
			return vErr(CodeMalformedVO, "dictionary proof m=%d, manifest m=%d", dp.M, m.M)
		}
		// The manifest signs the dictionary roots; the proof carries none.
		if dp.Sig != nil {
			return vErr(CodeMalformedVO, "signature present on the dictionary proof")
		}
		root, err := k.root(hasher, CapDict+CapTree(kind-1), int(m.M), dictWant, dp.Digests)
		if err != nil {
			return vErr(CodeBadTermProof, "dictionary proof: %v", err)
		}
		if !bytes.Equal(root, m.DictRoots[kind-1]) {
			return vErr(CodeBadTermProof, "dictionary root mismatch")
		}
	}

	var boost *Boost
	if m.Boosted {
		var err error
		boost, err = verifyAuthority(in, hasher, k, prefixes)
		if err != nil {
			return err
		}
	} else if in.VO.AuthorityProof != nil {
		return vErr(CodeMalformedVO, "authority proof for an unboosted collection")
	}

	if algo == AlgoTRA {
		return verifyTRA(in, baseHasher, hasher, k, q, prefixes, exhausted, boost)
	}
	return verifyTNRA(in, baseHasher, hasher, k, q, prefixes, exhausted, boost)
}

// verifyAuthority checks the authority-MHT multiproof covering every
// revealed document (§5 extension) and returns the Boost the scoring steps
// will apply.
func verifyAuthority(in *VerifyInput, hasher mht.Hasher, k cut, prefixes [][]index.Posting) (*Boost, error) {
	m := in.Manifest
	ap := in.VO.AuthorityProof
	if ap == nil {
		return nil, vErr(CodeMalformedVO, "boosted collection without authority proof")
	}
	seen := make(map[index.DocID]struct{})
	var docs []index.DocID
	for _, pre := range prefixes {
		for _, p := range pre {
			if _, ok := seen[p.Doc]; !ok {
				seen[p.Doc] = struct{}{}
				docs = append(docs, p.Doc)
			}
		}
	}
	sort.Slice(docs, func(a, b int) bool { return docs[a] < docs[b] })
	if len(ap.Values) != len(docs) {
		return nil, vErr(CodeMalformedVO, "authority proof covers %d documents, need %d", len(ap.Values), len(docs))
	}
	want := make(map[int][]byte, len(docs))
	authority := make(map[index.DocID]float64, len(docs))
	for i, d := range docs {
		if int(d) >= int(m.N) {
			return nil, vErr(CodeMalformedVO, "revealed doc %d outside collection", d)
		}
		want[int(d)] = EncodeAuthorityLeaf(d, ap.Values[i])
		authority[d] = float64(ap.Values[i])
	}
	root, err := k.root(hasher, CapAuthority, int(m.N), want, ap.Digests)
	if err != nil {
		return nil, vErr(CodeBadTermProof, "authority proof: %v", err)
	}
	if !bytes.Equal(root, m.AuthorityRoot) {
		return nil, vErr(CodeBadTermProof, "authority root mismatch")
	}
	return &Boost{
		Beta: m.Beta,
		AMax: m.AMax,
		Authority: func(d index.DocID) float64 {
			return authority[d]
		},
	}, nil
}

// verifyTRA checks a TRA result: every encountered document's score is
// recomputed from its document-MHT proof and compared against the result,
// and the cut-off threshold bounds everything unseen (§3.3).
func verifyTRA(in *VerifyInput, baseHasher sig.Hasher, hasher mht.Hasher, k cut, q *Query, prefixes [][]index.Posting, exhausted []bool, boost *Boost) error {
	enc := make(map[index.DocID]struct{})
	for _, pre := range prefixes {
		for _, p := range pre {
			enc[p.Doc] = struct{}{}
		}
	}
	resultSet := make(map[index.DocID]int, len(in.Result))
	for i, e := range in.Result {
		if _, dup := resultSet[e.Doc]; dup {
			return vErr(CodeSpurious, "duplicate result doc %d", e.Doc)
		}
		resultSet[e.Doc] = i
	}

	proofs := make(map[index.DocID]*vo.DocProof, len(in.VO.Docs))
	prev := -1
	for i := range in.VO.Docs {
		dp := &in.VO.Docs[i]
		if int(dp.Doc) <= prev {
			return vErr(CodeMalformedVO, "document proofs not strictly ascending")
		}
		prev = int(dp.Doc)
		if _, ok := enc[index.DocID(dp.Doc)]; !ok {
			return vErr(CodeMalformedVO, "document proof for unencountered doc %d", dp.Doc)
		}
		proofs[index.DocID(dp.Doc)] = dp
	}
	for d := range enc {
		if proofs[d] == nil {
			return vErr(CodeBadDocProof, "missing document proof for encountered doc %d", d)
		}
	}

	// The document roots are authenticated one by one against their
	// signatures, or all at once by the document-root tree the manifest
	// commits, each leaf at its document's position.
	m := in.Manifest
	tree := len(m.DocRootTreeRoot) != 0
	if !tree && in.VO.DocRootProof != nil {
		return vErr(CodeMalformedVO, "document-root proof for a manifest that commits no document-root tree")
	}
	var leaves map[int][]byte
	if tree {
		leaves = make(map[int][]byte, len(proofs))
	}
	scores := make(map[index.DocID]float64, len(proofs))
	weights := make(map[index.DocID][]float32, len(proofs))
	for i := range in.VO.Docs {
		dp := &in.VO.Docs[i]
		w, err := verifyDocProof(in, baseHasher, hasher, q, dp, leaves)
		if err != nil {
			return err
		}
		d := index.DocID(dp.Doc)
		weights[d] = w
		scores[d] = Score(q, w) + boost.Score(d)
	}
	if tree {
		rp := in.VO.DocRootProof
		if rp == nil {
			return vErr(CodeMalformedVO, "the manifest commits the document-root tree, the answer carries no proof over it")
		}
		root, err := k.root(hasher, CapDocRoot, int(m.N), leaves, rp.Digests)
		if err != nil {
			return vErr(CodeBadDocProof, "document-root proof: %v", err)
		}
		if !bytes.Equal(root, m.DocRootTreeRoot) {
			if docs := k.mismatch(hasher, CapDocRoot, int(m.N), leaves, rp.Digests); docs != nil {
				return vErr(CodeBadDocProof, "%s: document root disagrees with the document-root tree", namedDocs(docs))
			}
			return vErr(CodeBadDocProof, "document-root tree root mismatch")
		}
	}

	// Threshold from the cut-off head entries, frequencies taken from the
	// heads' verified document proofs.
	var thres float64
	for i := range q.Terms {
		if exhausted[i] {
			continue
		}
		head := prefixes[i][len(prefixes[i])-1].Doc
		thres += q.Terms[i].WQ * float64(weights[head][i])
	}

	for i, e := range in.Result {
		if _, ok := enc[e.Doc]; !ok {
			return vErr(CodeSpurious, "result doc %d never encountered", e.Doc)
		}
		if m.IsTombstoned(uint32(e.Doc)) {
			// The signed manifest's bitmap says this slot was removed; a
			// server cannot resurrect it.
			return vErr(CodeSpurious, "result doc %d is tombstoned", e.Doc)
		}
		if !proofs[e.Doc].InResult {
			return vErr(CodeBadContent, "result doc %d content not bound to its proof", e.Doc)
		}
		if e.Score != scores[e.Doc] {
			return vErr(CodeBadScore, "result doc %d: claimed %v, computed %v", e.Doc, e.Score, scores[e.Doc])
		}
		// The canonical order, as verifyTNRA demands: score descending, ties
		// by ascending doc ID. Both engines emit it, so an honest answer has
		// one arrangement and a reordered tie is a forgery. The tail check
		// below stays score-only: an honest TRA-MHT answer may omit an
		// encountered doc that ties the last result with a lower ID.
		if i > 0 && !resultLess(in.Result[i-1], e) {
			return vErr(CodeBadOrdering, "result not in canonical score order at %d", i)
		}
	}

	if len(in.Result) < in.R {
		// A short result is legitimate only when the lists are exhausted
		// and everything encountered is already in the result.
		for i := range exhausted {
			if !exhausted[i] {
				return vErr(CodeIncomplete, "short result with unexhausted list %q", q.Terms[i].Name)
			}
		}
		for d := range enc {
			if _, ok := resultSet[d]; !ok && !m.IsTombstoned(uint32(d)) {
				return vErr(CodeIncomplete, "short result omits encountered doc %d", d)
			}
		}
		return nil
	}

	sLast := in.Result[len(in.Result)-1].Score
	for d := range enc {
		if _, inR := resultSet[d]; inR {
			continue
		}
		if m.IsTombstoned(uint32(d)) {
			continue // removed slots cannot outscore anything
		}
		if scores[d] > sLast {
			return vErr(CodeIncomplete, "encountered doc %d outscores result tail (%v > %v)", d, scores[d], sLast)
		}
	}
	// Unseen matching documents are bounded by thres (+ β·A_max under the
	// boost extension); with every list fully revealed the bound is vacuous.
	if !allTrue(exhausted) && thres+boost.Max() > sLast {
		return vErr(CodeThreshold, "threshold %v exceeds result tail %v", thres+boost.Max(), sLast)
	}
	return nil
}

// verifyDocProof authenticates one document's query-term frequencies
// (Fig 8) and returns the per-query-term weight vector. The document-root
// message — root, length and content digest bound to the document — is
// checked against the document's signature, or, when leaves is not nil,
// recorded there as the document's leaf in the document-root tree for the
// caller's one multiproof.
func verifyDocProof(in *VerifyInput, baseHasher sig.Hasher, hasher mht.Hasher, q *Query, dp *vo.DocProof, leaves map[int][]byte) ([]float32, error) {
	n := int(dp.LeafCount)
	if n < 1 {
		return nil, vErr(CodeBadDocProof, "doc %d: empty term vector", dp.Doc)
	}
	if len(dp.Terms) != len(dp.Positions) || len(dp.Ws) != len(dp.Positions) {
		return nil, vErr(CodeMalformedVO, "doc %d: ragged reveal arrays", dp.Doc)
	}
	positions := make([]int, len(dp.Positions))
	prevPos := -1
	for j := range dp.Positions {
		p := int(dp.Positions[j])
		if p <= prevPos || p >= n {
			return nil, vErr(CodeBadDocProof, "doc %d: bad leaf position %d", dp.Doc, p)
		}
		if j > 0 && dp.Terms[j] <= dp.Terms[j-1] {
			return nil, vErr(CodeBadDocProof, "doc %d: leaf terms not ascending", dp.Doc)
		}
		prevPos = p
		positions[j] = p
	}
	root, err := mht.RootFromProofFunc(hasher, n, positions, func(buf []byte, j int) []byte {
		return AppendTermFreqLeaf(buf, index.TermFreq{Term: index.TermID(dp.Terms[j]), W: dp.Ws[j]})
	}, mht.Proof{Digests: dp.Digests})
	if err != nil {
		return nil, vErr(CodeBadDocProof, "doc %d: %v", dp.Doc, err)
	}

	var contentHash []byte
	if dp.InResult {
		content, ok := in.Contents[index.DocID(dp.Doc)]
		if !ok {
			return nil, vErr(CodeBadContent, "doc %d: result content missing", dp.Doc)
		}
		contentHash = baseHasher.Sum(content)
	} else {
		if len(dp.ContentHash) != baseHasher.Size() {
			return nil, vErr(CodeMalformedVO, "doc %d: content hash size", dp.Doc)
		}
		contentHash = dp.ContentHash
	}
	msg := DocRootMessage(index.DocID(dp.Doc), dp.LeafCount, contentHash, root)
	if leaves != nil {
		if len(dp.Sig) != 0 {
			return nil, vErr(CodeMalformedVO, "doc %d: signature present although the manifest commits the document-root tree", dp.Doc)
		}
		leaves[int(dp.Doc)] = msg
	} else if err := in.Verifier.Verify(msg, dp.Sig); err != nil {
		if dp.InResult {
			// A bad signature here usually means the delivered content does
			// not hash to the committed digest.
			return nil, vErr(CodeBadContent, "doc %d: content/root signature mismatch", dp.Doc)
		}
		return nil, vErr(CodeBadSignature, "doc %d: %v", dp.Doc, err)
	}

	w := make([]float32, len(q.Terms))
	for i := range q.Terms {
		if q.Terms[i].WQ == 0 {
			continue // cannot affect any score or bound
		}
		wv, err := extractWeight(dp, n, uint32(q.Terms[i].ID))
		if err != nil {
			return nil, err
		}
		w[i] = wv
	}
	return w, nil
}

// extractWeight returns w_{d,t} from the revealed leaves, or 0 when the
// proof shows t absent (adjacent revealed leaves straddling t, or a
// revealed boundary leaf).
func extractWeight(dp *vo.DocProof, n int, t uint32) (float32, error) {
	for j := range dp.Terms {
		if dp.Terms[j] == t {
			return dp.Ws[j], nil
		}
	}
	for j := range dp.Terms {
		if dp.Terms[j] > t {
			if dp.Positions[j] == 0 {
				return 0, nil // t sorts before the first leaf
			}
			if j > 0 && dp.Positions[j-1] == dp.Positions[j]-1 && dp.Terms[j-1] < t {
				return 0, nil // t falls between two adjacent leaves
			}
			return 0, vErr(CodeBadDocProof, "doc %d: no absence evidence for term %d", dp.Doc, t)
		}
	}
	if k := len(dp.Positions); k > 0 && int(dp.Positions[k-1]) == n-1 {
		return 0, nil // t sorts after the last leaf
	}
	return 0, vErr(CodeBadDocProof, "doc %d: no absence evidence for term %d", dp.Doc, t)
}

// verifyTNRA re-derives the canonical TNRA evaluation from the revealed
// prefixes and checks the claimed result against it (§3.4), then
// authenticates the delivered contents against the collection's
// document-hash tree.
func verifyTNRA(in *VerifyInput, baseHasher sig.Hasher, hasher mht.Hasher, k cut, q *Query, prefixes [][]index.Posting, exhausted []bool, boost *Boost) error {
	if len(in.VO.Docs) != 0 || in.VO.DocRootProof != nil {
		return vErr(CodeMalformedVO, "document proofs in a TNRA VO")
	}
	// The signed manifest's tombstone bitmap drives the same deterministic
	// skip rule the owner applied: removed slots are revealed but never
	// candidates.
	var dead func(index.DocID) bool
	if len(in.Manifest.Tombstones) != 0 {
		m := in.Manifest
		dead = func(d index.DocID) bool { return m.IsTombstoned(uint32(d)) }
	}
	ev := EvalTNRAWithBoost(q, prefixes, exhausted, in.R, boost, dead)
	if !ev.OK {
		return vErr(CodeBadConditions, "termination conditions do not hold over the revealed prefixes")
	}
	if len(in.Result) != len(ev.Result) {
		return vErr(CodeIncomplete, "result has %d entries, evaluation yields %d", len(in.Result), len(ev.Result))
	}
	for i := range in.Result {
		if in.Result[i].Doc != ev.Result[i].Doc {
			if _, known := ev.Bounds[in.Result[i].Doc]; !known {
				return vErr(CodeSpurious, "result doc %d not derivable from revealed prefixes", in.Result[i].Doc)
			}
			return vErr(CodeBadOrdering, "result position %d: doc %d, expected %d", i, in.Result[i].Doc, ev.Result[i].Doc)
		}
		if in.Result[i].Score != ev.Result[i].Score {
			return vErr(CodeBadScore, "result doc %d: claimed %v, computed %v", in.Result[i].Doc, in.Result[i].Score, ev.Result[i].Score)
		}
	}

	if len(in.Result) == 0 {
		return nil
	}
	cp := in.VO.ContentProof
	if cp == nil {
		return vErr(CodeBadContent, "missing content proof")
	}
	want := make(map[int][]byte, len(in.Result))
	for _, e := range in.Result {
		content, ok := in.Contents[e.Doc]
		if !ok {
			return vErr(CodeBadContent, "result doc %d content missing", e.Doc)
		}
		if int(e.Doc) >= int(in.Manifest.N) {
			return vErr(CodeMalformedVO, "result doc %d outside collection", e.Doc)
		}
		want[int(e.Doc)] = baseHasher.Sum(content)
	}
	root, err := k.root(hasher, CapDocHash, int(in.Manifest.N), want, cp.Digests)
	if err != nil {
		return vErr(CodeBadContent, "content proof: %v", err)
	}
	if !bytes.Equal(root, in.Manifest.DocHashRoot) {
		return vErr(CodeBadContent, "content root mismatch")
	}
	return nil
}

// verifyVocabProofs checks non-membership proofs for out-of-dictionary
// tokens against the name-ordered dictionary tree (an extension:
// docs/ARCHITECTURE.md, "Departures from the paper").
func verifyVocabProofs(m *Manifest, hasher mht.Hasher, k cut, unknown []string, proofs []vo.VocabProof) error {
	byToken := make(map[string]*vo.VocabProof, len(proofs))
	for i := range proofs {
		p := &proofs[i]
		if _, dup := byToken[p.Token]; dup {
			return vErr(CodeMalformedVO, "duplicate vocabulary proof %q", p.Token)
		}
		byToken[p.Token] = p
	}
	mm := int(m.M)
	for _, tok := range unknown {
		p := byToken[tok]
		if p == nil {
			return vErr(CodeBadVocabProof, "no non-membership proof for %q", tok)
		}
		if len(p.Positions) != len(p.Names) || len(p.Positions) < 1 || len(p.Positions) > 2 {
			return vErr(CodeBadVocabProof, "%q: malformed proof", tok)
		}
		switch len(p.Positions) {
		case 1:
			pos, name := int(p.Positions[0]), p.Names[0]
			before := pos == 0 && name > tok
			after := pos == mm-1 && name < tok
			if !before && !after {
				return vErr(CodeBadVocabProof, "%q: boundary leaf does not exclude token", tok)
			}
		case 2:
			if p.Positions[1] != p.Positions[0]+1 {
				return vErr(CodeBadVocabProof, "%q: leaves not adjacent", tok)
			}
			if !(p.Names[0] < tok && tok < p.Names[1]) {
				return vErr(CodeBadVocabProof, "%q: leaves do not straddle token", tok)
			}
		}
		want := make(map[int][]byte, len(p.Positions))
		for j := range p.Positions {
			want[int(p.Positions[j])] = VocabLeaf(p.Names[j])
		}
		root, err := k.root(hasher, CapNameDict, mm, want, p.Digests)
		if err != nil {
			return vErr(CodeBadVocabProof, "%q: %v", tok, err)
		}
		if !bytes.Equal(root, m.NameDictRoot) {
			return vErr(CodeBadVocabProof, "%q: name-dictionary root mismatch", tok)
		}
	}
	return nil
}

// namedDocs names the documents one of which a check narrowed a failure to.
func namedDocs(docs []int) string {
	names := make([]string, len(docs))
	for i, d := range docs {
		names[i] = fmt.Sprintf("doc %d", d)
	}
	if len(names) == 1 {
		return names[0]
	}
	return "one of " + strings.Join(names, ", ")
}
