package engine

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/vo"
)

// The tamper suite exercises the §1 threat model: a compromised search
// engine returning incomplete results, altered rankings, or spurious
// documents. Each strategy modifies a legitimate (result, VO) pair and the
// verifier must reject it.

type tamperEnv struct {
	col    *Collection
	tokens []string
	r      int
	res    *Result
	vo     *vo.VO
}

// freshEnv produces a legitimate answer whose result is non-trivial: at
// least three entries with at least two distinct scores (fully tied results
// make ranking tampering legitimately undetectable).
func freshEnv(t *testing.T, algo core.Algo, scheme core.Scheme) *tamperEnv {
	t.Helper()
	var col *Collection
	var tokens []string
	var res *Result
	var voBytes []byte
	r := 5
	found := false
	for seed := int64(21); seed < 31 && !found; seed++ {
		col = buildTestCollection(t, seed, 80, 30, nil)
		idx := col.Index()
		// Query the two longest lists among discriminative terms: terms in
		// more than half the collection have w_{Q,t} = 0 (clamped IDF) and
		// cannot separate scores.
		best, second := -1, -1
		for ti := 0; ti < idx.M(); ti++ {
			ft := idx.FT(index.TermID(ti))
			if ft > idx.N/3 {
				continue
			}
			if best < 0 || ft > idx.FT(index.TermID(best)) {
				second, best = best, ti
			} else if second < 0 || ft > idx.FT(index.TermID(second)) {
				second = ti
			}
		}
		if best < 0 || second < 0 {
			continue
		}
		tokens = []string{idx.Name(index.TermID(best)), idx.Name(index.TermID(second))}
		var err error
		res, voBytes, _, err = col.Search(tokens, r, algo, scheme)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Entries) >= 3 && res.Entries[0].Score > res.Entries[len(res.Entries)-1].Score {
			found = true
		}
	}
	if !found {
		t.Fatal("no fixture with distinct scores found")
	}
	decoded, err := vo.Decode(voBytes)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the untampered answer verifies.
	if err := col.verifyDecoded(tokens, r, res, decoded); err != nil {
		t.Fatalf("baseline does not verify: %v", err)
	}
	return &tamperEnv{col: col, tokens: tokens, r: r, res: res, vo: decoded}
}

// verifyDecoded verifies against an already-decoded VO (so tamper tests can
// mutate structures directly).
func (c *Collection) verifyDecoded(tokens []string, r int, res *Result, v *vo.VO) error {
	return core.Verify(&core.VerifyInput{
		Manifest: c.manifest,
		Verifier: c.verifier,
		Tokens:   tokens,
		R:        r,
		Result:   res.Entries,
		Contents: res.Contents,
		VO:       v,
	})
}

func (e *tamperEnv) mustFail(t *testing.T, what string, wantCodes ...core.VerifyCode) {
	t.Helper()
	err := e.col.verifyDecoded(e.tokens, e.r, e.res, e.vo)
	if err == nil {
		t.Fatalf("%s went undetected", what)
	}
	if len(wantCodes) > 0 {
		got := core.CodeOf(err)
		for _, c := range wantCodes {
			if got == c {
				return
			}
		}
		t.Fatalf("%s: detected with %v, want one of %v", what, err, wantCodes)
	}
}

func cloneResult(res *Result) *Result {
	out := &Result{Entries: append([]core.ResultEntry{}, res.Entries...), Contents: map[index.DocID][]byte{}}
	for d, c := range res.Contents {
		out.Contents[d] = c
	}
	return out
}

func TestTamperDropResultDocument(t *testing.T) {
	for _, v := range allVariants {
		e := freshEnv(t, v.algo, v.scheme)
		e.res = cloneResult(e.res)
		// "Incomplete results that omit some legitimate documents": drop
		// the top document and promote the rest.
		e.res.Entries = e.res.Entries[1:]
		e.mustFail(t, "dropped result document",
			core.CodeIncomplete, core.CodeThreshold, core.CodeBadOrdering)
	}
}

func TestTamperSwapRanking(t *testing.T) {
	for _, v := range allVariants {
		e := freshEnv(t, v.algo, v.scheme)
		e.res = cloneResult(e.res)
		// "Altered ranking": swap two adjacent entries with strictly
		// different scores (swapping tied entries is a legitimate
		// reordering and rightly passes).
		swapped := false
		for i := 0; i+1 < len(e.res.Entries); i++ {
			if e.res.Entries[i].Score > e.res.Entries[i+1].Score {
				e.res.Entries[i], e.res.Entries[i+1] = e.res.Entries[i+1], e.res.Entries[i]
				swapped = true
				break
			}
		}
		if !swapped {
			t.Fatalf("%v-%v: all result scores tied; fixture too weak", v.algo, v.scheme)
		}
		e.mustFail(t, "swapped ranking", core.CodeBadOrdering)
	}
}

func TestTamperInflateScore(t *testing.T) {
	for _, v := range allVariants {
		e := freshEnv(t, v.algo, v.scheme)
		e.res = cloneResult(e.res)
		e.res.Entries[1].Score = e.res.Entries[0].Score + 1
		e.mustFail(t, "inflated score", core.CodeBadScore, core.CodeBadOrdering)
	}
}

func TestTamperSpuriousDocument(t *testing.T) {
	for _, v := range allVariants {
		e := freshEnv(t, v.algo, v.scheme)
		e.res = cloneResult(e.res)
		// "Spurious results": splice an unrelated document in.
		var outsider index.DocID
		seen := map[index.DocID]bool{}
		for _, en := range e.res.Entries {
			seen[en.Doc] = true
		}
		for d := 0; d < e.col.Index().N; d++ {
			if !seen[index.DocID(d)] {
				outsider = index.DocID(d)
				break
			}
		}
		e.res.Entries[len(e.res.Entries)-1] = core.ResultEntry{Doc: outsider, Score: e.res.Entries[len(e.res.Entries)-1].Score}
		e.res.Contents[outsider] = e.col.Index().Content[outsider]
		e.mustFail(t, "spurious document", core.CodeSpurious, core.CodeBadScore, core.CodeIncomplete)
	}
}

func TestTamperModifiedFrequency(t *testing.T) {
	for _, v := range allVariants {
		if v.algo != core.AlgoTNRA {
			continue
		}
		e := freshEnv(t, v.algo, v.scheme)
		// Inflate a revealed frequency: the list root no longer matches.
		e.vo.Terms[0].Freqs[0] *= 2
		e.mustFail(t, "modified list frequency", core.CodeBadTermProof, core.CodeBadSignature)
	}
}

func TestTamperReorderedList(t *testing.T) {
	for _, v := range allVariants {
		e := freshEnv(t, v.algo, v.scheme)
		tp := &e.vo.Terms[0]
		if tp.KProof < 2 {
			continue
		}
		tp.Docs[0], tp.Docs[1] = tp.Docs[1], tp.Docs[0]
		if tp.Freqs != nil {
			tp.Freqs[0], tp.Freqs[1] = tp.Freqs[1], tp.Freqs[0]
		}
		e.mustFail(t, "reordered list prefix", core.CodeBadTermProof, core.CodeBadSignature,
			core.CodeBadScore, core.CodeBadOrdering, core.CodeIncomplete, core.CodeBadConditions,
			core.CodeBadDocProof, core.CodeSpurious)
	}
}

func TestTamperTruncatedPrefix(t *testing.T) {
	// Shortening the revealed prefix (to hide a competitor) must trip the
	// root recomputation or the threshold condition.
	for _, v := range allVariants {
		e := freshEnv(t, v.algo, v.scheme)
		tp := &e.vo.Terms[0]
		if tp.KScore < 2 {
			continue
		}
		tp.KScore--
		tp.KProof--
		tp.Docs = tp.Docs[:tp.KProof]
		if tp.Freqs != nil {
			tp.Freqs = tp.Freqs[:tp.KProof]
		}
		e.mustFail(t, "truncated prefix")
	}
}

func TestTamperWrongSignature(t *testing.T) {
	for _, v := range allVariants {
		e := freshEnv(t, v.algo, v.scheme)
		sig := append([]byte{}, e.vo.Terms[0].Sig...)
		sig[0] ^= 0xff
		e.vo.Terms[0].Sig = sig
		e.mustFail(t, "corrupted term signature", core.CodeBadSignature)
	}
}

func TestTamperDocumentContent(t *testing.T) {
	for _, v := range allVariants {
		e := freshEnv(t, v.algo, v.scheme)
		e.res = cloneResult(e.res)
		d := e.res.Entries[0].Doc
		content := append([]byte{}, e.res.Contents[d]...)
		content[0] ^= 0xff
		e.res.Contents[d] = content
		e.mustFail(t, "tampered document content", core.CodeBadContent)
	}
}

func TestTamperDocProofWeight(t *testing.T) {
	// TRA only: inflating a frequency inside a document proof must break
	// the document-MHT root.
	for _, v := range allVariants {
		if v.algo != core.AlgoTRA {
			continue
		}
		e := freshEnv(t, v.algo, v.scheme)
		for i := range e.vo.Docs {
			if len(e.vo.Docs[i].Ws) > 0 {
				e.vo.Docs[i].Ws[0] *= 4
				break
			}
		}
		e.mustFail(t, "tampered document proof weight",
			core.CodeBadSignature, core.CodeBadDocProof, core.CodeBadContent)
	}
}

func TestTamperDroppedDocProof(t *testing.T) {
	for _, v := range allVariants {
		if v.algo != core.AlgoTRA {
			continue
		}
		e := freshEnv(t, v.algo, v.scheme)
		e.vo.Docs = e.vo.Docs[1:]
		e.mustFail(t, "dropped document proof", core.CodeBadDocProof)
	}
}

func TestTamperStorageCorruption(t *testing.T) {
	// Flip one byte of a stored authenticated structure: queries touching
	// it must fail verification. The injection target differs per variant:
	// TNRA authenticates ⟨d, f⟩ pairs in the lists, so a corrupted list
	// frequency breaks the list root; TRA authenticates frequencies through
	// the document records, so the record is the target (a corrupted TRA
	// list *weight* merely perturbs traversal order, which the threshold
	// check keeps honest — that case is covered by TestTamperTruncatedPrefix).
	for _, v := range allVariants {
		col := buildTestCollection(t, 23, 60, 25, nil)
		idx := col.Index()
		longest := index.TermID(0)
		for ti := 1; ti < idx.M(); ti++ {
			if idx.FT(index.TermID(ti)) > idx.FT(longest) {
				longest = index.TermID(ti)
			}
		}
		tokens := []string{idx.Name(longest)}

		if v.algo == core.AlgoTNRA {
			ext := col.Layout().Plain[longest]
			off := 12 // first block, entry 1's frequency bytes
			if v.scheme == core.SchemeCMHT {
				ext = col.Layout().ChainTNRA[longest]
				off = 16 + 4 + 8 + 4 // header, entry 1's frequency
			}
			if err := col.Device().Corrupt(ext.Start, off, 0x55); err != nil {
				t.Fatal(err)
			}
		} else {
			// Find the top document with a clean query, then corrupt a
			// frequency inside its document record.
			res, _, _, err := col.Search(tokens, 4, v.algo, v.scheme)
			if err != nil || len(res.Entries) == 0 {
				t.Fatalf("clean query failed: %v", err)
			}
			ext := col.Layout().Doc[res.Entries[0].Doc]
			sigLen := 128
			off := 4 + 16 + 2 + sigLen + 4 // count, hash, siglen, sig, leaf term id
			if err := col.Device().Corrupt(ext.Start, off, 0x55); err != nil {
				t.Fatal(err)
			}
		}

		res, voBytes, _, err := col.Search(tokens, 4, v.algo, v.scheme)
		if err != nil {
			continue // structural damage may already break the search
		}
		if _, err := col.VerifyResult(tokens, 4, res, voBytes); err == nil {
			t.Fatalf("%v-%v: storage corruption went undetected", v.algo, v.scheme)
		}
	}
}

func TestTamperReplayAcrossSchemes(t *testing.T) {
	// A signature over the TRA-MHT structure must not validate the
	// TNRA-MHT structure of the same term (kind is bound into the signed
	// message).
	col := buildTestCollection(t, 25, 40, 20, nil)
	idx := col.Index()
	tokens := []string{idx.Name(0)}
	res, voBytes, _, err := col.Search(tokens, 3, core.AlgoTNRA, core.SchemeMHT)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := vo.Decode(voBytes)
	if err != nil {
		t.Fatal(err)
	}
	// Substitute the TRA-kind signature for the same term.
	decoded.Terms[0].Sig = col.termSigs[core.KindTRAMHT-1][0]
	if err := col.verifyDecoded(tokens, 3, res, decoded); err == nil {
		t.Fatal("cross-kind signature replay accepted")
	} else if core.CodeOf(err) != core.CodeBadSignature {
		t.Fatalf("wrong code: %v", err)
	}
}

func TestTamperExtraTermProof(t *testing.T) {
	// The server cannot attach proofs for terms the user never queried.
	e := freshEnv(t, core.AlgoTNRA, core.SchemeCMHT)
	extra := e.vo.Terms[0]
	extra.Name = "never-queried-term"
	e.vo.Terms = append(e.vo.Terms, extra)
	e.mustFail(t, "extra term proof", core.CodeMalformedVO)
}

// TestLyingProverTRA plays the §1 adversary against TRA's two completeness
// checks on a dictionary-mode collection, where the document-root tree
// proves every revealed document. Each lie is proved like an honest answer,
// so only the named check can refuse it:
//
//   - stopped k pops before termination, answering with the top r of what
//     the shorter prefixes reveal: every such answer that is not the honest
//     one is CodeThreshold (the unseen documents are not bounded by the
//     tail), and at least one k produces one;
//   - the r-th hit left out and the (r+1)-th promoted: CodeIncomplete (an
//     encountered document outscores the tail).
//
// Unlied, the liar answers what Search answers, byte for byte.
func TestLyingProverTRA(t *testing.T) {
	col := buildTestCollection(t, 41, 120, 40, func(c *Config) { c.DictMode = true })
	idx := col.Index()
	const r = 4
	var unlied, thresholdLies, omissions int
	for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
		for _, tokens := range verboseQueries(idx, 5, 12) {
			honest, honestVO, stats, err := col.Search(tokens, r, core.AlgoTRA, scheme)
			if err != nil {
				t.Fatal(err)
			}
			res, lieVO, err := col.lieTRA(tokens, r, scheme, traLie{pops: -1})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lieVO, honestVO) {
				if !slices.Equal(res.Entries, honest.Entries) {
					continue // a tie with an unpopped head: TRA ranks popped documents only
				}
				t.Fatalf("%v %v: the unlied liar's VO differs from Search's", scheme, tokens)
			}
			unlied++

			for pops := stats.Iterations - 1; pops >= 1; pops-- {
				res, lieVO, err := col.lieTRA(tokens, r, scheme, traLie{pops: pops})
				if err != nil {
					t.Fatal(err)
				}
				_, err = col.VerifyResult(tokens, r, res, lieVO)
				switch {
				case err == nil:
					if !slices.Equal(res.Entries, honest.Entries) {
						t.Fatalf("%v %v, %d pops: a wrong answer verified", scheme, tokens, pops)
					}
				case len(res.Entries) < r:
					if core.CodeOf(err) != core.CodeIncomplete {
						t.Fatalf("%v %v, %d pops: a short answer classified %v, want %v", scheme, tokens, pops, err, core.CodeIncomplete)
					}
				case core.CodeOf(err) != core.CodeThreshold:
					t.Fatalf("%v %v, %d pops: classified %v, want %v", scheme, tokens, pops, err, core.CodeThreshold)
				default:
					thresholdLies++
				}
			}

			res, lieVO, err = col.lieTRA(tokens, r, scheme, traLie{pops: -1, omitR: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Entries) < r || res.Entries[r-1].Score >= honest.Entries[r-1].Score {
				continue // no strictly lower (r+1)-th document to promote
			}
			if _, err := col.VerifyResult(tokens, r, res, lieVO); core.CodeOf(err) != core.CodeIncomplete {
				t.Fatalf("%v %v: the r-th hit omitted classified %v, want %v", scheme, tokens, err, core.CodeIncomplete)
			}
			omissions++
		}
	}
	t.Logf("%d unlied answers equal Search's; %d early stops and %d omissions refused", unlied, thresholdLies, omissions)
	if unlied == 0 || thresholdLies == 0 || omissions == 0 {
		t.Fatal("the liar never told the truth, or a check was never needed")
	}
}

// TestLyingProverTRAContent plays the §1 adversary against the two TRA
// checks no other lie reaches, on a dictionary-mode collection, every lie
// proved like an honest answer:
//
//   - a short answer — every list exhausted, fewer than r documents
//     encountered — that leaves one encountered document out:
//     CodeIncomplete, "short result omits encountered doc";
//   - a hit whose document proof is not marked in-result, so that the
//     proof binds the committed digest and not the delivered body:
//     CodeBadContent, "content not bound to its proof".
func TestLyingProverTRAContent(t *testing.T) {
	col := buildTestCollection(t, 41, 120, 40, func(c *Config) { c.DictMode = true })
	idx := col.Index()
	const r = 8
	var shorts, unbound int
	for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
		// Asked for more documents than the collection holds, every answer
		// is short: TRA pops every list to its end.
		short := idx.N + 1
		for term := 0; term < 6; term++ {
			tokens := []string{idx.Name(index.TermID(term))}
			res, lieVO, err := col.lieTRA(tokens, short, scheme, traLie{pops: -1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := col.VerifyResult(tokens, short, res, lieVO); err != nil || len(res.Entries) < 2 {
				t.Fatalf("%v %v: the unlied short answer of %d hits: %v", scheme, tokens, len(res.Entries), err)
			}
			res, lieVO, err = col.lieTRA(tokens, short, scheme, traLie{pops: -1, dropLast: true})
			if err != nil {
				t.Fatal(err)
			}
			_, err = col.VerifyResult(tokens, short, res, lieVO)
			if core.CodeOf(err) != core.CodeIncomplete || !strings.Contains(err.Error(), "short result omits encountered doc") {
				t.Fatalf("%v %v: a short answer omitting a document classified %v", scheme, tokens, err)
			}
			shorts++
		}
		for _, tokens := range verboseQueries(idx, 5, 12) {
			res, lieVO, err := col.lieTRA(tokens, r, scheme, traLie{pops: -1, unbound: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Entries) == 0 {
				continue
			}
			_, err = col.VerifyResult(tokens, r, res, lieVO)
			if core.CodeOf(err) != core.CodeBadContent || !strings.Contains(err.Error(), "content not bound to its proof") {
				t.Fatalf("%v %v: a hit proved outside the answer classified %v", scheme, tokens, err)
			}
			unbound++
		}
	}
	t.Logf("%d short answers omitting a document and %d unbound hits refused", shorts, unbound)
	if shorts == 0 || unbound == 0 {
		t.Fatal("no query reached a check")
	}
}

// TestLyingProverTNRA plays the §1 adversary against TNRA's completeness
// checks on a dictionary-mode collection. Every lie is proved like an
// honest answer, and its hits are what the canonical evaluation of its
// prefixes ranks, so the content and ordering checks pass it:
//
//   - stopped k pops before termination, on every list, or on one list
//     while the others run on to Search's pop count: every such answer that
//     is refused is CodeBadConditions (Fig 10's termination conditions do
//     not hold over the shorter prefixes), one that is accepted is Search's,
//     and lies that differ from Search's answer are refused;
//   - Search's prefixes with the last hit left out: CodeIncomplete.
//
// Unlied, the liar answers what Search answers, byte for byte.
func TestLyingProverTNRA(t *testing.T) {
	col := buildTestCollection(t, 41, 120, 40, func(c *Config) { c.DictMode = true })
	idx := col.Index()
	const r = 4
	var accepted, refused [2]int // [0] every list stopped, [1] one list
	var short int
	for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
		for _, tokens := range verboseQueries(idx, 5, 12) {
			honest, honestVO, stats, err := col.Search(tokens, r, core.AlgoTNRA, scheme)
			if err != nil {
				t.Fatal(err)
			}
			pops := stats.Iterations
			res, lieVO, err := col.lieTNRA(tokens, r, scheme, tnraLie{pops: pops})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lieVO, honestVO) || !slices.Equal(res.Entries, honest.Entries) {
				t.Fatalf("%v %v: the unlied liar's answer differs from Search's", scheme, tokens)
			}

			lies := []tnraLie{{pops: pops, short: true}}
			for k := 0; k < pops; k++ {
				lies = append(lies, tnraLie{pops: k})
			}
			for list := range stats.QueryTerms {
				for k := 0; k < pops; k += max(1, pops/8) {
					lies = append(lies, tnraLie{pops: pops, oneList: true, list: list, at: k})
				}
			}
			for _, lie := range lies {
				res, lieVO, err := col.lieTNRA(tokens, r, scheme, lie)
				if err != nil {
					t.Fatal(err)
				}
				_, err = col.VerifyResult(tokens, r, res, lieVO)
				kind := 0
				if lie.oneList {
					kind = 1
				}
				switch {
				case lie.short:
					if core.CodeOf(err) != core.CodeIncomplete {
						t.Fatalf("%v %v: a short answer classified %v, want %v", scheme, tokens, err, core.CodeIncomplete)
					}
					short++
				case err == nil:
					if !slices.Equal(res.Entries, honest.Entries) {
						t.Fatalf("%v %v, %+v: a wrong answer verified", scheme, tokens, lie)
					}
					accepted[kind]++
				case core.CodeOf(err) != core.CodeBadConditions:
					t.Fatalf("%v %v, %+v: classified %v, want %v", scheme, tokens, lie, err, core.CodeBadConditions)
				case !slices.Equal(res.Entries, honest.Entries):
					refused[kind]++
				}
			}
		}
	}
	t.Logf("%d short answers refused; every list stopped: %d wrong answers refused, %d right ones accepted; one list stopped: %d refused, %d accepted",
		short, refused[0], accepted[0], refused[1], accepted[1])
	if short == 0 || refused[0] == 0 || refused[1] == 0 {
		t.Fatal("a check was never needed")
	}
}

// TestLyingProverVocabulary claims that an indexed query term is absent,
// with real name-dictionary leaves proved against the signed root, so each
// lie breaks exactly one rule of a non-membership proof, and only that
// rule refuses it:
//
//   - one boundary leaf on the wrong side of the token;
//   - two real leaves that are not adjacent, though they straddle it;
//   - two adjacent leaves that do not straddle it.
//
// Every lie must classify CodeBadVocabProof; the honest answer verifies.
func TestLyingProverVocabulary(t *testing.T) {
	col := buildTestCollection(t, 43, 80, 40, func(c *Config) { c.DictMode, c.VocabProofs = true, true })
	idx := col.Index()
	m := idx.M()
	p := m / 2
	kept, absent := idx.Name(0), idx.Name(index.TermID(p))
	tokens := []string{kept, absent}
	lies := map[string][]int{
		"first leaf, token after it":      {0},
		"last leaf, token before it":      {m - 1},
		"leaves not adjacent":             {p - 1, p + 1},
		"adjacent leaves after the token": {p + 1, p + 2},
		"adjacent leaves before it":       {p - 2, p - 1},
	}
	for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
		for _, algo := range []core.Algo{core.AlgoTRA, core.AlgoTNRA} {
			res, voBytes, _, err := col.Search(tokens, 3, algo, scheme)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := col.VerifyResult(tokens, 3, res, voBytes); err != nil {
				t.Fatalf("%v-%v: honest answer: %v", algo, scheme, err)
			}
			for name, positions := range lies {
				res, lieVO, err := col.lieAbsent(tokens, absent, positions, 3, algo, scheme)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := col.VerifyResult(tokens, 3, res, lieVO); core.CodeOf(err) != core.CodeBadVocabProof {
					t.Fatalf("%v-%v, %s: classified %v, want %v", algo, scheme, name, err, core.CodeBadVocabProof)
				}
			}
		}
	}
}
