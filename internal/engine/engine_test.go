package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/okapi"
	"authtext/internal/sig"
	"authtext/internal/store"
)

func testSigner(t testing.TB) sig.Signer {
	t.Helper()
	s, err := sig.NewHMACSigner([]byte("engine-test-key"), 128)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func smallParams() store.Params {
	p := store.DefaultParams()
	p.BlockSize = 256 // small blocks exercise multi-block lists on tiny corpora
	return p
}

// randomDocs builds a skewed random corpus.
func randomDocs(r *rand.Rand, nDocs, vocab int) []index.Document {
	docs := make([]index.Document, nDocs)
	for i := range docs {
		ln := 3 + r.Intn(60)
		toks := make([]string, ln)
		for j := range toks {
			w := int(math.Floor(math.Pow(r.Float64(), 2.5) * float64(vocab)))
			toks[j] = fmt.Sprintf("w%03d", w)
		}
		content := []byte(fmt.Sprintf("document %d: %v", i, toks))
		docs[i] = index.Document{Content: content, Tokens: toks}
	}
	return docs
}

func buildTestCollection(t testing.TB, seed int64, nDocs, vocab int, mutate func(*Config)) *Collection {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	cfg := Config{
		Store:            smallParams(),
		HashSize:         16,
		Signer:           testSigner(t),
		Okapi:            okapi.DefaultParams(),
		RemoveSingletons: false,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	col, err := BuildCollection(randomDocs(r, nDocs, vocab), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

var allVariants = []struct {
	algo   core.Algo
	scheme core.Scheme
}{
	{core.AlgoTRA, core.SchemeMHT},
	{core.AlgoTRA, core.SchemeCMHT},
	{core.AlgoTNRA, core.SchemeMHT},
	{core.AlgoTNRA, core.SchemeCMHT},
}

func TestSearchAndVerifyAllVariants(t *testing.T) {
	col := buildTestCollection(t, 1, 60, 40, nil)
	r := rand.New(rand.NewSource(2))
	idx := col.Index()
	for trial := 0; trial < 25; trial++ {
		nq := 1 + r.Intn(4)
		tokens := make([]string, nq)
		for i := range tokens {
			tokens[i] = idx.Name(index.TermID(r.Intn(idx.M())))
		}
		rr := 1 + r.Intn(8)
		for _, v := range allVariants {
			res, voBytes, stats, err := col.Search(tokens, rr, v.algo, v.scheme)
			if err != nil {
				t.Fatalf("%v-%v %v: %v", v.algo, v.scheme, tokens, err)
			}
			if _, err := col.VerifyResult(tokens, rr, res, voBytes); err != nil {
				t.Fatalf("%v-%v %v r=%d: verification failed: %v", v.algo, v.scheme, tokens, rr, err)
			}
			if stats.VO.Total() != len(voBytes) {
				t.Fatalf("VO breakdown %d != encoded %d", stats.VO.Total(), len(voBytes))
			}
			if stats.EntriesRead < len(tokens) {
				t.Fatalf("entries read %d < q", stats.EntriesRead)
			}
		}
	}
}

func TestResultsAgreeAcrossVariantsAndPSCAN(t *testing.T) {
	col := buildTestCollection(t, 3, 80, 50, nil)
	idx := col.Index()
	r := rand.New(rand.NewSource(4))
	src := &core.MemSource{Idx: idx}
	for trial := 0; trial < 20; trial++ {
		tokens := []string{
			idx.Name(index.TermID(r.Intn(idx.M()))),
			idx.Name(index.TermID(r.Intn(idx.M()))),
			idx.Name(index.TermID(r.Intn(idx.M()))),
		}
		rr := 1 + r.Intn(10)
		q, err := core.BuildQuery(idx, tokens)
		if err != nil || len(q.Terms) == 0 {
			continue
		}
		oracle, err := core.PSCAN(q, src)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle
		if len(want) > rr {
			want = want[:rr]
		}
		trueScore := make(map[index.DocID]float64)
		for _, e := range oracle {
			trueScore[e.Doc] = e.Score
		}
		for _, v := range allVariants {
			res, _, _, err := col.Search(tokens, rr, v.algo, v.scheme)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Entries) != len(want) {
				t.Fatalf("%v-%v: %d results, oracle %d", v.algo, v.scheme, len(res.Entries), len(want))
			}
			for i, e := range res.Entries {
				ts, ok := trueScore[e.Doc]
				if !ok {
					t.Fatalf("%v-%v: doc %d unknown to oracle", v.algo, v.scheme, e.Doc)
				}
				if math.Abs(ts-want[i].Score) > 1e-12 {
					t.Fatalf("%v-%v: position %d true score %v, oracle %v", v.algo, v.scheme, i, ts, want[i].Score)
				}
			}
		}
	}
}

func TestMHTAndCMHTReadSameEntries(t *testing.T) {
	// Fig 13a: the MHT and CMHT variants of the same algorithm have the
	// same cut-off, hence equal entries read.
	col := buildTestCollection(t, 5, 70, 40, nil)
	idx := col.Index()
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 15; trial++ {
		tokens := []string{
			idx.Name(index.TermID(r.Intn(idx.M()))),
			idx.Name(index.TermID(r.Intn(idx.M()))),
		}
		for _, algo := range []core.Algo{core.AlgoTRA, core.AlgoTNRA} {
			_, _, sMHT, err := col.Search(tokens, 5, algo, core.SchemeMHT)
			if err != nil {
				t.Fatal(err)
			}
			_, _, sCMHT, err := col.Search(tokens, 5, algo, core.SchemeCMHT)
			if err != nil {
				t.Fatal(err)
			}
			if sMHT.EntriesRead != sCMHT.EntriesRead {
				t.Fatalf("%v: MHT read %d entries, CMHT %d", algo, sMHT.EntriesRead, sCMHT.EntriesRead)
			}
		}
	}
}

func TestUnknownTokensIgnored(t *testing.T) {
	col := buildTestCollection(t, 7, 40, 30, nil)
	idx := col.Index()
	tokens := []string{idx.Name(0), "zzzz-not-in-dictionary"}
	for _, v := range allVariants {
		res, voBytes, _, err := col.Search(tokens, 3, v.algo, v.scheme)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := col.VerifyResult(tokens, 3, res, voBytes); err != nil {
			t.Fatalf("%v-%v: %v", v.algo, v.scheme, err)
		}
	}
}

func TestAllUnknownQuery(t *testing.T) {
	col := buildTestCollection(t, 7, 40, 30, nil)
	tokens := []string{"nope", "zilch"}
	res, voBytes, _, err := col.Search(tokens, 3, core.AlgoTNRA, core.SchemeCMHT)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 0 {
		t.Fatal("results for a fully out-of-dictionary query")
	}
	if _, err := col.VerifyResult(tokens, 3, res, voBytes); err != nil {
		t.Fatal(err)
	}
}

func TestDictionaryMode(t *testing.T) {
	col := buildTestCollection(t, 9, 50, 35, func(c *Config) { c.DictMode = true })
	idx := col.Index()
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		tokens := []string{
			idx.Name(index.TermID(r.Intn(idx.M()))),
			idx.Name(index.TermID(r.Intn(idx.M()))),
		}
		for _, v := range allVariants {
			res, voBytes, _, err := col.Search(tokens, 4, v.algo, v.scheme)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := col.VerifyResult(tokens, 4, res, voBytes); err != nil {
				t.Fatalf("dict mode %v-%v: %v", v.algo, v.scheme, err)
			}
		}
	}
}

func TestVocabProofs(t *testing.T) {
	col := buildTestCollection(t, 11, 40, 30, func(c *Config) { c.VocabProofs = true })
	idx := col.Index()
	// Tokens that sort before, between, and after dictionary terms.
	tokens := []string{idx.Name(0), "aaaa", "w0500x", "zzzz"}
	res, voBytes, _, err := col.Search(tokens, 3, core.AlgoTNRA, core.SchemeCMHT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.VerifyResult(tokens, 3, res, voBytes); err != nil {
		t.Fatalf("vocab proofs: %v", err)
	}
}

func TestVocabProofsDetectDroppedTerm(t *testing.T) {
	// With the extension enabled, silently dropping a dictionary term from
	// the query must be detected: the server cannot produce a
	// non-membership proof for a term that exists.
	col := buildTestCollection(t, 11, 40, 30, func(c *Config) { c.VocabProofs = true })
	idx := col.Index()
	kept, dropped := idx.Name(0), idx.Name(index.TermID(idx.M()/2))
	tokens := []string{kept, dropped}
	// Honest query on the kept term only; then claim it answered both.
	res, voBytes, _, err := col.Search([]string{kept}, 3, core.AlgoTNRA, core.SchemeCMHT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.VerifyResult(tokens, 3, res, voBytes); err == nil {
		t.Fatal("dropped dictionary term went undetected")
	} else if core.CodeOf(err) != core.CodeBadVocabProof {
		t.Fatalf("wrong code: %v", err)
	}
}

func TestIOAccountingShape(t *testing.T) {
	// TNRA-CMHT must read no more blocks than TNRA-MHT (which scans whole
	// lists for digest regeneration), and TRA must incur random accesses.
	col := buildTestCollection(t, 13, 120, 30, nil)
	idx := col.Index()
	// Pick the longest list's term to make the gap visible.
	longest := index.TermID(0)
	for t2 := 1; t2 < idx.M(); t2++ {
		if idx.FT(index.TermID(t2)) > idx.FT(longest) {
			longest = index.TermID(t2)
		}
	}
	tokens := []string{idx.Name(longest)}
	_, _, sMHT, err := col.Search(tokens, 3, core.AlgoTNRA, core.SchemeMHT)
	if err != nil {
		t.Fatal(err)
	}
	_, _, sCMHT, err := col.Search(tokens, 3, core.AlgoTNRA, core.SchemeCMHT)
	if err != nil {
		t.Fatal(err)
	}
	if sCMHT.IO.BlockReads > sMHT.IO.BlockReads {
		t.Fatalf("TNRA-CMHT read %d blocks, TNRA-MHT %d", sCMHT.IO.BlockReads, sMHT.IO.BlockReads)
	}
	_, _, sTRA, err := col.Search(tokens, 3, core.AlgoTRA, core.SchemeCMHT)
	if err != nil {
		t.Fatal(err)
	}
	if sTRA.RandomAccesses == 0 {
		t.Fatal("TRA made no random accesses")
	}
}

func TestSpaceReport(t *testing.T) {
	col := buildTestCollection(t, 15, 50, 30, nil)
	sp := col.Space()
	if sp.PlainListBytes == 0 || sp.ChainTRABytes == 0 || sp.ChainTNRABytes == 0 || sp.DocRecordBytes == 0 {
		t.Fatalf("incomplete space report: %+v", sp)
	}
	if sp.DeviceBytes < sp.PlainListBytes+sp.ChainTRABytes+sp.ChainTNRABytes {
		t.Fatalf("device smaller than its parts: %+v", sp)
	}
	bs := col.BuildStats()
	if bs.Signatures != 4*col.Index().M()+col.Index().N+1 {
		t.Fatalf("signature count %d", bs.Signatures)
	}
}

func TestBuildRejectsMissingSigner(t *testing.T) {
	if _, err := BuildCollection(randomDocs(rand.New(rand.NewSource(1)), 5, 10), Config{}); err == nil {
		t.Fatal("missing signer accepted")
	}
}

func TestSearchRejectsBadR(t *testing.T) {
	col := buildTestCollection(t, 17, 20, 15, nil)
	if _, _, _, err := col.Search([]string{col.Index().Name(0)}, 0, core.AlgoTRA, core.SchemeMHT); err == nil {
		t.Fatal("r=0 accepted")
	}
}

// failingSigner signs with the wrapped signer until its budget of calls is
// spent, then fails every call.
type failingSigner struct {
	sig.Signer
	budget atomic.Int64
}

var errSignerBroke = errors.New("signer broke")

func (s *failingSigner) Sign(msg []byte) ([]byte, error) {
	if s.budget.Add(-1) < 0 {
		return nil, errSignerBroke
	}
	return s.Signer.Sign(msg)
}

// TestBuildSignerErrorStopsEveryWorker: a signer failing mid-build — in the
// document phase, in the term phase, or at the manifest — fails the build
// with that error, and no build goroutine outlives the call.
func TestBuildSignerErrorStopsEveryWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	docs := randomDocs(rand.New(rand.NewSource(11)), 700, 900) // more than one chunk of each phase
	cfg := DefaultConfig(nil)
	full, err := BuildCollection(docs, DefaultConfig(testSigner(t)))
	if err != nil {
		t.Fatal(err)
	}
	total := full.BuildStats().Signatures
	if n, m := full.Index().N, full.Index().M(); n <= buildChunk || m <= buildChunk || total != n+4*m+1 {
		t.Fatalf("fixture too small or miscounted: %d docs, %d terms, %d signatures", n, m, total)
	}
	before := runtime.NumGoroutine()
	for _, budget := range []int{0, 300, 700 + 4*100, total - 1} {
		signer := &failingSigner{Signer: testSigner(t)}
		signer.budget.Store(int64(budget))
		cfg.Signer = signer
		if _, err := BuildCollection(docs, cfg); !errors.Is(err, errSignerBroke) {
			t.Fatalf("signer failing after %d signatures: build returned %v", budget, err)
		}
	}
	// Workers have all called Done before the build returns; give the
	// scheduler a moment to retire them before counting.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines before the failed builds, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// countingSigner hands out a verifier that counts the checks reaching it.
type countingSigner struct {
	sig.Signer
	checks atomic.Int64
}

type countingVerifier struct {
	sig.Verifier
	checks *atomic.Int64
}

func (s *countingSigner) Verifier() sig.Verifier {
	return countingVerifier{s.Signer.Verifier(), &s.checks}
}

func (v countingVerifier) Verify(msg, sigBytes []byte) error {
	v.checks.Add(1)
	return v.Verifier.Verify(msg, sigBytes)
}

// TestVerifyResultChecksEverySignatureEveryCall: VerifyResult is the cold
// verification cost the paper's figures report: every signature an answer
// carries is checked against the key, however often the answer repeats.
func TestVerifyResultChecksEverySignatureEveryCall(t *testing.T) {
	signer := &countingSigner{Signer: testSigner(t)}
	col := buildTestCollection(t, 5, 120, 80, func(c *Config) { c.Signer = signer })
	tokens := []string{"w000", "w001", "w003"}
	res, voBytes, _, err := col.Search(tokens, 5, core.AlgoTRA, core.SchemeCMHT)
	if err != nil {
		t.Fatal(err)
	}
	var perCall int64
	for call := 1; call <= 3; call++ {
		before := signer.checks.Load()
		if _, err := col.VerifyResult(tokens, 5, res, voBytes); err != nil {
			t.Fatal(err)
		}
		got := signer.checks.Load() - before
		if call == 1 {
			perCall = got
		}
		if got == 0 || got != perCall {
			t.Fatalf("call %d checked %d signatures, the first checked %d", call, got, perCall)
		}
	}
}
