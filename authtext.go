package authtext

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"authtext/internal/core"
	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/okapi"
	"authtext/internal/sig"
	"authtext/internal/store"
	"authtext/internal/textproc"
)

// Algorithm selects the query processing strategy.
type Algorithm int

const (
	// TRA is Threshold with Random Access (§3.3): fewest list entries
	// read, at the price of one random document access per encountered
	// document and larger VOs.
	TRA Algorithm = iota + 1
	// TNRA is Threshold with No Random Access (§3.4): sorted access only,
	// sequential I/O, the smallest VOs. The paper's overall winner when
	// paired with ChainMHT.
	TNRA
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if a == TRA {
		return "TRA"
	}
	return "TNRA"
}

// Scheme selects the authentication structure.
type Scheme int

const (
	// MHT authenticates each inverted list with a single Merkle tree
	// (§3.3.1); the server re-reads whole lists to regenerate digests.
	MHT Scheme = iota + 1
	// ChainMHT authenticates each list with a back-to-front chain of
	// per-block Merkle trees plus buddy inclusion (§3.3.2); the server
	// never reads past the query's cut-off block.
	ChainMHT
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	if s == MHT {
		return "MHT"
	}
	return "CMHT"
}

func (a Algorithm) core() core.Algo {
	if a == TRA {
		return core.AlgoTRA
	}
	return core.AlgoTNRA
}

func (s Scheme) core() core.Scheme {
	if s == MHT {
		return core.SchemeMHT
	}
	return core.SchemeCMHT
}

// Document is an input document: raw content, optionally pre-tokenised.
type Document struct {
	Content []byte
	// Tokens, when non-nil, bypasses the tokenizer (stopwords are still
	// removed).
	Tokens []string
}

// Hit is one entry of a verified result.
type Hit struct {
	DocID   int
	Score   float64
	Content []byte
}

// SearchResult bundles everything the server returns for a query: the
// ordered hits, the verification object, and the server-side cost report.
type SearchResult struct {
	Hits []Hit
	// VO is the encoded verification object; archive it alongside the
	// result to build an audit trail (§1).
	VO []byte
	// Generation is the publication generation that answered (0 for
	// static collections). The authoritative stamp travels inside the VO
	// and is cross-checked during verification; this copy is the
	// convenient, untrusted echo (docs/UPDATES.md).
	Generation uint64
	Stats      Stats
}

// Stats reports the per-query costs the paper measures (§4.1).
type Stats struct {
	Algorithm Algorithm
	Scheme    Scheme
	// Shards is the fan-out width when the record aggregates a sharded
	// query (QueryLog on sharded handlers); 0 for a single collection.
	Shards         int
	QueryTerms     int
	EntriesRead    int
	EntriesPerTerm float64
	PctListRead    float64
	BlockReads     int64
	RandomReads    int64
	// IOTime is simulated disk time under the configured cost model.
	IOTime StatsDuration
	// ServerTime is the real wall time the engine spent answering this
	// query (search + VO assembly). Unlike a wall clock around a batch, it
	// is per-query even when queries run concurrently.
	ServerTime StatsDuration
	// VOBytes is the encoded VO size.
	VOBytes int
}

// StatsDuration is a float64 millisecond count (keeps Stats printable
// without importing time).
type StatsDuration float64

// String implements fmt.Stringer.
func (d StatsDuration) String() string { return fmt.Sprintf("%.3fms", float64(d)) }

// options collects construction-time settings.
type options struct {
	blockSize        int
	hashSize         int
	rsaBits          int
	fastSignerKey    []byte
	dictMode         bool
	vocabProofs      bool
	keepSingletons   bool
	k1, b            float64
	storeParamsSet   bool
	storeParams      store.Params
	signerOverridden bool
	authority        []float64
	pageRankLinks    [][]int
	beta             float64
	partitioner      ShardPartitioner
}

// Option customises NewOwner.
type Option func(*options)

// WithBlockSize sets the simulated disk block size (default 1024, §4.1).
func WithBlockSize(n int) Option { return func(o *options) { o.blockSize = n } }

// WithHashSize sets the digest size in bytes (default 16 = 128 bits,
// Table 1).
func WithHashSize(n int) Option { return func(o *options) { o.hashSize = n } }

// WithRSABits sets the RSA modulus size (default 1024 bits, Table 1).
func WithRSABits(n int) Option { return func(o *options) { o.rsaBits = n } }

// WithFastSigner replaces RSA with a keyed-hash signer of identical
// signature size. Builds become orders of magnitude faster but signatures
// are only verifiable by holders of the key — benchmarking only.
func WithFastSigner(key []byte) Option {
	return func(o *options) { o.fastSignerKey = key; o.signerOverridden = true }
}

// WithDictionaryMode stores one signature for the whole index via a
// dictionary-MHT instead of one per inverted list (§3.4 space
// optimisation), trading VO size for storage.
func WithDictionaryMode() Option { return func(o *options) { o.dictMode = true } }

// WithVocabularyProofs enables non-membership proofs for out-of-dictionary
// query terms, closing the dropped-term gap (docs/ARCHITECTURE.md,
// "Departures from the paper").
func WithVocabularyProofs() Option { return func(o *options) { o.vocabProofs = true } }

// WithSingletonTerms keeps terms that occur in only one document (the
// paper removes them, §4.1).
func WithSingletonTerms() Option { return func(o *options) { o.keepSingletons = true } }

// WithOkapi overrides the similarity parameters (defaults k1=1.2, b=0.75).
func WithOkapi(k1, b float64) Option { return func(o *options) { o.k1, o.b = k1, b } }

// WithDiskModel overrides the simulated disk cost parameters.
func WithDiskModel(p DiskModel) Option {
	return func(o *options) {
		o.storeParamsSet = true
		o.storeParams = store.Params{
			BlockSize:           p.BlockSize,
			Seek:                p.Seek,
			Rotation:            p.Rotation,
			TransferBytesPerSec: p.TransferBytesPerSec,
		}
	}
}

// DiskModel mirrors the simulated disk parameters (see store.Params).
type DiskModel struct {
	BlockSize           int
	Seek                time.Duration
	Rotation            time.Duration
	TransferBytesPerSec float64
}

// Owner builds and publishes an authenticated collection.
type Owner struct {
	col *engine.Collection
}

// prepareBuild resolves the option list into a ready engine configuration
// (fresh signer included) and the engine-level document slice. It is shared
// by NewOwner and NewShardedOwner so both build identically configured
// collections.
func prepareBuild(docs []Document, opts []Option) (engine.Config, []index.Document, *options, error) {
	if len(docs) == 0 {
		return engine.Config{}, nil, nil, errors.New("authtext: empty collection")
	}
	o := &options{blockSize: 1024, hashSize: sig.DefaultHashSize, rsaBits: sig.DefaultRSABits,
		k1: okapi.DefaultK1, b: okapi.DefaultB}
	for _, opt := range opts {
		opt(o)
	}
	var signer sig.Signer
	var err error
	if o.signerOverridden {
		signer, err = sig.NewHMACSigner(o.fastSignerKey, 128)
	} else {
		signer, err = sig.NewRSASigner(o.rsaBits)
	}
	if err != nil {
		return engine.Config{}, nil, nil, err
	}
	params := store.DefaultParams()
	if o.storeParamsSet {
		params = o.storeParams
	}
	params.BlockSize = o.blockSize
	authority, err := computeAuthority(o, len(docs))
	if err != nil {
		return engine.Config{}, nil, nil, err
	}
	cfg := engine.Config{
		Store:            params,
		HashSize:         o.hashSize,
		Signer:           signer,
		Okapi:            okapi.Params{K1: o.k1, B: o.b},
		RemoveSingletons: !o.keepSingletons,
		DictMode:         o.dictMode,
		VocabProofs:      o.vocabProofs,
		Authority:        authority,
		Beta:             o.beta,
	}
	idocs := make([]index.Document, len(docs))
	for i, d := range docs {
		idocs[i] = index.Document{Content: d.Content, Tokens: d.Tokens}
	}
	return cfg, idocs, o, nil
}

// NewOwner indexes the documents and constructs every authentication
// structure with a freshly generated RSA key (unless WithFastSigner).
func NewOwner(docs []Document, opts ...Option) (*Owner, error) {
	cfg, idocs, _, err := prepareBuild(docs, opts)
	if err != nil {
		return nil, err
	}
	col, err := engine.BuildCollection(idocs, cfg)
	if err != nil {
		return nil, err
	}
	return &Owner{col: col}, nil
}

// Server returns the query-serving half (hand it, conceptually, to the
// untrusted host).
func (o *Owner) Server() *Server { return &Server{col: o.col} }

// Client returns the verification half (publish it to users: it embeds
// only the signed manifest and the public key).
func (o *Owner) Client() *Client {
	m, msig := o.col.Manifest()
	return newClient(m, msig, o.col.Verifier(), false)
}

// Stats summarises the owner-side build.
func (o *Owner) Stats() (buildMillis float64, signatures int, deviceBytes int64) {
	bs := o.col.BuildStats()
	return float64(bs.BuildTime.Milliseconds()), bs.Signatures, o.col.Space().DeviceBytes
}

// Server answers queries with integrity proofs. It is safe for concurrent
// use: the underlying collection is immutable once built, every query runs
// on its own store session, and any number of Search calls may be in
// flight at once (docs/CONCURRENCY.md describes the model). SearchBatch
// executes many queries with a bounded worker pool.
type Server struct {
	col *engine.Collection
	// cache, when non-nil, serves repeat queries from pre-built answers
	// (see cache.go for the safety argument). Set before serving starts.
	cache *VOCache
	// metrics, when non-nil, receives per-stage cost observations
	// (metrics.go). Set before serving starts.
	metrics *Metrics
}

// SetVOCache attaches a VO cache (nil detaches). Call before the server
// starts answering queries; the cache itself is safe for concurrent use
// and may be shared between servers.
func (s *Server) SetVOCache(c *VOCache) { s.cache = c }

// SetMetrics attaches a metric registry (nil detaches). Call before the
// server starts answering queries; one Metrics may be shared between
// servers.
func (s *Server) SetMetrics(m *Metrics) { s.metrics = m }

// withCache returns a shallow copy of s serving through c (s itself when
// there is nothing to change). Snapshot accessors that hand out a SHARED
// *Server use it so attaching a cache never mutates a server other
// goroutines are reading.
func (s *Server) withCache(c *VOCache) *Server {
	if c == nil || c == s.cache {
		return s
	}
	cp := *s
	cp.cache = c
	return &cp
}

// withMetrics is withCache for the metric registry.
func (s *Server) withMetrics(m *Metrics) *Server {
	if m == nil || m == s.metrics {
		return s
	}
	cp := *s
	cp.metrics = m
	return &cp
}

// Search runs a top-r similarity query. The query text goes through the
// same pipeline as the documents (lowercasing, stopword removal);
// out-of-dictionary terms are ignored per §3.1. Search is safe for
// concurrent use, and per-query Stats are unaffected by concurrency.
func (s *Server) Search(query string, r int, algo Algorithm, scheme Scheme) (*SearchResult, error) {
	tokens := textproc.Terms(query)
	manifest, _ := s.col.Manifest()
	var key string
	if s.cache != nil {
		key = cacheKey(cacheKindSingle, tokens, r, algo, scheme, manifest.Generation)
		lookupStart := time.Now()
		res, ok := s.cache.getResult(key)
		s.metrics.observeCacheLookup(time.Since(lookupStart))
		if ok {
			s.metrics.recordSearchHit()
			return res, nil
		}
	}
	res, voBytes, st, err := s.col.Search(tokens, r, algo.core(), scheme.core())
	if err != nil {
		return nil, err
	}
	out := &SearchResult{VO: voBytes, Generation: manifest.Generation}
	for _, e := range res.Entries {
		out.Hits = append(out.Hits, Hit{DocID: int(e.Doc), Score: e.Score, Content: res.Contents[e.Doc]})
	}
	out.Stats = Stats{
		Algorithm:      algo,
		Scheme:         scheme,
		QueryTerms:     st.QueryTerms,
		EntriesRead:    st.EntriesRead,
		EntriesPerTerm: st.EntriesPerTerm,
		PctListRead:    st.PctListRead,
		BlockReads:     st.IO.BlockReads,
		RandomReads:    st.IO.RandomReads,
		IOTime:         StatsDuration(float64(st.IO.SimTime.Microseconds()) / 1000),
		ServerTime:     StatsDuration(float64(st.ServerWall.Microseconds()) / 1000),
		VOBytes:        len(voBytes),
	}
	s.metrics.recordSearch(st)
	if s.cache != nil {
		s.cache.putResult(key, manifest.Generation, out)
	}
	return out, nil
}

// ErrStaleGeneration classifies rollback: a server (or manifest channel)
// presenting an older publication generation than one this client already
// accepted. Test with errors.Is; IsTampered reports true for it.
// docs/UPDATES.md describes the generation trust rules.
var ErrStaleGeneration error = &core.VerifyError{
	Code:   core.CodeStaleGeneration,
	Detail: "older generation than one already accepted",
}

// ErrEquivocation classifies fleet equivocation: replicas of one
// collection presenting conflicting signed states — two different
// manifests for the same generation (a split view or a forked generation
// chain), or a replica frozen at an old generation while the rest of the
// fleet advances. Both sides of the conflict carry valid owner
// signatures, so this is misbehaviour by the serving side (or a stolen
// signing key), never a transient failure: test with errors.Is;
// IsTampered reports true for it. FleetClient.CrossCheck raises it
// (docs/FLEET.md describes the trust model).
var ErrEquivocation error = &core.VerifyError{
	Code:   core.CodeEquivocation,
	Detail: "conflicting signed states for the same collection",
}

// Client verifies query results against the owner's published manifest and
// public key. It holds no collection data. The public key is pinned at
// construction and never changes; for live collections (docs/UPDATES.md)
// the manifest can move FORWARD to later generations via Advance /
// AdvanceExport — never backward: a regression is rejected as
// ErrStaleGeneration. Safe for concurrent use.
type Client struct {
	// verifier is the pinned public key behind a verified-signature memo
	// (sig.MemoVerifier): each owner signature is RSA-verified on its first
	// sighting only. Everything mutable sits behind mu.
	verifier *sig.MemoVerifier

	mu          sync.Mutex
	manifest    *core.Manifest
	manifestSig []byte
	checked     bool
	checkErr    error
	// maxGen is the highest generation this client has accepted; Advance
	// refuses to go below it.
	maxGen uint64
}

// newClient is the one place a Client is made — and so the one place the
// verified-signature memo is installed. A verifier that already memoises (a
// sharded client's, handed to each of its shard clients) is shared, not
// re-wrapped: one memo per pinned key. checked says the caller has verified
// manifestSig over manifest against that key already.
func newClient(manifest *core.Manifest, manifestSig []byte, verifier sig.Verifier, checked bool) *Client {
	c := &Client{manifest: manifest, manifestSig: manifestSig, verifier: sig.Memoize(verifier), checked: checked}
	if checked {
		c.maxGen = manifest.Generation
	}
	return c
}

// checkManifestLocked runs the one-time manifest signature check (caller
// holds mu). The outcome is cached until a successful Advance replaces
// the manifest: a bad manifest fails every subsequent Verify identically.
func (c *Client) checkManifestLocked() error {
	if !c.checked {
		c.checkErr = core.VerifyManifest(c.manifest, c.manifestSig, c.verifier)
		c.checked = true
		if c.checkErr == nil && c.manifest.Generation > c.maxGen {
			c.maxGen = c.manifest.Generation
		}
	}
	return c.checkErr
}

// current returns the verified manifest to check a result against.
func (c *Client) current() (*core.Manifest, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkManifestLocked(); err != nil {
		return nil, err
	}
	return c.manifest, nil
}

// Generation returns the generation of the manifest this client currently
// verifies against (0 for a static collection).
func (c *Client) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.manifest.Generation
}

// Advance moves the client to a newer generation of a live collection:
// manifestBytes is the owner's canonical manifest encoding (the exact
// signed bytes) and sigBytes the signature over them. The signature is
// checked against the PINNED key — the channel delivering the update needs
// no trust of its own — and the generation must not regress below any the
// client has accepted (ErrStaleGeneration otherwise; a different manifest
// re-using an already-accepted generation is rejected the same way, since
// one generation never has two honest encodings). Advancing to the current
// generation with identical bytes is a no-op.
func (c *Client) Advance(manifestBytes, sigBytes []byte) error {
	m, err := core.DecodeManifest(manifestBytes)
	if err != nil {
		return fmt.Errorf("authtext: %w", err)
	}
	if err := core.VerifyManifest(m, sigBytes, c.verifier); err != nil {
		return &core.VerifyError{Code: core.CodeBadSignature, Detail: err.Error()}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Pin maxGen from the bootstrap manifest before comparing, so a
	// rollback attempted before the first Verify is still caught.
	if err := c.checkManifestLocked(); err != nil {
		return err
	}
	switch {
	case m.Generation < c.maxGen:
		return &core.VerifyError{Code: core.CodeStaleGeneration,
			Detail: fmt.Sprintf("manifest generation %d, already accepted %d", m.Generation, c.maxGen)}
	case m.Generation == c.maxGen:
		if !bytes.Equal(manifestBytes, c.manifest.Encode()) {
			return &core.VerifyError{Code: core.CodeStaleGeneration,
				Detail: fmt.Sprintf("conflicting manifest for generation %d", m.Generation)}
		}
		return nil
	}
	c.manifest = m
	c.manifestSig = append([]byte(nil), sigBytes...)
	c.maxGen = m.Generation
	c.checked, c.checkErr = true, nil
	return nil
}

// AdvanceExport is Advance over an ATCX export blob (the /v1/manifest
// payload). The blob's embedded key is ignored — the signature must verify
// against this client's pinned key.
func (c *Client) AdvanceExport(data []byte) error {
	manifestRaw, sigRaw, _, err := splitClientExport(data)
	if err != nil {
		return err
	}
	return c.Advance(manifestRaw, sigRaw)
}

// Verify checks a search result (including its delivered document
// contents) against the VO. It returns nil iff the result satisfies the
// correctness criteria of §3.1; the error explains the first violation
// found.
func (c *Client) Verify(query string, r int, res *SearchResult) error {
	if res == nil {
		return errors.New("authtext: nil result")
	}
	manifest, err := c.current()
	if err != nil {
		return err
	}
	decoded, err := decodeVO(res.VO)
	if err != nil {
		// An undecodable VO from a server is tampering, not a local usage
		// error: classify it so IsTampered reports true.
		return &core.VerifyError{Code: core.CodeMalformedVO, Detail: err.Error()}
	}
	entries := make([]core.ResultEntry, len(res.Hits))
	contents := make(map[index.DocID][]byte, len(res.Hits))
	for i, h := range res.Hits {
		entries[i] = core.ResultEntry{Doc: index.DocID(h.DocID), Score: h.Score}
		contents[index.DocID(h.DocID)] = h.Content
	}
	return core.Verify(&core.VerifyInput{
		Manifest: manifest,
		Verifier: c.verifier,
		Tokens:   textproc.Terms(query),
		R:        r,
		Result:   entries,
		Contents: contents,
		VO:       decoded,
	})
}

// IsTampered reports whether an error from Verify indicates tampering (as
// opposed to a malformed input).
func IsTampered(err error) bool {
	return err != nil && core.CodeOf(err) != core.VerifyOK
}
