package authtext

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"authtext/internal/core"
	"authtext/internal/engine"
	"authtext/internal/httpapi"
	"authtext/internal/index"
	"authtext/internal/okapi"
	"authtext/internal/shard"
	"authtext/internal/sig"
	"authtext/internal/store"
	"authtext/internal/textproc"
	"authtext/internal/vo"
	"authtext/internal/wire"
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

// Variant is one of the paper's four signed structures: the (Algorithm,
// Scheme) pair a query asks for. An owner builds every variant unless
// WithVariants narrows the set; the signed manifest commits the set, and a
// server answers only what it lists.
type Variant struct {
	Algorithm Algorithm
	Scheme    Scheme
}

// String returns the variant's name: "tra-mht", "tra-cmht", "tnra-mht" or
// "tnra-cmht" (the /v1 algo and scheme values joined).
func (v Variant) String() string { return v.kind().String() }

func (v Variant) kind() core.StructureKind { return core.KindFor(v.Algorithm.core(), v.Scheme.core()) }

// ParseVariants reads "all" or a comma-separated list of variant names (see
// Variant.String). An empty list, an unknown name or a repeated one is an
// error.
func ParseVariants(s string) ([]Variant, error) {
	set, err := core.ParseVariantSet(s)
	if err != nil {
		return nil, fmt.Errorf("authtext: %w", err)
	}
	return variantsOf(set), nil
}

// variantsOf lists the variants of a set in the order of its kinds.
func variantsOf(set core.VariantSet) []Variant {
	var out []Variant
	for _, a := range []Algorithm{TRA, TNRA} {
		for _, s := range []Scheme{MHT, ChainMHT} {
			if v := (Variant{a, s}); set.Has(v.kind()) {
				out = append(out, v)
			}
		}
	}
	return out
}

// ErrVariantNotBuilt reports a query for a variant the collection was not
// built with — from Server.Search, and from RemoteClient
// before it sends anything when the verified manifest does not list the
// variant. Test with errors.Is. It is a refusal, never tampering: IsTampered
// reports false for it. A server that refuses a variant its signed manifest
// lists is lying, and RemoteClient classifies that as tampering.
var ErrVariantNotBuilt = core.ErrVariantNotBuilt

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
	// DocID identifies the document inside the collection that answered: on
	// a shard set, inside shard Shard (the ID that shard's VO speaks about).
	DocID int
	Score float64
	// Content is the document body. In a RemoteClient answer it aliases
	// the decoded response and is capacity-capped: appending to it
	// reallocates instead of writing over another hit or the VO.
	Content []byte
	// Shard is the shard that produced the hit and GlobalID the document's
	// index in the original corpus, from the authenticated shard doc map. A
	// bare collection's server reports 0 and DocID; its client reads neither.
	Shard    int
	GlobalID int
}

// SearchResult bundles everything the server returns for a query: the
// ordered hits, the verification object, and the server-side cost report.
type SearchResult struct {
	// Hits is the ranked answer. On a shard set it is the merged global
	// top-r; it carries no proof of its own — the client recomputes it from
	// the verified PerShard answers.
	Hits []Hit
	// VO is the encoded verification object; archive it alongside the
	// result to build an audit trail (§1). Nil on a shard set's answer, whose
	// proofs are PerShard's.
	VO []byte
	// PerShard is what a shard set adds: shard i's individually authenticated
	// answer at index i, as a bare collection gives it. Nil on a bare one.
	PerShard []*SearchResult
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
	// Shards is the fan-out width when the record aggregates a shard set's
	// answer (0 for a bare collection): EntriesRead and VOBytes summed over
	// shards, the maximum of QueryTerms and of IOTime (shards run in parallel,
	// so the slowest is the critical path), the fan-out wall as ServerTime.
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
	fastSignerKey    []byte
	keepSingletons   bool
	signerOverridden bool
	authority        []float64
	pageRankLinks    [][]int
	beta             float64
	variants         core.VariantSet
}

// Option customises NewOwner.
type Option func(*options)

// WithVocabularyProofs is a no-op: every owner builds vocabulary proofs.
//
// Deprecated: non-membership proofs for out-of-dictionary query terms are
// always on, so a server cannot drop a query term by claiming it is not
// indexed (docs/ARCHITECTURE.md, "Departures from the paper").
func WithVocabularyProofs() Option { return func(*options) {} }

// WithVariants builds, signs and lays out only the structures the listed
// variants need (no variants: all four, the default): plain lists for an MHT
// variant, the chain of a ChainMHT one, document records and the tree that
// commits their roots for a TRA one. Any set signs one message, the
// manifest. The set is committed in the signed manifest; searching any other
// variant fails with ErrVariantNotBuilt.
func WithVariants(vs ...Variant) Option {
	return func(o *options) {
		o.variants = 0
		for _, v := range vs {
			o.variants |= core.VariantOf(v.kind())
		}
	}
}

// served is one published state as every party holds it: a bare collection,
// or a shard set — k independently authenticated sub-collections under one
// signed set manifest pinning the shard population (docs/SHARDING.md).
// Exactly one field is non-nil.
type served struct {
	col *engine.Collection
	set *shard.Set
	// dict is the collection dictionary binary frames deflate this
	// generation's document bodies against (withDictionary); nil on a value
	// that only exports or persists a generation (current).
	dict *wire.Dictionary
}

// withDictionary returns v with its collection dictionary: the rule of
// wire.CollectionDictionary over the term names of every serving collection.
func (v served) withDictionary() served {
	cols := v.cols()
	vocabs := make([][]string, len(cols))
	for i, col := range cols {
		idx := col.Index()
		names := make([]string, idx.M())
		for t := range names {
			names[t] = idx.Name(index.TermID(t))
		}
		vocabs[i] = names
	}
	v.dict = wire.CollectionDictionary(vocabs...)
	return v
}

// shards returns the shard count: 0 for a bare collection.
func (v served) shards() int {
	if v.set == nil {
		return 0
	}
	return v.set.K()
}

// generation returns the publication generation (0 for static builds).
func (v served) generation() uint64 {
	if v.set != nil {
		sm, _ := v.set.Manifest()
		return sm.Generation
	}
	m, _ := v.col.Manifest()
	return m.Generation
}

// cols returns the serving collections: the bare one, or every shard's.
func (v served) cols() []*engine.Collection {
	if v.set == nil {
		return []*engine.Collection{v.col}
	}
	cols := make([]*engine.Collection, v.set.K())
	for i := range cols {
		cols[i] = v.set.Col(i)
	}
	return cols
}

// variants returns the variants every serving collection was built with (a
// shard set's shards share one build configuration).
func (v served) variants() core.VariantSet {
	set := core.AllVariants
	for _, col := range v.cols() {
		m, _ := col.Manifest()
		set &= m.Variants.Resolve()
	}
	return set
}

// client returns a verification client over v's signed manifests, none of
// them checked yet.
func (v served) client() *Client {
	if v.set == nil {
		m, msig := v.col.Manifest()
		return newClient(m, msig, v.col.Verifier(), false)
	}
	k := v.set.K()
	ex := &shardedExport{verifier: v.set.Verifier(),
		shardMans: make([]*core.Manifest, k), shardSigs: make([][]byte, k), docMaps: make([][]uint32, k)}
	ex.manifest, ex.manifestSig = v.set.Manifest()
	for i, col := range v.cols() {
		ex.shardMans[i], ex.shardSigs[i] = col.Manifest()
		ex.docMaps[i] = v.set.DocMap(i)
	}
	return newSetClient(ex, false)
}

// Owner builds and publishes an authenticated collection — bare (NewOwner)
// or split into shards (NewShardedOwner).
type Owner struct {
	v served
}

// prepareBuild resolves the option list into a ready engine configuration
// (fresh signer included) and the engine-level document slice. Every owner
// constructor shares it, so all build what authserved deploys: dictionary
// mode (§3.4: each list root, bound to its term's name, ID and length, is a
// leaf of a per-variant dictionary-MHT whose root the signed manifest
// carries, so no list is signed on its own) with vocabulary proofs (a query
// term the index lacks is proven absent, never silently dropped).
func prepareBuild(docs []Document, opts []Option) (engine.Config, []index.Document, error) {
	if len(docs) == 0 {
		return engine.Config{}, nil, errors.New("authtext: empty collection")
	}
	o := &options{}
	for _, opt := range opts {
		opt(o)
	}
	var signer sig.Signer
	var err error
	if o.signerOverridden {
		signer, err = sig.NewHMACSigner(o.fastSignerKey, 128)
	} else {
		signer, err = sig.NewRSASigner(sig.DefaultRSABits)
	}
	if err != nil {
		return engine.Config{}, nil, err
	}
	authority, err := computeAuthority(o, len(docs))
	if err != nil {
		return engine.Config{}, nil, err
	}
	cfg := engine.Config{
		Store:            store.DefaultParams(),
		HashSize:         sig.DefaultHashSize,
		Signer:           signer,
		Okapi:            okapi.DefaultParams(),
		RemoveSingletons: !o.keepSingletons,
		DictMode:         true,
		VocabProofs:      true,
		Authority:        authority,
		Beta:             o.beta,
		Variants:         o.variants,
	}
	idocs := make([]index.Document, len(docs))
	for i, d := range docs {
		idocs[i] = index.Document{Content: d.Content, Tokens: d.Tokens}
	}
	return cfg, idocs, nil
}

// NewOwner indexes the documents and constructs every authentication
// structure with a freshly generated RSA key.
func NewOwner(docs []Document, opts ...Option) (*Owner, error) {
	cfg, idocs, err := prepareBuild(docs, opts)
	if err != nil {
		return nil, err
	}
	col, err := engine.BuildCollection(idocs, cfg)
	if err != nil {
		return nil, err
	}
	return &Owner{v: served{col: col}.withDictionary()}, nil
}

// NewShardedOwner places document i on shard i mod shards (balanced, and a
// trivially invertible global-ID mapping), builds every shard concurrently
// (all Options apply to each shard exactly as they would to NewOwner), and
// signs the set manifest with the same key. The result is an Owner like any
// other: its Server fans each query out to all shards in parallel, and its
// Client verifies every shard's verification object and then checks the
// merged ranking is the true global top-r by recomputation — tampering with
// any shard's answer, dropping or substituting a shard, or reordering the
// merge classifies as tampering.
func NewShardedOwner(docs []Document, shards int, opts ...Option) (*Owner, error) {
	cfg, idocs, err := prepareBuild(docs, opts)
	if err != nil {
		return nil, err
	}
	set, err := shard.Build(idocs, shard.Config{Engine: cfg, Shards: shards})
	if err != nil {
		return nil, err
	}
	return &Owner{v: served{set: set}.withDictionary()}, nil
}

// Shards returns the shard count: 0 for a bare collection.
func (o *Owner) Shards() int { return o.v.shards() }

// Server returns the query-serving half (hand it, conceptually, to the
// untrusted host — or hosts; each shard is one snapshot file).
func (o *Owner) Server() *Server { return &Server{v: o.v} }

// Client returns the verification half (publish it to users: it embeds
// only the signed manifests, a shard set's doc maps and the public key).
func (o *Owner) Client() *Client { return o.v.client() }

// Stats summarises the owner-side build. Over a shard set buildMillis is the
// slowest shard's (shards build in parallel) and the other two are sums,
// signatures counting the set manifest's too.
func (o *Owner) Stats() (buildMillis float64, signatures int, deviceBytes int64) {
	if o.v.set != nil {
		signatures++
	}
	for _, col := range o.v.cols() {
		bs := col.BuildStats()
		buildMillis = max(buildMillis, float64(bs.BuildTime.Milliseconds()))
		signatures += bs.Signatures
		deviceBytes += col.Space().DeviceBytes
	}
	return buildMillis, signatures, deviceBytes
}

// Server answers queries with integrity proofs; over a shard set, by
// parallel fan-out to every shard. It is safe for concurrent use: the
// underlying collections are immutable once built, every query runs
// on its own store session, and any number of Search calls may be in
// flight at once (docs/CONCURRENCY.md describes the model).
type Server struct {
	v served
	// cache, when non-nil, serves repeat queries from pre-built answers
	// (see cache.go for the safety argument). Set before serving starts.
	cache *VOCache
	// metrics, when non-nil, receives per-stage cost observations
	// (metrics.go). Set before serving starts.
	metrics *Metrics
}

// SetVOCache attaches a VO cache (nil detaches). Call before the server
// starts answering queries; the cache itself is safe for concurrent use
// and may be shared between servers. Over a shard set the cached unit is the
// complete fan-out answer, so a hit skips every shard.
func (s *Server) SetVOCache(c *VOCache) { s.cache = c }

// SetMetrics attaches a metric registry (nil detaches). Call before the
// server starts answering queries; one Metrics may be shared between
// servers.
func (s *Server) SetMetrics(m *Metrics) { s.metrics = m }

// Shards returns the shard count: 0 for a bare collection.
func (s *Server) Shards() int { return s.v.shards() }

// Search runs a top-r similarity query. The query text goes through the
// same pipeline as the documents (lowercasing, stopword removal);
// out-of-dictionary terms are ignored per §3.1. A shard set answers from
// every shard concurrently and merges the local rankings into the global
// top-r. Search is safe for concurrent use, and per-query Stats are
// unaffected by concurrency.
func (s *Server) Search(query string, r int, algo Algorithm, scheme Scheme) (*SearchResult, error) {
	return s.search(query, r, algo, scheme, 0)
}

// search is Search for a client that holds the top depth levels of the
// collection-level trees: a bare collection's answer cuts every proof
// through them at that depth (engine.Collection.SearchCapped). A shard set
// answers uncut; its handler refuses a nonzero depth.
func (s *Server) search(query string, r int, algo Algorithm, scheme Scheme, depth int) (*SearchResult, error) {
	tokens := textproc.Terms(query)
	gen, sharded := s.v.generation(), s.v.set != nil
	var key string
	if s.cache != nil {
		key = cacheKey(sharded, tokens, r, algo, scheme, gen, depth)
		lookupStart := time.Now()
		res, ok := s.cache.get(key)
		s.metrics.observeCacheLookup(time.Since(lookupStart))
		if ok {
			s.metrics.recordSearchHit(sharded)
			return res, nil
		}
	}
	var out *SearchResult
	if sharded {
		setRes, err := s.v.set.Search(tokens, r, algo.core(), scheme.core())
		if err != nil {
			return nil, err
		}
		out = s.mergedResult(setRes, gen, algo, scheme)
		s.metrics.recordShardedSearch(setRes)
	} else {
		res, voBytes, st, err := s.v.col.SearchCapped(tokens, r, algo.core(), scheme.core(), depth)
		if err != nil {
			return nil, err
		}
		out = collectionResult(s.v.col, res, voBytes, st, algo, scheme)
		s.metrics.recordSearch(st)
	}
	if s.cache != nil {
		s.cache.put(key, gen, out)
	}
	return out, nil
}

// collectionResult is one collection's answer in the facade form.
func collectionResult(col *engine.Collection, res *engine.Result, voBytes []byte, st *engine.QueryStats,
	algo Algorithm, scheme Scheme) *SearchResult {
	manifest, _ := col.Manifest()
	out := &SearchResult{VO: voBytes, Generation: manifest.Generation}
	for _, e := range res.Entries {
		out.Hits = append(out.Hits, Hit{DocID: int(e.Doc), Score: e.Score, Content: res.Contents[e.Doc], GlobalID: int(e.Doc)})
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
	return out
}

// mergedResult is a fan-out's answer in the facade form: every shard's
// answer, the merged ranking, and the costs folded over the shards.
func (s *Server) mergedResult(setRes *shard.SetResult, gen uint64, algo Algorithm, scheme Scheme) *SearchResult {
	out := &SearchResult{
		PerShard:   make([]*SearchResult, len(setRes.PerShard)),
		Generation: gen,
		Stats: Stats{
			Algorithm:  algo,
			Scheme:     scheme,
			Shards:     s.v.set.K(),
			ServerTime: StatsDuration(float64(setRes.Wall.Microseconds()) / 1000),
		},
	}
	for i, sr := range setRes.PerShard {
		res := collectionResult(s.v.set.Col(i), sr.Result, sr.VO, sr.Stats, algo, scheme)
		out.PerShard[i] = res
		// Each shard counts only the query terms in ITS dictionary.
		out.Stats.QueryTerms = max(out.Stats.QueryTerms, res.Stats.QueryTerms)
		out.Stats.EntriesRead += res.Stats.EntriesRead
		out.Stats.VOBytes += res.Stats.VOBytes
		out.Stats.IOTime = max(out.Stats.IOTime, res.Stats.IOTime)
	}
	if len(setRes.Merged) > 0 { // no hits is nil, as on a bare collection
		out.Hits = make([]Hit, len(setRes.Merged))
	}
	for i, m := range setRes.Merged {
		out.Hits[i] = Hit{
			Shard:    m.Shard,
			DocID:    int(m.Doc),
			GlobalID: int(m.Global),
			Score:    m.Score,
			Content:  setRes.PerShard[m.Shard].Result.Contents[m.Doc],
		}
	}
	return out
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
// public key. It holds no collection data: a bare collection's client holds
// the signed manifest; a shard set's holds the signed set manifest, every
// shard's signed manifest and the doc maps. The public key is pinned at
// construction and never changes; for live collections (docs/UPDATES.md)
// the manifests can move FORWARD to later generations via Advance /
// AdvanceExport — never backward: a regression is rejected as
// ErrStaleGeneration. Safe for concurrent use.
type Client struct {
	// verifier is the pinned public key. Everything mutable sits behind mu.
	verifier sig.Verifier

	mu sync.Mutex
	// manifest is what a bare collection's client verifies against, set what
	// a shard set's does; exactly one is non-nil, for the client's lifetime.
	// manifestSig signs that one.
	manifest    *core.Manifest
	set         *clientSet
	manifestSig []byte
	checked     bool
	checkErr    error
	// maxGen is the highest generation this client has accepted; Advance
	// refuses to go below it.
	maxGen uint64
	// cap is the verified proof cap of the held manifest (nil: none), and
	// capAsked whether a remote client has asked its server for one since
	// the manifest was installed (RemoteClient asks once per generation).
	cap      *core.Cap
	capAsked bool
}

// clientSet is the shard population a set client holds: the signed set
// manifest, one bare client per shard — all pinning the set client's key —
// and the authenticated local→global doc maps.
type clientSet struct {
	manifest *shard.SetManifest
	shards   []*Client
	docMaps  [][]uint32
}

// newClient makes a bare collection's Client pinning verifier. checked says
// the caller has verified manifestSig over manifest against that key
// already.
func newClient(manifest *core.Manifest, manifestSig []byte, verifier sig.Verifier, checked bool) *Client {
	c := &Client{manifest: manifest, manifestSig: manifestSig, verifier: verifier, checked: checked}
	if checked {
		c.maxGen = manifest.Generation
	}
	return c
}

// newSetClient is newClient for a shard set's material; checked covers the
// set manifest and every shard manifest (bound to it by digest).
func newSetClient(ex *shardedExport, checked bool) *Client {
	c := &Client{manifestSig: ex.manifestSig, verifier: ex.verifier, checked: checked}
	c.set = newClientSet(ex, c.verifier, checked)
	if checked {
		c.maxGen = ex.manifest.Generation
	}
	return c
}

func newClientSet(ex *shardedExport, verifier sig.Verifier, checked bool) *clientSet {
	cs := &clientSet{manifest: ex.manifest, shards: make([]*Client, len(ex.shardMans)), docMaps: ex.docMaps}
	for i := range cs.shards {
		cs.shards[i] = newClient(ex.shardMans[i], ex.shardSigs[i], verifier, checked)
	}
	return cs
}

// checkManifestLocked runs the one-time manifest signature check (caller
// holds mu). The outcome is cached until a successful Advance replaces
// the manifest: a bad manifest fails every subsequent Verify identically.
func (c *Client) checkManifestLocked() error {
	if !c.checked {
		if c.set == nil {
			c.checkErr = core.VerifyManifest(c.manifest, c.manifestSig, c.verifier)
		} else if err := shard.VerifySetManifest(c.set.manifest, c.manifestSig, c.verifier); err != nil {
			c.checkErr = &core.VerifyError{Code: core.CodeBadSignature, Detail: err.Error()}
		}
		c.checked = true
		if gen := c.generationLocked(); c.checkErr == nil && gen > c.maxGen {
			c.maxGen = gen
		}
	}
	return c.checkErr
}

// The generation and canonical encoding of the held manifest (mu held).
func (c *Client) generationLocked() uint64 {
	if c.set != nil {
		return c.set.manifest.Generation
	}
	return c.manifest.Generation
}

func (c *Client) encodingLocked() []byte {
	if c.set != nil {
		return c.set.manifest.Encode()
	}
	return c.manifest.Encode()
}

// Generation returns the generation of the manifest this client currently
// verifies against (0 for a static collection).
func (c *Client) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.generationLocked()
}

// Shards returns the shard count the set manifest commits to: 0 for a bare
// collection's client.
func (c *Client) Shards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.set == nil {
		return 0
	}
	return len(c.set.shards)
}

// variantSet returns the variants the signed manifest lists — for a shard
// set, those every shard manifest lists: what this client may ask for.
func (c *Client) variantSet() core.VariantSet {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.set == nil {
		return c.manifest.Variants.Resolve()
	}
	set := core.AllVariants
	for _, sc := range c.set.shards {
		set &= sc.manifest.Variants.Resolve()
	}
	return set
}

// checkVariant refuses, with ErrVariantNotBuilt, a variant the signed
// manifest does not list.
func (c *Client) checkVariant(algo Algorithm, scheme Scheme) error {
	v := Variant{algo, scheme}
	if set := c.variantSet(); !set.Has(v.kind()) {
		return fmt.Errorf("authtext: %v: %w (the signed manifest lists %v)", v, ErrVariantNotBuilt, set)
	}
	return nil
}

// acceptLocked applies the forward-only rule to a manifest of generation gen
// and canonical encoding enc that already verified against the pinned key
// (caller holds mu). It reports whether the caller should install it: false
// with a nil error means the client holds exactly this manifest already. A
// regression is ErrStaleGeneration, and so is a different manifest re-using
// an accepted generation — one generation never has two honest encodings.
func (c *Client) acceptLocked(gen uint64, enc []byte) (install bool, err error) {
	// Pin maxGen from the bootstrap manifest before comparing, so a
	// rollback attempted before the first Verify is still caught.
	if err := c.checkManifestLocked(); err != nil {
		return false, err
	}
	switch {
	case gen < c.maxGen:
		return false, &core.VerifyError{Code: core.CodeStaleGeneration,
			Detail: fmt.Sprintf("manifest generation %d, already accepted %d", gen, c.maxGen)}
	case gen == c.maxGen && !bytes.Equal(enc, c.encodingLocked()):
		return false, &core.VerifyError{Code: core.CodeStaleGeneration,
			Detail: fmt.Sprintf("conflicting manifest for generation %d", gen)}
	}
	return gen > c.maxGen, nil
}

// Advance moves a bare collection's client to a newer generation of a live
// collection: manifestBytes is the owner's canonical manifest encoding (the
// exact signed bytes) and sigBytes the signature over them. The signature is
// checked against the PINNED key — the channel delivering the update needs
// no trust of its own — and the generation must not regress below any the
// client has accepted (ErrStaleGeneration). Advancing to the current
// generation with identical bytes is a no-op. A shard set's client advances
// with AdvanceExport only: one manifest cannot carry the shard population.
func (c *Client) Advance(manifestBytes, sigBytes []byte) error {
	return c.advance(manifestBytes, sigBytes, false, nil)
}

// advance is Advance for a manifest fetched together with the proof cap of
// its generation (capBytes; nil when the server has none, or when it was
// not asked, capAsked false). Manifest and cap are installed in one step,
// so no Verify sees the new manifest without the cap that came with it.
func (c *Client) advance(manifestBytes, sigBytes []byte, capAsked bool, capBytes []byte) error {
	if c.Shards() > 0 {
		return errors.New("authtext: a collection manifest cannot advance a shard set's client; use AdvanceExport with its ATSX export")
	}
	m, err := core.DecodeManifest(manifestBytes)
	if err != nil {
		return fmt.Errorf("authtext: %w", err)
	}
	if err := core.VerifyManifest(m, sigBytes, c.verifier); err != nil {
		return &core.VerifyError{Code: core.CodeBadSignature, Detail: err.Error()}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	install, err := c.acceptLocked(m.Generation, manifestBytes)
	if err != nil {
		return err
	}
	if install {
		c.manifest = m
		c.manifestSig = append([]byte(nil), sigBytes...)
		c.maxGen = m.Generation
		c.cap, c.capAsked = nil, false
	}
	// Not installed, the manifest is the one held: the cap is its too.
	return c.installCapLocked(capAsked, capBytes)
}

// installCap records that this client's server was asked for the proof
// cap of the held manifest, and installs capBytes, its answer (nil: none).
func (c *Client) installCap(capBytes []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkManifestLocked(); err != nil {
		return err
	}
	return c.installCapLocked(true, capBytes)
}

// installCapLocked installs capBytes as the held manifest's proof cap
// unless the client holds one already; a cap that does not rebuild to the
// manifest's roots is discarded and reported as tampering (caller holds mu).
func (c *Client) installCapLocked(asked bool, capBytes []byte) error {
	c.capAsked = c.capAsked || asked
	if capBytes == nil || c.cap != nil {
		return nil
	}
	capped, err := core.VerifyCap(c.manifest, capBytes)
	if err != nil {
		return err
	}
	c.cap = capped
	return nil
}

// claimCapFetch reports whether the caller should ask the server for the
// held manifest's proof cap: once per installed manifest of a bare
// collection, and not when one was asked for with it.
func (c *Client) claimCapFetch() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.set != nil || c.capAsked {
		return false
	}
	c.capAsked = true
	return true
}

// capDepth returns the depth of the proof cap the client holds for its
// manifest: 0 for none.
func (c *Client) capDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap == nil {
		return 0
	}
	return c.cap.Depth
}

// AdvanceExport is Advance over the owner's current export blob — the
// manifest endpoint's payload: ATCX for a bare collection's client, ATSX
// (the only way forward) for a shard set's. The blob's embedded key is not
// trusted: the signature must verify against this client's pinned key.
func (c *Client) AdvanceExport(data []byte) error { return c.advanceExport(data, false, nil) }

// advanceExport is AdvanceExport with the proof cap fetched beside data, as
// advance takes it; a shard set's export comes with none.
func (c *Client) advanceExport(data []byte, capAsked bool, capBytes []byte) error {
	if exportFormat(data) != httpapi.FormatATSX {
		manifestRaw, sigRaw, _, err := splitClientExport(data)
		if err != nil {
			return err
		}
		return c.advance(manifestRaw, sigRaw, capAsked, capBytes)
	}
	if c.Shards() == 0 {
		return errors.New("authtext: an ATSX export cannot advance a bare collection's client")
	}
	ex, err := parseShardedExport(data)
	if err != nil {
		return err
	}
	// parseShardedExport verified against the embedded key; rollback
	// protection needs the pinned one.
	if err := shard.VerifySetManifest(ex.manifest, ex.manifestSig, c.verifier); err != nil {
		return &core.VerifyError{Code: core.CodeBadSignature, Detail: err.Error()}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if install, err := c.acceptLocked(ex.manifest.Generation, ex.manifest.Encode()); !install {
		return err
	}
	// Shard manifests are bound to the (pinned-key-verified) set manifest by
	// digest, checked in parseShardedExport.
	c.set = newClientSet(ex, c.verifier, true)
	c.manifestSig = ex.manifestSig
	c.maxGen = ex.manifest.Generation
	return nil
}

// Verify checks a search result (including its delivered document
// contents) against the VO. It returns nil iff the result satisfies the
// correctness criteria of §3.1; the error explains the first violation
// found. A shard set's client checks the set-manifest signature, every
// shard's verification object against that shard's signed manifest, and
// finally that the merged ranking equals the deterministic top-r recomputed
// from the (now trusted) per-shard results. A result of the wrong shape for
// this client is a lie like any other: IsTampered classifies it.
func (c *Client) Verify(query string, r int, res *SearchResult) error {
	if res == nil {
		return errors.New("authtext: nil result")
	}
	c.mu.Lock()
	err := c.checkManifestLocked()
	manifest, set, capped := c.manifest, c.set, c.cap
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if set != nil {
		return set.verify(query, r, res)
	}
	if res.PerShard != nil {
		return &core.VerifyError{Code: core.CodeMalformedVO,
			Detail: fmt.Sprintf("%d shard answers from a collection that has no shards", len(res.PerShard))}
	}
	decoded, err := vo.Decode(res.VO)
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
		Cap:      capped,
	})
}

// verify checks a fan-out answer against the shard population.
func (cs *clientSet) verify(query string, r int, res *SearchResult) error {
	if len(res.PerShard) != len(cs.shards) {
		return &core.VerifyError{Code: core.CodeIncomplete,
			Detail: fmt.Sprintf("%d shard responses for a %d-shard collection", len(res.PerShard), len(cs.shards))}
	}
	perShard := make([][]core.ResultEntry, len(cs.shards))
	contents := make(map[[2]int][]byte)
	for i, sr := range res.PerShard {
		if sr == nil {
			return &core.VerifyError{Code: core.CodeIncomplete,
				Detail: fmt.Sprintf("shard %d returned no response", i)}
		}
		if err := cs.shards[i].Verify(query, r, sr); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		entries := make([]core.ResultEntry, len(sr.Hits))
		for j, h := range sr.Hits {
			entries[j] = core.ResultEntry{Doc: index.DocID(h.DocID), Score: h.Score}
			contents[[2]int{i, h.DocID}] = h.Content
		}
		perShard[i] = entries
	}
	merged := make([]shard.MergedHit, len(res.Hits))
	for i, h := range res.Hits {
		merged[i] = shard.MergedHit{Shard: h.Shard, Doc: index.DocID(h.DocID), Global: uint32(h.GlobalID), Score: h.Score}
		if int(merged[i].Doc) != h.DocID || int(merged[i].Global) != h.GlobalID {
			return &core.VerifyError{Code: core.CodeBadOrdering,
				Detail: fmt.Sprintf("merged entry %d names document %d (global %d): no such document", i, h.DocID, h.GlobalID)}
		}
	}
	if err := shard.VerifyMerge(perShard, cs.docMaps, r, merged); err != nil {
		return err
	}
	// The merged entries must deliver the same (verified) content as the
	// shard answers they cite.
	for i, h := range res.Hits {
		if want, ok := contents[[2]int{h.Shard, h.DocID}]; !ok || !bytes.Equal(h.Content, want) {
			return &core.VerifyError{Code: core.CodeBadContent,
				Detail: fmt.Sprintf("merged entry %d content disagrees with shard %d's verified answer", i, h.Shard)}
		}
	}
	return nil
}

// IsTampered reports whether an error from Verify indicates tampering (as
// opposed to a malformed input).
func IsTampered(err error) bool {
	return err != nil && core.CodeOf(err) != core.VerifyOK
}
