package authtext

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/shard"
	"authtext/internal/sig"
	"authtext/internal/textproc"
)

// Sharded collections split one corpus into k independently authenticated
// sub-collections. The owner signs every shard plus a compact shard-set
// manifest pinning the shard population; a ShardedServer fans each query
// out to all shards in parallel; a ShardedClient verifies every shard's
// verification object with the single-collection machinery and then checks
// the merged ranking is the true global top-r by recomputation. Tampering
// with any shard's answer, dropping or substituting a shard, or reordering
// the merge classifies as tampering (IsTampered reports true).
// docs/SHARDING.md describes the design and its trust model.

// ShardPartitioner selects how documents are assigned to shards.
type ShardPartitioner int

const (
	// PartitionRoundRobin assigns document i to shard i mod k (balanced,
	// the default).
	PartitionRoundRobin ShardPartitioner = iota + 1
	// PartitionHash assigns documents by content hash (stable under corpus
	// reordering).
	PartitionHash
)

func (p ShardPartitioner) internal() shard.Partitioner {
	if p == PartitionHash {
		return shard.HashContent
	}
	return shard.RoundRobin
}

// WithShardPartitioner overrides the document→shard assignment policy used
// by NewShardedOwner (default PartitionRoundRobin). It has no effect on
// NewOwner.
func WithShardPartitioner(p ShardPartitioner) Option {
	return func(o *options) { o.partitioner = p }
}

// ShardedOwner builds and publishes a sharded authenticated collection:
// one signing key, k shards, one signed shard-set manifest.
type ShardedOwner struct {
	set *shard.Set
}

// NewShardedOwner partitions the documents into shards, builds every shard
// concurrently (all Options apply to each shard exactly as they would to
// NewOwner), and signs the set manifest with the same key.
func NewShardedOwner(docs []Document, shards int, opts ...Option) (*ShardedOwner, error) {
	cfg, idocs, o, err := prepareBuild(docs, opts)
	if err != nil {
		return nil, err
	}
	part := shard.RoundRobin
	if o.partitioner != 0 {
		part = o.partitioner.internal()
	}
	set, err := shard.Build(idocs, shard.Config{Engine: cfg, Shards: shards, Partitioner: part})
	if err != nil {
		return nil, err
	}
	return &ShardedOwner{set: set}, nil
}

// Shards returns the shard count.
func (o *ShardedOwner) Shards() int { return o.set.K() }

// Server returns the query-serving half (conceptually handed to the
// untrusted host — or hosts; each shard is one snapshot file).
func (o *ShardedOwner) Server() *ShardedServer { return &ShardedServer{set: o.set} }

// Client returns the verification half: the signed set manifest, every
// shard's signed manifest, the doc maps and the public key.
func (o *ShardedOwner) Client() *ShardedClient { return newShardedClientFromSet(o.set) }

// Stats aggregates owner-side build costs across shards. buildMillis is
// the slowest shard (shards build in parallel).
func (o *ShardedOwner) Stats() (buildMillis float64, signatures int, deviceBytes int64) {
	for i := 0; i < o.set.K(); i++ {
		bs := o.set.Col(i).BuildStats()
		if ms := float64(bs.BuildTime.Milliseconds()); ms > buildMillis {
			buildMillis = ms
		}
		signatures += bs.Signatures
		deviceBytes += o.set.Col(i).Space().DeviceBytes
	}
	signatures++ // the set-manifest signature
	return buildMillis, signatures, deviceBytes
}

// ShardedServer answers queries by parallel fan-out over every shard.
type ShardedServer struct {
	set *shard.Set
	// cache, when non-nil, serves repeat queries with the whole merged
	// fan-out answer (see cache.go). Set before serving starts.
	cache *VOCache
	// metrics, when non-nil, receives per-stage cost observations
	// (metrics.go). Set before serving starts.
	metrics *Metrics
}

// SetVOCache attaches a VO cache (nil detaches). Call before the server
// starts answering queries. The cached unit is the complete fan-out
// answer — per-shard results plus merge — so a hit skips every shard.
func (s *ShardedServer) SetVOCache(c *VOCache) { s.cache = c }

// SetMetrics attaches a metric registry (nil detaches). Call before the
// server starts answering queries.
func (s *ShardedServer) SetMetrics(m *Metrics) { s.metrics = m }

// withCache returns a shallow copy of s serving through c (see
// Server.withCache).
func (s *ShardedServer) withCache(c *VOCache) *ShardedServer {
	if c == nil || c == s.cache {
		return s
	}
	cp := *s
	cp.cache = c
	return &cp
}

// withMetrics is withCache for the metric registry.
func (s *ShardedServer) withMetrics(m *Metrics) *ShardedServer {
	if m == nil || m == s.metrics {
		return s
	}
	cp := *s
	cp.metrics = m
	return &cp
}

// Shards returns the shard count.
func (s *ShardedServer) Shards() int { return s.set.K() }

// Shard returns the single-collection server for shard i (tests use it for
// targeted tampering; deployments can serve shards from separate processes).
func (s *ShardedServer) Shard(i int) *Server { return &Server{col: s.set.Col(i)} }

// ShardedHit is one entry of the merged global ranking.
type ShardedHit struct {
	// Shard and DocID identify the document inside its shard (DocID is the
	// shard-local ID the shard's VO speaks about).
	Shard int
	DocID int
	// GlobalID is the document's index in the original corpus, from the
	// authenticated shard doc map.
	GlobalID int
	Score    float64
	Content  []byte
}

// ShardedStats aggregates per-query costs across the fan-out.
type ShardedStats struct {
	Shards      int
	Algorithm   Algorithm
	Scheme      Scheme
	QueryTerms  int
	EntriesRead int
	// VOBytes is the summed size of all shard VOs.
	VOBytes int
	// IOTime is the slowest shard's simulated disk time (shards run in
	// parallel, so this is the critical path).
	IOTime StatsDuration
	// Wall is the fan-out wall time.
	Wall time.Duration
}

// aggregate folds the fan-out costs into the single-collection Stats shape
// (the QueryLog record of a sharded handler).
func (st ShardedStats) aggregate() Stats {
	return Stats{
		Algorithm:   st.Algorithm,
		Scheme:      st.Scheme,
		Shards:      st.Shards,
		QueryTerms:  st.QueryTerms,
		EntriesRead: st.EntriesRead,
		IOTime:      st.IOTime,
		ServerTime:  StatsDuration(float64(st.Wall.Microseconds()) / 1000),
		VOBytes:     st.VOBytes,
	}
}

// ShardedResult bundles everything the server returns for one fanned-out
// query: each shard's individually authenticated answer plus the merged
// global ranking.
type ShardedResult struct {
	// PerShard holds shard i's result (hits, VO, stats) at index i.
	PerShard []*SearchResult
	// Merged is the claimed global top-r. The client recomputes it from
	// the verified per-shard results; it carries no proof of its own.
	Merged []ShardedHit
	// Generation is the shard-set generation that answered (0 for static
	// sets) — an untrusted echo, like SearchResult.Generation.
	Generation uint64
	Stats      ShardedStats
}

// Search runs a top-r similarity query against every shard concurrently
// and merges the local rankings into the global top-r.
func (s *ShardedServer) Search(query string, r int, algo Algorithm, scheme Scheme) (*ShardedResult, error) {
	tokens := textproc.Terms(query)
	sm, _ := s.set.Manifest()
	var key string
	if s.cache != nil {
		key = cacheKey(cacheKindSharded, tokens, r, algo, scheme, sm.Generation)
		lookupStart := time.Now()
		res, ok := s.cache.getSharded(key)
		s.metrics.observeCacheLookup(time.Since(lookupStart))
		if ok {
			s.metrics.recordShardedSearchHit()
			return res, nil
		}
	}
	setRes, err := s.set.Search(tokens, r, algo.core(), scheme.core())
	if err != nil {
		return nil, err
	}
	out := &ShardedResult{
		PerShard:   make([]*SearchResult, len(setRes.PerShard)),
		Merged:     make([]ShardedHit, len(setRes.Merged)),
		Generation: sm.Generation,
		Stats: ShardedStats{
			Shards:    s.set.K(),
			Algorithm: algo,
			Scheme:    scheme,
			Wall:      setRes.Wall,
		},
	}
	for i, sr := range setRes.PerShard {
		shardMan, _ := s.set.Col(i).Manifest()
		res := &SearchResult{VO: sr.VO, Generation: shardMan.Generation}
		for _, e := range sr.Result.Entries {
			res.Hits = append(res.Hits, Hit{DocID: int(e.Doc), Score: e.Score, Content: sr.Result.Contents[e.Doc]})
		}
		res.Stats = Stats{
			Algorithm:      algo,
			Scheme:         scheme,
			QueryTerms:     sr.Stats.QueryTerms,
			EntriesRead:    sr.Stats.EntriesRead,
			EntriesPerTerm: sr.Stats.EntriesPerTerm,
			PctListRead:    sr.Stats.PctListRead,
			BlockReads:     sr.Stats.IO.BlockReads,
			RandomReads:    sr.Stats.IO.RandomReads,
			IOTime:         StatsDuration(float64(sr.Stats.IO.SimTime.Microseconds()) / 1000),
			ServerTime:     StatsDuration(float64(sr.Stats.ServerWall.Microseconds()) / 1000),
			VOBytes:        len(sr.VO),
		}
		out.PerShard[i] = res
		out.Stats.QueryTerms = sr.Stats.QueryTerms
		out.Stats.EntriesRead += sr.Stats.EntriesRead
		out.Stats.VOBytes += len(sr.VO)
		if res.Stats.IOTime > out.Stats.IOTime {
			out.Stats.IOTime = res.Stats.IOTime
		}
	}
	for i, m := range setRes.Merged {
		out.Merged[i] = ShardedHit{
			Shard:    m.Shard,
			DocID:    int(m.Doc),
			GlobalID: int(m.Global),
			Score:    m.Score,
			Content:  setRes.PerShard[m.Shard].Result.Contents[m.Doc],
		}
	}
	s.metrics.recordShardedSearch(setRes)
	if s.cache != nil {
		s.cache.putSharded(key, sm.Generation, out)
	}
	return out, nil
}

// ShardedClient verifies fanned-out query results. It holds no collection
// data: only the signed set manifest, each shard's signed manifest, the
// doc maps and the owner's public key. Like Client, the key is pinned at
// construction and the manifests can move forward — never backward — to
// later generations of a live shard set via AdvanceExport. Safe for
// concurrent use.
type ShardedClient struct {
	// verifier is the pinned key behind the one signature memo every shard
	// client shares (see Client.verifier).
	verifier *sig.MemoVerifier

	mu          sync.Mutex
	manifest    *shard.SetManifest
	manifestSig []byte
	shards      []*Client
	docMaps     [][]uint32
	checked     bool
	checkErr    error
	maxGen      uint64
}

func newShardedClientFromSet(set *shard.Set) *ShardedClient {
	sm, smSig := set.Manifest()
	c := &ShardedClient{
		manifest:    sm,
		manifestSig: smSig,
		verifier:    sig.Memoize(set.Verifier()),
		shards:      make([]*Client, set.K()),
		docMaps:     make([][]uint32, set.K()),
	}
	for i := 0; i < set.K(); i++ {
		m, msig := set.Col(i).Manifest()
		c.shards[i] = newClient(m, msig, c.verifier, false)
		c.docMaps[i] = set.DocMap(i)
	}
	return c
}

// Shards returns the shard count the set manifest commits to.
func (c *ShardedClient) Shards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.shards)
}

// Generation returns the generation of the set manifest this client
// currently verifies against (0 for a static shard set).
func (c *ShardedClient) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.manifest.Generation
}

// checkManifestLocked runs the one-time set-manifest signature check
// (cached, like Client.checkManifestLocked; caller holds mu).
func (c *ShardedClient) checkManifestLocked() error {
	if !c.checked {
		if err := shard.VerifySetManifest(c.manifest, c.manifestSig, c.verifier); err != nil {
			c.checkErr = &core.VerifyError{Code: core.CodeBadSignature, Detail: err.Error()}
		}
		c.checked = true
		if c.checkErr == nil && c.manifest.Generation > c.maxGen {
			c.maxGen = c.manifest.Generation
		}
	}
	return c.checkErr
}

// state returns the verified manifest plus the per-shard verification
// material for one Verify pass.
func (c *ShardedClient) state() (*shard.SetManifest, []*Client, [][]uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkManifestLocked(); err != nil {
		return nil, nil, nil, err
	}
	return c.manifest, c.shards, c.docMaps, nil
}

// AdvanceExport moves the client to a newer generation of a live shard
// set, given the owner's current ATSX export (the /v1/shards/manifest
// payload). The set-manifest signature must verify against the PINNED key
// — the blob's embedded key is not trusted — and the generation must not
// regress below any already accepted (ErrStaleGeneration otherwise, which
// IsTampered classifies as tampering). Re-presenting the already-accepted
// generation byte-identically is a no-op.
func (c *ShardedClient) AdvanceExport(data []byte) error {
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
	if err := c.checkManifestLocked(); err != nil {
		return err
	}
	switch {
	case ex.manifest.Generation < c.maxGen:
		return &core.VerifyError{Code: core.CodeStaleGeneration,
			Detail: fmt.Sprintf("set manifest generation %d, already accepted %d", ex.manifest.Generation, c.maxGen)}
	case ex.manifest.Generation == c.maxGen:
		if !bytes.Equal(ex.manifest.Encode(), c.manifest.Encode()) {
			return &core.VerifyError{Code: core.CodeStaleGeneration,
				Detail: fmt.Sprintf("conflicting set manifest for generation %d", ex.manifest.Generation)}
		}
		return nil
	}
	c.manifest = ex.manifest
	c.manifestSig = ex.manifestSig
	c.docMaps = ex.docMaps
	c.shards = make([]*Client, ex.manifest.K)
	for i := range c.shards {
		// Shard manifests are bound to the (pinned-key-verified) set
		// manifest by digest, checked in parseShardedExport.
		c.shards[i] = newClient(ex.shardMans[i], ex.shardSigs[i], c.verifier, true)
	}
	c.maxGen = ex.manifest.Generation
	c.checked, c.checkErr = true, nil
	return nil
}

// Verify checks a sharded search result end to end: the set-manifest
// signature, every shard's verification object against that shard's signed
// manifest, and finally that the merged ranking equals the deterministic
// top-r recomputed from the (now trusted) per-shard results. It returns
// nil iff all checks pass; IsTampered classifies the error.
func (c *ShardedClient) Verify(query string, r int, res *ShardedResult) error {
	if res == nil {
		return errors.New("authtext: nil result")
	}
	_, shards, docMaps, err := c.state()
	if err != nil {
		return err
	}
	if len(res.PerShard) != len(shards) {
		return &core.VerifyError{Code: core.CodeIncomplete,
			Detail: fmt.Sprintf("%d shard responses for a %d-shard collection", len(res.PerShard), len(shards))}
	}
	perShard := make([][]core.ResultEntry, len(shards))
	contents := make(map[[2]int][]byte)
	for i, sr := range res.PerShard {
		if sr == nil {
			return &core.VerifyError{Code: core.CodeIncomplete,
				Detail: fmt.Sprintf("shard %d returned no response", i)}
		}
		if err := shards[i].Verify(query, r, sr); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		entries := make([]core.ResultEntry, len(sr.Hits))
		for j, h := range sr.Hits {
			entries[j] = core.ResultEntry{Doc: index.DocID(h.DocID), Score: h.Score}
			contents[[2]int{i, h.DocID}] = h.Content
		}
		perShard[i] = entries
	}
	merged := make([]shard.MergedHit, len(res.Merged))
	for i, h := range res.Merged {
		merged[i] = shard.MergedHit{Shard: h.Shard, Doc: index.DocID(h.DocID), Global: uint32(h.GlobalID), Score: h.Score}
	}
	if err := shard.VerifyMerge(perShard, docMaps, r, merged); err != nil {
		return err
	}
	// The merged entries must deliver the same (verified) content as the
	// shard answers they cite.
	for i, h := range res.Merged {
		if want, ok := contents[[2]int{h.Shard, h.DocID}]; !ok || !bytes.Equal(h.Content, want) {
			return &core.VerifyError{Code: core.CodeBadContent,
				Detail: fmt.Sprintf("merged entry %d content disagrees with shard %d's verified answer", i, h.Shard)}
		}
	}
	return nil
}
