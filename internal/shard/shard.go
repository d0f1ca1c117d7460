// Package shard splits a document collection into independently
// authenticated sub-collections ("shards"), builds and signs each one with
// the existing engine, and fans queries out to all shards in parallel.
//
// The trust model is unchanged from the single-collection scheme: the
// owner signs every shard's manifest with the same key, plus one extra
// signature over the *shard-set manifest* — a small descriptor that pins
// the shard count, the partitioning policy, and a digest of every shard's
// manifest and local→global document-ID map. A client that verifies the
// set manifest therefore knows exactly which shards must answer; a server
// cannot drop a shard, substitute a differently built one (even one the
// same owner signed for another deployment), or lie about the global IDs.
//
// The global top-r is defined over the scores the shards commit to: each
// shard answers the query for its local top-r with a verification object,
// and the merged ranking is the deterministic top-r of the union (score
// descending, ties broken by shard then document ID). Because every
// shard's local top-r is individually authenticated and the union of
// local top-r sets always contains the global top-r, a client can check
// the merge by recomputation alone — no additional cryptography. Okapi
// scores use per-shard statistics (n_i, avgLen_i); with the hash and
// round-robin partitioners these converge to the global statistics as the
// corpus grows (docs/SHARDING.md discusses the trade-off).
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"authtext/internal/core"
	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/sig"
)

// Partitioner records in a set manifest how the set placed its documents.
type Partitioner uint8

const (
	// RoundRobin assigns document i to shard i mod k: perfectly balanced
	// shard sizes and a trivially invertible global-ID mapping. Build
	// places every static set this way.
	RoundRobin Partitioner = 1
	// HashContent assigns documents by FNV-1a hash of their content (or
	// token stream): placement is stable under corpus reordering and
	// updates, at the price of slightly uneven shard sizes. Live sets place
	// this way (HashDoc).
	HashContent Partitioner = 2
)

// String implements fmt.Stringer.
func (p Partitioner) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case HashContent:
		return "hash"
	}
	return fmt.Sprintf("Partitioner(%d)", uint8(p))
}

func (p Partitioner) valid() bool { return p == RoundRobin || p == HashContent }

// roundRobin distributes n documents over k shards, document i to shard
// i mod k, returning the global document indices of each shard in ascending
// order. Every shard is non-empty.
func roundRobin(n, k int) ([][]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: shard count %d", k)
	}
	if k > n {
		return nil, fmt.Errorf("shard: %d shards for %d documents", k, n)
	}
	out := make([][]int, k)
	for i := 0; i < n; i++ {
		out[i%k] = append(out[i%k], i)
	}
	return out, nil
}

// HashDoc returns the shard HashContent assigns d to, so live sharded sets
// can place additions without re-partitioning the whole corpus. Placement
// depends only on the document itself, never on its position — which is
// exactly what makes hash placement stable under interleaved adds and
// removals.
func HashDoc(d index.Document, k int) int {
	h := fnv.New64a()
	if len(d.Content) > 0 {
		h.Write(d.Content)
	} else {
		for _, tok := range d.Tokens {
			h.Write([]byte(tok))
			h.Write([]byte{0})
		}
	}
	return int(h.Sum64() % uint64(k))
}

// Config controls Build.
type Config struct {
	// Engine is the per-shard build configuration; its Signer signs every
	// shard and the set manifest. Engine.Authority, when set, is indexed by
	// global document position and split across shards automatically.
	Engine engine.Config
	// Shards is the shard count k ≥ 1.
	Shards int
}

// Set is a built shard set: k serving collections plus the signed set
// manifest binding them together.
type Set struct {
	cols        []*engine.Collection
	manifest    *SetManifest
	manifestSig []byte
	verifier    sig.Verifier
	docMaps     [][]uint32 // [shard][local doc] = global doc index
}

// Build places the documents round-robin, builds every shard concurrently
// with the shared signer, and signs the set manifest. Shard builds run in
// parallel — the first concurrency-scaling path of the codebase — so
// owner-side build time drops with core count as well as with per-shard
// input size.
func Build(docs []index.Document, cfg Config) (*Set, error) {
	if cfg.Engine.Signer == nil {
		return nil, errors.New("shard: config needs a signer")
	}
	if cfg.Engine.Authority != nil && len(cfg.Engine.Authority) != len(docs) {
		return nil, fmt.Errorf("shard: %d authority scores for %d documents", len(cfg.Engine.Authority), len(docs))
	}
	assign, err := roundRobin(len(docs), cfg.Shards)
	if err != nil {
		return nil, err
	}
	k := len(assign)

	cols := make([]*engine.Collection, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sub := make([]index.Document, len(assign[s]))
			scfg := cfg.Engine
			if cfg.Engine.Authority != nil {
				scfg.Authority = make([]float64, len(assign[s]))
			}
			for i, g := range assign[s] {
				sub[i] = docs[g]
				if scfg.Authority != nil {
					scfg.Authority[i] = cfg.Engine.Authority[g]
				}
			}
			cols[s], errs[s] = engine.BuildCollection(sub, scfg)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}

	docMaps := make([][]uint32, k)
	for s := range assign {
		docMaps[s] = make([]uint32, len(assign[s]))
		for i, g := range assign[s] {
			docMaps[s][i] = uint32(g)
		}
	}

	hashSize := cfg.Engine.HashSize
	if hashSize == 0 {
		hashSize = sig.DefaultHashSize
	}
	hasher, err := sig.NewHasher(hashSize)
	if err != nil {
		return nil, err
	}
	sm := &SetManifest{
		K:               uint32(k),
		Partitioner:     RoundRobin,
		GlobalN:         uint32(len(docs)),
		HashSize:        uint8(hashSize),
		ShardDocs:       make([]uint32, k),
		ManifestDigests: make([][]byte, k),
		DocMapDigests:   make([][]byte, k),
	}
	for s, col := range cols {
		m, _ := col.Manifest()
		sm.ShardDocs[s] = m.N
		sm.ManifestDigests[s] = hasher.Sum(m.Encode())
		sm.DocMapDigests[s] = hasher.Sum(EncodeDocMap(docMaps[s]))
	}
	smSig, err := cfg.Engine.Signer.Sign(sm.Encode())
	if err != nil {
		return nil, fmt.Errorf("shard: sign set manifest: %w", err)
	}
	return &Set{
		cols:        cols,
		manifest:    sm,
		manifestSig: smSig,
		verifier:    cfg.Engine.Signer.Verifier(),
		docMaps:     docMaps,
	}, nil
}

// Assemble rebuilds a Set from already-restored shard collections plus the
// set manifest — the snapshot warm-start path. Each shard's manifest and
// the supplied docMaps are cross-checked against the (signed) set manifest
// digests, so a mixed-up or substituted shard file fails here rather than
// at first query.
func Assemble(cols []*engine.Collection, sm *SetManifest, smSig []byte, verifier sig.Verifier, docMaps [][]uint32) (*Set, error) {
	if err := sm.Validate(); err != nil {
		return nil, err
	}
	if verifier == nil {
		return nil, errors.New("shard: assemble: nil verifier")
	}
	if len(cols) != int(sm.K) || len(docMaps) != int(sm.K) {
		return nil, fmt.Errorf("shard: assemble: %d collections and %d doc maps for %d shards", len(cols), len(docMaps), sm.K)
	}
	hasher, err := sig.NewHasher(int(sm.HashSize))
	if err != nil {
		return nil, err
	}
	for s, col := range cols {
		m, _ := col.Manifest()
		if m.N != sm.ShardDocs[s] {
			return nil, fmt.Errorf("shard: assemble: shard %d has %d documents, set manifest says %d", s, m.N, sm.ShardDocs[s])
		}
		if string(hasher.Sum(m.Encode())) != string(sm.ManifestDigests[s]) {
			return nil, fmt.Errorf("shard: assemble: shard %d manifest does not match the set manifest", s)
		}
		if len(docMaps[s]) != int(sm.ShardDocs[s]) {
			return nil, fmt.Errorf("shard: assemble: shard %d doc map has %d entries for %d documents", s, len(docMaps[s]), sm.ShardDocs[s])
		}
		if string(hasher.Sum(EncodeDocMap(docMaps[s]))) != string(sm.DocMapDigests[s]) {
			return nil, fmt.Errorf("shard: assemble: shard %d doc map does not match the set manifest", s)
		}
	}
	return &Set{cols: cols, manifest: sm, manifestSig: smSig, verifier: verifier, docMaps: docMaps}, nil
}

// K returns the shard count.
func (s *Set) K() int { return len(s.cols) }

// Col returns shard i's collection.
func (s *Set) Col(i int) *engine.Collection { return s.cols[i] }

// Manifest returns the signed set manifest and its signature.
func (s *Set) Manifest() (*SetManifest, []byte) { return s.manifest, s.manifestSig }

// Verifier returns the owner's public verification key.
func (s *Set) Verifier() sig.Verifier { return s.verifier }

// DocMap returns shard i's local→global document-ID map (do not mutate).
func (s *Set) DocMap(i int) []uint32 { return s.docMaps[i] }

// GlobalID translates a shard-local document ID to its global index.
func (s *Set) GlobalID(shardIdx int, d index.DocID) uint32 { return s.docMaps[shardIdx][d] }

// Documents returns the global document slot count (including tombstoned
// slots of a live set).
func (s *Set) Documents() int { return int(s.manifest.GlobalN) }

// LiveDocuments returns the number of live documents across all shards:
// equal to Documents unless shards carry tombstones.
func (s *Set) LiveDocuments() int {
	n := 0
	for _, c := range s.cols {
		n += c.LiveDocs()
	}
	return n
}

// Terms returns the summed dictionary size across shards (terms occurring
// in several shards count once per shard).
func (s *Set) Terms() int {
	t := 0
	for _, c := range s.cols {
		t += c.Index().M()
	}
	return t
}

// ShardResult is one shard's contribution to a fanned-out query.
type ShardResult struct {
	Result *engine.Result
	VO     []byte
	Stats  *engine.QueryStats
}

// SetResult is the answer to a fanned-out query: every shard's
// individually authenticated local top-r plus the merged global ranking.
type SetResult struct {
	PerShard []ShardResult
	Merged   []MergedHit
	// Wall is the fan-out wall time (slowest shard, since shards run in
	// parallel).
	Wall time.Duration
	// MergeWall is the slice of Wall spent in MergeTopK after the fan-out
	// barrier.
	MergeWall time.Duration
}

// Search fans the query out to every shard concurrently and merges the
// local top-r lists into the global top-r. Shard collections are
// immutable and lock-free on the read path, so k shards give k-way
// parallelism for a single query, and concurrent Search calls additionally
// overlap inside each shard (intra-shard parallelism) — fan-outs never
// queue behind one another.
func (s *Set) Search(tokens []string, r int, algo core.Algo, scheme core.Scheme) (*SetResult, error) {
	if r < 1 {
		return nil, fmt.Errorf("shard: result size %d", r)
	}
	start := time.Now()
	k := len(s.cols)
	out := &SetResult{PerShard: make([]ShardResult, k)}
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, vo, st, err := s.cols[i].Search(tokens, r, algo, scheme)
			if err != nil {
				errs[i] = err
				return
			}
			out.PerShard[i] = ShardResult{Result: res, VO: vo, Stats: st}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	perShard := make([][]core.ResultEntry, k)
	for i := range out.PerShard {
		perShard[i] = out.PerShard[i].Result.Entries
	}
	mergeStart := time.Now()
	out.Merged = MergeTopK(perShard, s.docMaps, r)
	out.MergeWall = time.Since(mergeStart)
	out.Wall = time.Since(start)
	return out, nil
}

// VerifyResult runs the full client-side check against this set's own
// manifests: every shard's VO, then the merge. Experiments and tests use
// it the way engine.Collection.VerifyResult is used for one collection.
func (s *Set) VerifyResult(tokens []string, r int, res *SetResult) error {
	if len(res.PerShard) != len(s.cols) {
		return vErrf(core.CodeIncomplete, "%d shard responses for %d shards", len(res.PerShard), len(s.cols))
	}
	perShard := make([][]core.ResultEntry, len(s.cols))
	for i, col := range s.cols {
		if _, err := col.VerifyResult(tokens, r, res.PerShard[i].Result, res.PerShard[i].VO); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		perShard[i] = res.PerShard[i].Result.Entries
	}
	return VerifyMerge(perShard, s.docMaps, r, res.Merged)
}

// sortEntries orders merged candidates deterministically: score
// descending, ties broken by shard then local document ID.
func sortMerged(hits []MergedHit) {
	sort.SliceStable(hits, func(a, b int) bool {
		if hits[a].Score != hits[b].Score {
			return hits[a].Score > hits[b].Score
		}
		if hits[a].Shard != hits[b].Shard {
			return hits[a].Shard < hits[b].Shard
		}
		return hits[a].Doc < hits[b].Doc
	})
}

func vErrf(code core.VerifyCode, format string, args ...interface{}) error {
	return &core.VerifyError{Code: code, Detail: fmt.Sprintf(format, args...)}
}
