package authtext

import (
	"authtext/internal/index"
	"authtext/internal/live"
	"authtext/internal/shard"
)

// Live collections accept document updates after publication: every batch
// of additions and removals becomes a new, fully authenticated publication
// state — a *generation* — built as a fresh immutable collection and
// atomically swapped into the serving path, exactly the mutation pattern
// docs/CONCURRENCY.md legislates. The generation number is signed inside
// the manifest and stamped into every VO, so clients can tell which state
// an answer speaks for and refuse to be rolled back to an older one.
// docs/UPDATES.md describes the model, its trust rules and its costs.

// DocHandle identifies a document inside a live collection for later
// removal. Handles are assigned on addition, are never reused, and stay
// valid across generations until the document is removed.
type DocHandle uint64

// UpdateReport summarises one accepted update batch.
type UpdateReport struct {
	// Generation is the newly published generation.
	Generation uint64
	// Documents is the number of live documents after the update;
	// tombstoned slots don't count.
	Documents int
	// Added and Removed count the batch's changes.
	Added, Removed int
	// TombstonedSlots is the number of removed-but-still-indexed slots the
	// new generation carries; Compacted reports that this rebuild dropped
	// the accumulated dead slots (a full re-sign). See docs/UPDATES.md.
	TombstonedSlots int
	Compacted       bool
	// SignaturesSigned counts fresh signatures the rebuild required;
	// SignaturesReused the ones carried over from the previous generation
	// (identical signed messages — unchanged term lists and document
	// records).
	SignaturesSigned, SignaturesReused int
	// ShardsReused counts whole shards carried over without a rebuild
	// (shard sets only).
	ShardsReused int
	// RebuildMillis is the wall time from accepting the batch to swapping
	// the served pointer.
	RebuildMillis float64
}

func updateReport(st *live.UpdateStats) *UpdateReport {
	return &UpdateReport{
		Generation:       st.Generation,
		Documents:        st.Documents,
		Added:            st.Added,
		Removed:          st.Removed,
		TombstonedSlots:  st.TombstonedSlots,
		Compacted:        st.Compacted,
		SignaturesSigned: st.Signed,
		SignaturesReused: st.Reused,
		ShardsReused:     st.ShardsReused,
		RebuildMillis:    float64(st.Rebuild.Microseconds()) / 1000,
	}
}

// LiveOwner owns a live collection — bare (NewLiveOwner) or a shard set
// (NewLiveShardedOwner): it holds the signing key, accepts update batches,
// and publishes a new signed generation for each. All construction Options
// of NewOwner apply, including the authority boost (WithAuthority /
// WithPageRank); use UpdateWithAuthority to score documents added later.
// Safe for concurrent use: updates serialise against each other, never
// against searches.
type LiveOwner struct {
	lc *live.Collection
	// metrics, when non-nil, receives generation telemetry for every
	// accepted update (metrics.go). Set before updates start.
	metrics *Metrics
}

// SetMetrics attaches a metric registry recording generation swaps,
// rebuild latency and signature reuse for every accepted update (nil
// detaches). The current generation is published immediately.
func (o *LiveOwner) SetMetrics(m *Metrics) {
	o.metrics = m
	m.setGeneration(o.lc.Generation())
}

// NewLiveOwner indexes the documents and publishes generation 1. The
// returned handles identify the initial documents, in input order.
func NewLiveOwner(docs []Document, opts ...Option) (*LiveOwner, []DocHandle, error) {
	cfg, idocs, _, err := prepareBuild(docs, opts)
	if err != nil {
		return nil, nil, err
	}
	lc, handles, err := live.New(idocs, cfg)
	if err != nil {
		return nil, nil, err
	}
	return &LiveOwner{lc: lc}, docHandles(handles), nil
}

// NewLiveShardedOwner is NewLiveOwner over a shard set: one signing key, k
// shards, and a freshly signed shard-set manifest per generation. An update
// rebuilds only the shards whose membership changed — a small batch touches
// few shards, and untouched shards are carried over wholesale — then the
// whole set swaps atomically, so a fan-out never mixes generations. Only
// PartitionHash is supported (and is the default): its placement depends on
// document content alone, so it is stable under updates — the property that
// makes whole-shard reuse and tombstoned removals possible.
// WithShardPartitioner(PartitionRoundRobin) is rejected with an error
// explaining why.
func NewLiveShardedOwner(docs []Document, shards int, opts ...Option) (*LiveOwner, []DocHandle, error) {
	cfg, idocs, o, err := prepareBuild(docs, opts)
	if err != nil {
		return nil, nil, err
	}
	lc, handles, err := live.NewSharded(idocs, cfg, shards, o.shardPartitioner(shard.HashContent))
	if err != nil {
		return nil, nil, err
	}
	return &LiveOwner{lc: lc}, docHandles(handles), nil
}

func docHandles(hs []uint64) []DocHandle {
	out := make([]DocHandle, len(hs))
	for i, h := range hs {
		out[i] = DocHandle(h)
	}
	return out
}

func rawHandles(hs []DocHandle) []uint64 {
	out := make([]uint64, len(hs))
	for i, h := range hs {
		out[i] = uint64(h)
	}
	return out
}

// AddDocuments publishes a new generation containing the given documents
// in addition to the current corpus.
func (o *LiveOwner) AddDocuments(docs []Document) ([]DocHandle, *UpdateReport, error) {
	return o.Update(docs, nil)
}

// RemoveDocuments publishes a new generation without the given documents.
func (o *LiveOwner) RemoveDocuments(handles ...DocHandle) (*UpdateReport, error) {
	_, rep, err := o.Update(nil, handles)
	return rep, err
}

// Update applies additions and removals as one atomic generation change.
// On error nothing is published and the serving state is unchanged.
func (o *LiveOwner) Update(add []Document, remove []DocHandle) ([]DocHandle, *UpdateReport, error) {
	return o.UpdateWithAuthority(add, nil, remove)
}

// UpdateWithAuthority is Update with per-document authority scores for
// the additions (collections built with WithAuthority or WithPageRank
// only; len(auth) == len(add), scores in [0,1]). A nil auth on a boosted
// collection scores every added document 0.
func (o *LiveOwner) UpdateWithAuthority(add []Document, auth []float64, remove []DocHandle) ([]DocHandle, *UpdateReport, error) {
	idocs := make([]index.Document, len(add))
	for i, d := range add {
		idocs[i] = index.Document{Content: d.Content, Tokens: d.Tokens}
	}
	handles, st, err := o.lc.UpdateWithAuthority(idocs, auth, rawHandles(remove))
	if err != nil {
		return nil, nil, err
	}
	rep := updateReport(st)
	o.metrics.recordUpdate(rep)
	return docHandles(handles), rep, nil
}

// Generation returns the latest published generation (≥ 1).
func (o *LiveOwner) Generation() uint64 { return o.lc.Generation() }

// Shards returns the shard count: 0 for a bare collection.
func (o *LiveOwner) Shards() int { return o.lc.Shards() }

// Handles returns the handles of the current corpus, in (global) document
// order.
func (o *LiveOwner) Handles() []DocHandle { return docHandles(o.lc.Handles()) }

// LastUpdate reports the cost of the most recent generation change
// (the initial build for a freshly constructed owner).
func (o *LiveOwner) LastUpdate() *UpdateReport {
	st := o.lc.LastStats()
	return updateReport(&st)
}

// current is the latest published generation of lc.
func current(lc *live.Collection) served {
	return served{col: lc.Current(), set: lc.CurrentSet()}
}

// Server returns the live serving half. One LiveServer tracks every
// future generation; Snapshot pins the current one.
func (o *LiveOwner) Server() *LiveServer { return &LiveServer{lc: o.lc} }

// Client returns a verification client pinned to the owner's public key,
// positioned at the current generation. Advance it with ExportClient blobs
// (or, a bare collection's, with ManifestUpdate payloads), or let a
// RemoteClient advance itself from the manifest endpoint.
func (o *LiveOwner) Client() *Client { return current(o.lc).client() }

// ManifestUpdate returns the current generation's canonical manifest
// encoding and signature — the payload Client.Advance consumes. Publish
// it over any channel; its trust comes from the signature, not the
// transport. Bare collections only: one manifest cannot carry a shard
// population, so a shard set returns nil, nil — publish ExportClient's blob
// for Client.AdvanceExport instead.
func (o *LiveOwner) ManifestUpdate() (manifest, sig []byte) {
	col := o.lc.Current()
	if col == nil {
		return nil, nil
	}
	m, msig := col.Manifest()
	return m.Encode(), msig
}

// ExportClient serialises the current generation's verification material:
// the manifest endpoint's payload, and what Client.AdvanceExport consumes
// (ATCX — RSA-signed collections only — or a shard set's ATSX, like
// Owner.ExportClient).
func (o *LiveOwner) ExportClient() ([]byte, error) { return o.Client().Export() }

// LiveServer serves queries from the latest published generation of a
// live collection. Safe for concurrent use; a search (a whole fan-out) in
// flight during a generation swap completes entirely against the generation
// it started on (its VO names that generation), never a mix.
type LiveServer struct {
	lc      *live.Collection
	cache   *VOCache
	metrics *Metrics
}

// SetVOCache attaches a VO cache carried into every Snapshot (nil
// detaches). Generation-stamped keys make it safe across updates: a swap
// invalidates every cached answer by construction, and an entry of the
// old generation that is somehow replayed still verifies (or classifies
// ErrStaleGeneration) client-side. Call before serving starts.
func (s *LiveServer) SetVOCache(c *VOCache) { s.cache = c }

// SetMetrics attaches a metric registry carried into every Snapshot (nil
// detaches). Call before serving starts.
func (s *LiveServer) SetMetrics(m *Metrics) {
	s.metrics = m
	m.setGeneration(s.Generation())
}

// Snapshot pins the current generation and returns an ordinary Server
// for it: batches or multi-query sessions that must see one consistent
// state use the pinned server for all their queries.
func (s *LiveServer) Snapshot() *Server {
	return &Server{v: current(s.lc), cache: s.cache, metrics: s.metrics}
}

// Generation returns the latest published generation.
func (s *LiveServer) Generation() uint64 { return s.lc.Generation() }

// Shards returns the shard count: 0 for a bare collection.
func (s *LiveServer) Shards() int { return s.lc.Shards() }

// Search runs a top-r query against the latest generation (see
// Server.Search).
func (s *LiveServer) Search(query string, r int, algo Algorithm, scheme Scheme) (*SearchResult, error) {
	return s.Snapshot().Search(query, r, algo, scheme)
}

// SearchBatch executes the batch against ONE generation: the whole batch
// is answered by the generation current when it started (see
// Server.SearchBatch for the execution model).
func (s *LiveServer) SearchBatch(queries []BatchQuery, workers int) []BatchItem {
	return s.Snapshot().SearchBatch(queries, workers)
}
