package authtext

import (
	"authtext/internal/index"
	"authtext/internal/live"
	"authtext/internal/shard"
)

// LiveShardedOwner owns a live sharded collection: one signing key, k
// shards, and a freshly signed shard-set manifest per generation. Updates
// re-partition the corpus and rebuild only the shards whose membership
// changed — with the hash partitioner a small batch touches few shards,
// and untouched shards are carried over wholesale — then the whole set
// swaps atomically, so a fan-out never mixes generations.
type LiveShardedOwner struct {
	lc *live.ShardedCollection
	// metrics, when non-nil, receives generation telemetry for every
	// accepted update (metrics.go). Set before updates start.
	metrics *Metrics
}

// SetMetrics attaches a metric registry recording set-generation swaps,
// rebuild latency and signature reuse (nil detaches). The current
// generation is published immediately.
func (o *LiveShardedOwner) SetMetrics(m *Metrics) {
	o.metrics = m
	m.setGeneration(o.lc.Generation())
}

// NewLiveShardedOwner partitions the documents into shards and publishes
// generation 1. All NewShardedOwner options apply, including the
// authority boost. Only PartitionHash is supported (and is the default):
// its placement depends on document content alone, so it is stable under
// updates — the property that makes whole-shard reuse and tombstoned
// removals possible. WithPartitioner(PartitionRoundRobin) is rejected
// with an error explaining why.
func NewLiveShardedOwner(docs []Document, shards int, opts ...Option) (*LiveShardedOwner, []DocHandle, error) {
	cfg, idocs, o, err := prepareBuild(docs, opts)
	if err != nil {
		return nil, nil, err
	}
	part := shard.HashContent
	if o.partitioner != 0 {
		part = o.partitioner.internal()
	}
	lc, handles, err := live.NewSharded(idocs, cfg, shards, part)
	if err != nil {
		return nil, nil, err
	}
	return &LiveShardedOwner{lc: lc}, docHandles(handles), nil
}

// AddDocuments publishes a new set generation containing the documents.
func (o *LiveShardedOwner) AddDocuments(docs []Document) ([]DocHandle, *UpdateReport, error) {
	return o.Update(docs, nil)
}

// RemoveDocuments publishes a new set generation without the documents.
func (o *LiveShardedOwner) RemoveDocuments(handles ...DocHandle) (*UpdateReport, error) {
	_, rep, err := o.Update(nil, handles)
	return rep, err
}

// Update applies additions and removals as one atomic set-wide generation
// change. On error nothing is published.
func (o *LiveShardedOwner) Update(add []Document, remove []DocHandle) ([]DocHandle, *UpdateReport, error) {
	return o.UpdateWithAuthority(add, nil, remove)
}

// UpdateWithAuthority is Update with per-document authority scores for
// the additions (see LiveOwner.UpdateWithAuthority).
func (o *LiveShardedOwner) UpdateWithAuthority(add []Document, auth []float64, remove []DocHandle) ([]DocHandle, *UpdateReport, error) {
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

// Generation returns the latest published set generation (≥ 1).
func (o *LiveShardedOwner) Generation() uint64 { return o.lc.Generation() }

// Shards returns the shard count.
func (o *LiveShardedOwner) Shards() int { return o.lc.Shards() }

// LastUpdate reports the cost of the most recent generation change.
func (o *LiveShardedOwner) LastUpdate() *UpdateReport {
	st := o.lc.LastStats()
	return updateReport(&st)
}

// Server returns the live sharded serving half.
func (o *LiveShardedOwner) Server() *LiveShardedServer { return &LiveShardedServer{lc: o.lc} }

// Client returns a verification client pinned to the owner's key at the
// current set generation; advance it with AdvanceExport payloads.
func (o *LiveShardedOwner) Client() *ShardedClient {
	return newShardedClientFromSet(o.lc.Current())
}

// ExportClient serialises the current generation's ATSX verification
// material (also the /v1/shards/manifest payload, and what
// ShardedClient.AdvanceExport consumes).
func (o *LiveShardedOwner) ExportClient() ([]byte, error) {
	return exportSet(o.lc.Current())
}

// LiveShardedServer serves fanned-out queries from the latest published
// set generation. A query in flight during a swap completes entirely
// against the set it started on.
type LiveShardedServer struct {
	lc      *live.ShardedCollection
	cache   *VOCache
	metrics *Metrics
}

// SetVOCache attaches a VO cache carried into every Snapshot (nil
// detaches; see LiveServer.SetVOCache for the update-safety argument).
func (s *LiveShardedServer) SetVOCache(c *VOCache) { s.cache = c }

// SetMetrics attaches a metric registry carried into every Snapshot (nil
// detaches). Call before serving starts.
func (s *LiveShardedServer) SetMetrics(m *Metrics) {
	s.metrics = m
	m.setGeneration(s.lc.Generation())
}

// Snapshot pins the current set generation as an ordinary ShardedServer.
func (s *LiveShardedServer) Snapshot() *ShardedServer {
	return (&ShardedServer{set: s.lc.Current()}).withCache(s.cache).withMetrics(s.metrics)
}

// Generation returns the latest published set generation.
func (s *LiveShardedServer) Generation() uint64 { return s.lc.Generation() }

// Shards returns the shard count.
func (s *LiveShardedServer) Shards() int { return s.lc.Shards() }

// Search fans the query out over the latest generation's shards (see
// ShardedServer.Search).
func (s *LiveShardedServer) Search(query string, r int, algo Algorithm, scheme Scheme) (*ShardedResult, error) {
	return s.Snapshot().Search(query, r, algo, scheme)
}
