package authtext

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"authtext/internal/engine"
	"authtext/internal/httpapi"
	"authtext/internal/live"
	"authtext/internal/shard"
)

// Per-generation snapshot layout: a live snapshot directory holds one
// ordinary snapshot per published generation — an ATSN file for a single
// collection, a sharded snapshot DIRECTORY for a shard set:
//
//	dir/gen-000000000001.atsn        dir/gen-000000000001/shard-0000.atsn ... shards.atsx
//	dir/gen-000000000002.atsn        dir/gen-000000000002/shard-0000.atsn ... shards.atsx
//	...
//
// Every generation is published atomically and durably (publish, in
// snapshot.go): a crash or power cut mid-write never leaves a partial
// generation under a generation name. The highest generation IS the
// current state — no separate pointer file to go stale — and a serving
// process resumes at the latest generation by scanning the directory; each
// entry is independently a valid OpenSnapshotFile / OpenShardedSnapshotDir
// input. The trust model is theirs: the directory is untrusted (sharded
// sets are cross-checked against the signed set manifest), and a replica
// additionally refuses to reload a generation lower than one it already
// served (rollback on disk is still rollback). docs/UPDATES.md and
// docs/SNAPSHOT.md describe the layout.

// genName names one generation's snapshot: a file for a single collection,
// a directory for a sharded set. Zero-padding to 12 digits keeps
// lexicographic and numeric order identical.
func genName(gen uint64, sharded bool) string {
	if sharded {
		return fmt.Sprintf("gen-%012d", gen)
	}
	return fmt.Sprintf("gen-%012d.atsn", gen)
}

// parseGenName inverts genName (0, false for foreign entries).
func parseGenName(name string, sharded bool) (uint64, bool) {
	var gen uint64
	if _, err := fmt.Sscanf(name, "gen-%012d", &gen); err != nil || gen == 0 || name != genName(gen, sharded) {
		return 0, false
	}
	return gen, true
}

// latestGeneration scans dir for the highest-generation snapshot of the
// given shape.
func latestGeneration(dir string, sharded bool) (uint64, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, "", err
	}
	var latest uint64
	for _, e := range entries {
		gen, ok := parseGenName(e.Name(), sharded)
		if !ok || e.IsDir() != sharded || gen <= latest {
			continue
		}
		if sharded {
			// A generation directory is only eligible once its ATSX bundle is
			// in place (renames are atomic, so this only excludes foreign dirs).
			if _, err := os.Stat(filepath.Join(dir, e.Name(), ShardedManifestFile)); err != nil {
				continue
			}
		}
		latest = gen
	}
	if latest == 0 {
		return 0, "", errors.New("authtext: no generation snapshots in directory")
	}
	return latest, filepath.Join(dir, genName(latest, sharded)), nil
}

// IsLiveSnapshotDir reports whether path is a directory holding
// per-generation snapshots (used by the CLIs to route -snapshot PATH).
func IsLiveSnapshotDir(path string) bool {
	_, _, err := latestGeneration(path, false)
	return err == nil
}

// IsLiveShardedSnapshotDir reports whether path is a directory holding
// per-generation sharded snapshots (used by the CLIs to route
// -snapshot PATH).
func IsLiveShardedSnapshotDir(path string) bool {
	_, _, err := latestGeneration(path, true)
	return err == nil
}

// WriteSnapshotDir persists the CURRENT generation as
// dir/gen-NNNNNNNNNNNN.atsn (creating dir if needed) and returns the
// written path. Earlier generations' files are left in place — prune them
// with any retention policy you like; a replica always picks the highest
// generation. The write is atomic and fsynced: a crash mid-write leaves no
// partial snapshot under a generation name.
func (o *LiveOwner) WriteSnapshotDir(dir string) (string, error) {
	return writeGenerationSnapshot(o.lc.Current(), dir)
}

// WriteSnapshotDir persists the CURRENT set generation as
// dir/gen-NNNNNNNNNNNN/ (see LiveOwner.WriteSnapshotDir).
func (o *LiveShardedOwner) WriteSnapshotDir(dir string) (string, error) {
	return writeShardedGenerationSnapshot(o.lc.Current(), dir)
}

// PersistGenerations writes the current generation's snapshot to dir now
// and arranges for every FUTURE generation to be written too, from
// inside the update critical section — so even updates racing each other
// each leave their own gen-*.atsn file, in order. onError (optional)
// receives snapshot failures of future generations; the update itself
// still succeeds (serving beats durability here, and the next
// generation's snapshot re-establishes the latest state on disk).
//
// Calling it makes this owner THE writer of dir: whatever an earlier
// writer's interrupted publishes left there (hidden .gen-*.tmp entries) is
// removed first. Replicas and one-shot WriteSnapshotDir calls never sweep.
func (o *LiveOwner) PersistGenerations(dir string, onError func(gen uint64, err error)) (string, error) {
	return persistGenerations(dir, o.lc.Current(), writeGenerationSnapshot, o.lc.SetPublishHook, onError)
}

// PersistGenerations is LiveOwner.PersistGenerations for a shard set: each
// set generation leaves its own gen-*/ directory.
func (o *LiveShardedOwner) PersistGenerations(dir string, onError func(gen uint64, err error)) (string, error) {
	return persistGenerations(dir, o.lc.Current(), writeShardedGenerationSnapshot, o.lc.SetPublishHook, onError)
}

func persistGenerations[T any](dir string, cur T, write func(T, string) (string, error),
	setHook func(func(T, *live.UpdateStats)), onError func(gen uint64, err error)) (string, error) {
	if err := sweepPublishTemps(dir); err != nil {
		return "", err
	}
	path, err := write(cur, dir)
	if err != nil {
		return "", err
	}
	setHook(func(next T, st *live.UpdateStats) {
		if _, err := write(next, dir); err != nil && onError != nil {
			onError(st.Generation, err)
		}
	})
	return path, nil
}

// writeGenerationSnapshot publishes col's generation snapshot into dir and
// returns the path.
func writeGenerationSnapshot(col *engine.Collection, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	m, _ := col.Manifest()
	path := filepath.Join(dir, genName(m.Generation, false))
	return path, publishCollection(path, col)
}

// writeShardedGenerationSnapshot publishes set's generation directory
// into dir and returns its path. A generation that is already on disk is
// left alone: the signed content is determined by the generation, so the
// existing directory is as good as a rewrite.
func writeShardedGenerationSnapshot(set *shard.Set, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	sm, _ := set.Manifest()
	path := filepath.Join(dir, genName(sm.Generation, true))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	return path, publish(path, true, func(tmp string) error { return writeShardSet(tmp, set) })
}

// generation is one loaded generation of a replica; S and C are its
// serving and verifying halves.
type generation[S, C any] struct {
	server S
	client C
	gen    uint64
	// export is the blob served at the manifest endpoint (ATCX or ATSX);
	// nil for fast-signer single-collection snapshots.
	export []byte
	// ms, for mapped replicas, owns this generation's file mapping. The
	// generation holds the opening reference; Reload releases it when the
	// generation is superseded, and pinned Server() copies hold their own
	// references (dropped by finalizer), so in-flight queries keep their
	// pages until they are collected — unmap-after-swap, never under a
	// reader.
	ms *MappedSnapshot
}

func (g *generation[S, C]) release() {
	if g.ms != nil {
		g.ms.Close()
	}
}

// replica is what LiveReplica and LiveShardedReplica share: the served
// generation, the reload protocol over a per-generation snapshot
// directory, and the serving-only half of a handler's generation source.
type replica[S, C any] struct {
	dir     string
	sharded bool
	// load opens one generation snapshot, reporting the generation its
	// signed manifest pins.
	load func(path string) (*generation[S, C], error)

	mu  sync.Mutex // serialises Reload
	cur atomic.Pointer[generation[S, C]]
	// cache and metrics are carried into every Server() copy; the shared
	// generation's server is never mutated. metrics also receives reload
	// telemetry (generation gauge, snapshot open time).
	cache   *VOCache
	metrics *Metrics
}

// Reload checks the directory for a newer generation and atomically swaps
// to it, returning whether a swap happened. Every snapshot is cross-checked
// against its name: one whose signed manifest pins a different generation
// than its name claims is rejected, and so is a directory whose latest
// generation is lower than the one being served. Reload is cheap when
// nothing changed (one directory scan).
func (r *replica[S, C]) Reload() (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	gen, path, err := latestGeneration(r.dir, r.sharded)
	if err != nil {
		return false, err
	}
	cur := r.cur.Load()
	if cur != nil {
		if gen == cur.gen {
			return false, nil
		}
		if gen < cur.gen {
			return false, fmt.Errorf("authtext: snapshot directory rolled back: serving generation %d, latest on disk is %d",
				cur.gen, gen)
		}
	}
	openStart := time.Now()
	next, err := r.load(path)
	if err != nil {
		return false, err
	}
	if next.gen != gen {
		next.release()
		return false, fmt.Errorf("authtext: %s: signed manifest pins generation %d, its name claims %d",
			filepath.Base(path), next.gen, gen)
	}
	r.cur.Store(next)
	if cur != nil {
		// Unmap after swap: drop the superseded generation's opening
		// reference. Server() copies pinned to it still hold their own.
		cur.release()
	}
	r.metrics.recordSnapshotOpen(gen, time.Since(openStart))
	return true, nil
}

// SetVOCache attaches a VO cache carried into every Server() result (nil
// detaches). Call before serving starts. Reloads need no cache work:
// generation-stamped keys mean entries of superseded generations simply
// stop matching.
func (r *replica[S, C]) SetVOCache(c *VOCache) { r.cache = c }

// SetMetrics attaches a metric registry carried into every Server() result
// and recording reload telemetry (nil detaches). Call before serving
// starts. The currently served generation is published immediately.
func (r *replica[S, C]) SetMetrics(m *Metrics) {
	r.metrics = m
	m.setGeneration(r.Generation())
}

// Client returns the verification client of the current generation.
func (r *replica[S, C]) Client() C { return r.cur.Load().client }

// Generation returns the currently served generation.
func (r *replica[S, C]) Generation() uint64 { return r.cur.Load().gen }

// The serving-only half of a handler's generation source (serve.go); pin
// is each replica's Server.

func (r *replica[S, C]) export() ([]byte, error) {
	if blob := r.cur.Load().export; blob != nil {
		return blob, nil
	}
	return nil, &httpapi.StatusError{
		Status:  http.StatusServiceUnavailable,
		Code:    httpapi.CodeUnavailable,
		Message: "this server has no publishable verification key (fast-signer build?)",
	}
}

func (r *replica[S, C]) adopt(_ *VOCache, m *Metrics) {
	if m != nil && r.metrics == nil {
		r.SetMetrics(m)
	}
}

func (r *replica[S, C]) updater() (liveUpdater, bool) { return nil, true }

// LiveReplica serves a live collection from its snapshot directory
// without holding the signing key: it opens the latest generation and,
// on Reload, hot-swaps to any newer generation that has appeared —
// `authserved -watch` is its production wrapper. It refuses to move
// backward: a directory whose latest generation shrank fails Reload
// rather than silently serving rolled-back state.
type LiveReplica struct {
	replica[*Server, *Client]
}

// OpenLiveSnapshotDir opens the latest generation in dir and returns the
// serving replica.
func OpenLiveSnapshotDir(dir string) (*LiveReplica, error) { return openLiveReplica(dir, false) }

// OpenLiveSnapshotDirMapped is OpenLiveSnapshotDir with zero-copy
// generation opens: each gen-*.atsn is memory-mapped instead of copied, so
// a reload swaps generations at decode speed and superseded generations'
// pages unmap once their in-flight queries finish (see MappedSnapshot).
func OpenLiveSnapshotDirMapped(dir string) (*LiveReplica, error) { return openLiveReplica(dir, true) }

func openLiveReplica(dir string, mapped bool) (*LiveReplica, error) {
	r := &LiveReplica{}
	r.dir = dir
	r.load = func(path string) (*generation[*Server, *Client], error) {
		g := &generation[*Server, *Client]{}
		if mapped {
			ms, err := OpenSnapshotMapped(path)
			if err != nil {
				return nil, err
			}
			g.server, g.client, g.ms = ms.Server(), ms.Client(), ms
		} else {
			var err error
			if g.server, g.client, err = OpenSnapshotFile(path); err != nil {
				return nil, err
			}
		}
		g.gen = g.client.Generation()
		// Fast-signer snapshots have no publishable key; a replica of one
		// serves without a manifest endpoint rather than failing to open.
		g.export, _ = g.client.Export()
		return g, nil
	}
	if _, err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// Close releases the current generation's mapping (no-op for copying
// replicas). Serving must have stopped; pinned Server() copies still in
// flight keep their pages alive until collected.
func (r *LiveReplica) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur := r.cur.Load(); cur != nil {
		cur.release()
		cur.ms = nil
	}
	return nil
}

// Server returns the serving half of the current generation. The result
// is pinned: it keeps answering from its generation even after a Reload
// swaps the replica forward. On a mapped replica the returned server also
// pins its generation's pages (released when the server is collected).
func (r *LiveReplica) Server() *Server {
	for {
		st := r.cur.Load()
		if st.ms == nil {
			return st.server.withCache(r.cache).withMetrics(r.metrics)
		}
		if st.ms.m.Retain() {
			// A fresh allocation per call so the finalizer tracks exactly
			// this handle's lifetime (withCache may return a shared pointer).
			srv := &Server{col: st.server.col, cache: r.cache, metrics: r.metrics}
			mp := st.ms.m
			runtime.SetFinalizer(srv, func(*Server) { mp.Release() })
			return srv
		}
		// Lost the race against a swap that fully released this
		// generation; the store of the successor is already visible.
	}
}

func (r *LiveReplica) pin() servingView { return r.Server() }

// LiveShardedReplica serves a live sharded collection from its snapshot
// directory without holding the signing key: it opens the latest set
// generation and, on Reload, hot-swaps to any newer generation that has
// appeared. Like LiveReplica it refuses to move backward.
type LiveShardedReplica struct {
	replica[*ShardedServer, *ShardedClient]
}

// OpenLiveShardedSnapshotDir opens the latest set generation in dir and
// returns the serving replica.
func OpenLiveShardedSnapshotDir(dir string) (*LiveShardedReplica, error) {
	r := &LiveShardedReplica{}
	r.dir, r.sharded = dir, true
	r.load = func(path string) (*generation[*ShardedServer, *ShardedClient], error) {
		server, client, err := OpenShardedSnapshotDir(path)
		if err != nil {
			return nil, err
		}
		// Export from the opened set, so the published material always
		// matches the serving shards.
		export, err := server.ExportClient()
		if err != nil {
			return nil, err
		}
		return &generation[*ShardedServer, *ShardedClient]{
			server: server, client: client, gen: client.Generation(), export: export}, nil
	}
	if _, err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// Server returns the serving half of the current set generation. The
// result is pinned: it keeps answering from its generation even after a
// Reload swaps the replica forward.
func (r *LiveShardedReplica) Server() *ShardedServer {
	return r.cur.Load().server.withCache(r.cache).withMetrics(r.metrics)
}

func (r *LiveShardedReplica) pin() servingView { return r.Server() }
