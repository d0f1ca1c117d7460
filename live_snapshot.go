package authtext

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"authtext/internal/live"
	"authtext/internal/snapshot"
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
// entry is independently a valid OpenSnapshotFile input. The trust model is theirs: the directory is untrusted (sharded
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
// per-generation snapshots of either layout (used by the CLIs to route
// -snapshot PATH).
func IsLiveSnapshotDir(path string) bool {
	_, err := liveDirLayout(path)
	return err == nil
}

// liveDirLayout reports which layout dir holds generations in: files
// (false) or shard-set directories (true). A directory has one writer and so
// one layout.
func liveDirLayout(dir string) (sharded bool, err error) {
	if _, _, err = latestGeneration(dir, false); err == nil {
		return false, nil
	}
	_, _, err = latestGeneration(dir, true)
	return true, err
}

// WriteSnapshotDir persists the CURRENT generation as
// dir/gen-NNNNNNNNNNNN.atsn — a shard set's as the directory
// dir/gen-NNNNNNNNNNNN/ — creating dir if needed, and returns the written
// path. Earlier generations are left in place — prune them with any
// retention policy you like; a replica always picks the highest generation.
// The write is atomic and fsynced: a crash mid-write leaves no partial
// snapshot under a generation name. A shard set's generation that is already
// on disk is left alone: the signed content is determined by the generation,
// so the existing directory is as good as a rewrite.
func (o *LiveOwner) WriteSnapshotDir(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	v := current(o.lc)
	path := filepath.Join(dir, genName(v.generation(), v.set != nil))
	if v.set == nil {
		return path, publishCollection(path, v.col)
	}
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	return path, publish(path, true, func(tmp string) error { return writeShardSet(tmp, v) })
}

// PersistGenerations writes the current generation's snapshot to dir now
// and arranges for every FUTURE generation to be written too, from
// inside the update critical section — so even updates racing each other
// each leave their own generation snapshot, in order. onError (optional)
// receives snapshot failures of future generations; the update itself
// still succeeds (serving beats durability here, and the next
// generation's snapshot re-establishes the latest state on disk).
//
// Calling it makes this owner THE writer of dir: whatever an earlier
// writer's interrupted publishes left there (hidden .gen-*.tmp entries) is
// removed first. Replicas and one-shot WriteSnapshotDir calls never sweep.
func (o *LiveOwner) PersistGenerations(dir string, onError func(gen uint64, err error)) (string, error) {
	if err := sweepPublishTemps(dir); err != nil {
		return "", err
	}
	path, err := o.WriteSnapshotDir(dir)
	if err != nil {
		return "", err
	}
	o.lc.SetPublishHook(func(st *live.UpdateStats) {
		if _, err := o.WriteSnapshotDir(dir); err != nil && onError != nil {
			onError(st.Generation, err)
		}
	})
	return path, nil
}

// generation is one loaded generation of a replica.
type generation struct {
	server *Server
	client *Client
	gen    uint64
	// export is the blob served at the manifest endpoint (ATCX or ATSX);
	// nil for a fast-signer bare snapshot, which has no publishable key — a
	// replica of one serves without a manifest endpoint rather than failing
	// to open.
	export []byte
	// mp, for mapped replicas, is this generation's file mapping (mapped
	// generations are bare collections: one file). The generation holds the
	// opening reference; Reload releases it when the generation is
	// superseded, and pinned Server() copies hold their own references
	// (dropped by finalizer), so in-flight queries keep their pages until
	// they are collected — unmap-after-swap, never under a reader.
	mp *snapshot.Mapped
}

func (g *generation) release() {
	if g.mp != nil {
		g.mp.Release()
	}
}

// LiveReplica serves a live collection — bare or a shard set — from its
// snapshot directory without holding the signing key: it opens the latest
// generation and, on Reload, hot-swaps to any newer generation that has
// appeared — `authserved -watch` is its production wrapper. It refuses to
// move backward: a directory whose latest generation shrank fails Reload
// rather than silently serving rolled-back state.
type LiveReplica struct {
	dir string
	// sharded is the layout found at open; mapped says generations are
	// memory-mapped instead of copied.
	sharded, mapped bool

	mu  sync.Mutex // serialises Reload
	cur atomic.Pointer[generation]
	// cache and metrics are carried into every Server() copy; the shared
	// generation's server is never mutated. metrics also receives reload
	// telemetry (generation gauge, snapshot open time).
	cache   *VOCache
	metrics *Metrics
}

// OpenLiveSnapshotDir opens the latest generation in dir — whichever layout
// it is in — and returns the serving replica.
func OpenLiveSnapshotDir(dir string) (*LiveReplica, error) { return openLiveReplica(dir, false) }

// OpenLiveSnapshotDirMapped is OpenLiveSnapshotDir with mapped generation
// opens: each gen-*.atsn is memory-mapped instead of read into the heap, so
// replicas share a generation's pages and superseded generations' pages
// unmap once their in-flight queries finish (see MappedSnapshot).
// Bare collections only: a directory of shard-set generations is refused.
func OpenLiveSnapshotDirMapped(dir string) (*LiveReplica, error) { return openLiveReplica(dir, true) }

func openLiveReplica(dir string, mapped bool) (*LiveReplica, error) {
	sharded, err := liveDirLayout(dir)
	if err != nil {
		return nil, err
	}
	if sharded && mapped {
		return nil, fmt.Errorf("authtext: %s holds shard-set generations; mapped replicas serve bare collections only", dir)
	}
	r := &LiveReplica{dir: dir, sharded: sharded, mapped: mapped}
	if _, err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// load opens one generation snapshot.
func (r *LiveReplica) load(path string) (*generation, error) {
	ms, err := openSnapshotPath(path, r.mapped)
	if err != nil {
		return nil, err
	}
	g := &generation{server: ms.server, client: ms.client, gen: ms.client.Generation()}
	if r.mapped {
		g.mp = ms.maps[0]
	}
	// Export from what was opened, so the published material always matches
	// the serving collections.
	if g.export, err = g.client.Export(); err != nil && r.sharded {
		return nil, err
	}
	return g, nil
}

// Reload checks the directory for a newer generation and atomically swaps
// to it, returning whether a swap happened. Every snapshot is cross-checked
// against its name: one whose signed manifest pins a different generation
// than its name claims is rejected, and so is a directory whose latest
// generation is lower than the one being served. Reload is cheap when
// nothing changed (one directory scan).
func (r *LiveReplica) Reload() (bool, error) {
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
func (r *LiveReplica) SetVOCache(c *VOCache) { r.cache = c }

// SetMetrics attaches a metric registry carried into every Server() result
// and recording reload telemetry (nil detaches). Call before serving
// starts. The currently served generation is published immediately.
func (r *LiveReplica) SetMetrics(m *Metrics) {
	r.metrics = m
	m.setGeneration(r.Generation())
}

// Client returns the verification client of the current generation.
func (r *LiveReplica) Client() *Client { return r.cur.Load().client }

// Generation returns the currently served generation.
func (r *LiveReplica) Generation() uint64 { return r.cur.Load().gen }

// Close releases the current generation's mapping (no-op for unmapped
// replicas). Serving must have stopped; pinned Server() copies still in
// flight keep their pages alive until collected.
func (r *LiveReplica) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur := r.cur.Load(); cur != nil {
		cur.release()
		cur.mp = nil
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
		mp := st.mp
		if mp == nil {
			return st.server.with(r.cache, r.metrics)
		}
		if mp.Retain() {
			// A fresh allocation per call so the finalizer tracks exactly
			// this handle's lifetime (with may return a shared pointer).
			srv := &Server{v: st.server.v, cache: r.cache, metrics: r.metrics}
			runtime.SetFinalizer(srv, func(*Server) { mp.Release() })
			return srv
		}
		// Lost the race against a swap that fully released this
		// generation; the store of the successor is already visible.
	}
}
