package authtext

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"authtext/internal/live"
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
	// metrics, when non-nil, receives reload telemetry (generation gauge,
	// snapshot open time): the registry of the first handler built on this
	// replica (adopt, serve.go).
	metrics *Metrics
}

// OpenLiveSnapshotDir opens the latest generation in dir — whichever layout
// it is in — and returns the serving replica.
func OpenLiveSnapshotDir(dir string) (*LiveReplica, error) { return openLiveReplica(dir, false) }

// OpenLiveSnapshotDirMapped is OpenLiveSnapshotDir with mapped generation
// opens: each snapshot file is memory-mapped instead of read into the heap,
// so replicas share a generation's pages, and a superseded generation's
// pages unmap once no server pinned to it is reachable (see MappedSnapshot).
func OpenLiveSnapshotDirMapped(dir string) (*LiveReplica, error) { return openLiveReplica(dir, true) }

func openLiveReplica(dir string, mapped bool) (*LiveReplica, error) {
	sharded, err := liveDirLayout(dir)
	if err != nil {
		return nil, err
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
		return false, fmt.Errorf("authtext: %s: signed manifest pins generation %d, its name claims %d",
			filepath.Base(path), next.gen, gen)
	}
	r.cur.Store(next)
	r.metrics.recordSnapshotOpen(gen, time.Since(openStart))
	return true, nil
}

// Client returns the verification client of the current generation.
func (r *LiveReplica) Client() *Client { return r.cur.Load().client }

// Generation returns the currently served generation.
func (r *LiveReplica) Generation() uint64 { return r.cur.Load().gen }

// Close drops the replica's own hold on its current generation. Serving must
// have stopped: Server and the handlers' pins fail afterwards. On a mapped
// replica the generation's pages unmap once no server pinned to it is
// reachable.
func (r *LiveReplica) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur := r.cur.Load(); cur != nil {
		r.cur.Store(&generation{client: cur.client, gen: cur.gen, export: cur.export})
	}
	return nil
}

// Server returns a server of the caller's own, pinned to the current
// generation: it keeps answering from that generation even after a Reload
// swaps the replica forward, and on a mapped replica it keeps that
// generation's pages mapped for as long as it is reachable. Attach a cache
// or a registry with Server.SetVOCache and Server.SetMetrics.
func (r *LiveReplica) Server() *Server { return r.pin(nil, nil) }

// pin is Server serving through c and m.
func (r *LiveReplica) pin(c *VOCache, m *Metrics) *Server {
	return &Server{v: r.cur.Load().server.v, cache: c, metrics: m}
}
