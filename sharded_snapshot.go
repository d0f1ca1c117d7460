package authtext

import (
	"fmt"
	"os"
	"path/filepath"

	"authtext/internal/engine"
	"authtext/internal/shard"
	"authtext/internal/snapshot"
)

// Sharded snapshot layout: one directory holding one ATSN snapshot per
// shard plus the ATSX bundle that binds them together. Each shard file is
// an ordinary single-collection snapshot — a deployment can hand each one
// to a different host — and the manifest file lets any process (or client)
// know the exact shard population the owner signed.

const (
	// ShardedManifestFile is the ATSX bundle inside a sharded snapshot
	// directory.
	ShardedManifestFile = "shards.atsx"
)

// shardSnapshotName returns the file name of shard i's snapshot.
func shardSnapshotName(i int) string { return fmt.Sprintf("shard-%04d.atsn", i) }

// WriteSnapshotDir persists the sharded collection: dir/shard-NNNN.atsn
// for every shard plus dir/shards.atsx. The directory is created if
// missing; every file is published atomically and fsynced, the ATSX bundle
// last, so a failed or interrupted write never leaves a torn file.
func (o *ShardedOwner) WriteSnapshotDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeShardSet(dir, o.set)
}

// writeShardSet publishes set's snapshot files into the existing directory
// dir.
func writeShardSet(dir string, set *shard.Set) error {
	for i := 0; i < set.K(); i++ {
		if err := publishCollection(filepath.Join(dir, shardSnapshotName(i)), set.Col(i)); err != nil {
			return fmt.Errorf("authtext: shard %d: %w", i, err)
		}
	}
	export, err := exportSet(set)
	if err != nil {
		return err
	}
	return publish(filepath.Join(dir, ShardedManifestFile), false, func(tmp string) error {
		return os.WriteFile(tmp, export, 0o644)
	})
}

// OpenShardedSnapshotDir reopens a directory written by WriteSnapshotDir
// and returns the serving half plus a verification client. Every shard
// snapshot is cross-checked against the signed set manifest, so a missing,
// swapped or foreign shard file fails here; the deeper trust model is the
// same as OpenSnapshot's — a consistently forged directory still produces
// answers that fail verification against an out-of-band client.
func OpenShardedSnapshotDir(dir string) (*ShardedServer, *ShardedClient, error) {
	ms, err := openShardedDir(dir, false)
	if err != nil {
		return nil, nil, err
	}
	return ms.server, ms.client, nil
}

// MappedShardedSnapshot is a sharded snapshot directory opened zero-copy:
// every shard's ATSN file is memory-mapped (see MappedSnapshot). Server
// and Client stay valid until Close.
type MappedShardedSnapshot struct {
	server *ShardedServer
	client *ShardedClient
	maps   []*snapshot.Mapped
}

// OpenShardedSnapshotDirMapped is OpenShardedSnapshotDir with per-shard
// memory mapping instead of copies. The cross-checks are identical; only
// the copies are gone.
func OpenShardedSnapshotDirMapped(dir string) (*MappedShardedSnapshot, error) {
	return openShardedDir(dir, true)
}

// openShardedDir opens every shard of dir — copied, or memory-mapped —
// and assembles the set against its signed manifest.
func openShardedDir(dir string, mapped bool) (*MappedShardedSnapshot, error) {
	export, err := os.ReadFile(filepath.Join(dir, ShardedManifestFile))
	if err != nil {
		return nil, fmt.Errorf("authtext: sharded snapshot: %w", err)
	}
	ex, err := parseShardedExport(export)
	if err != nil {
		return nil, err
	}
	ms := &MappedShardedSnapshot{}
	cols := make([]*engine.Collection, ex.manifest.K)
	for i := range cols {
		cols[i], err = ms.openShard(filepath.Join(dir, shardSnapshotName(i)), mapped)
		if err != nil {
			ms.Close()
			return nil, fmt.Errorf("authtext: shard %d: %w", i, err)
		}
	}
	set, err := shard.Assemble(cols, ex.manifest, ex.manifestSig, ex.verifier, ex.docMaps)
	if err != nil {
		ms.Close()
		return nil, fmt.Errorf("authtext: %w", err)
	}
	ms.server, ms.client = &ShardedServer{set: set}, newShardedClientFromSet(set)
	return ms, nil
}

// openShard opens one shard file, recording its mapping when mapped.
func (ms *MappedShardedSnapshot) openShard(path string, mapped bool) (*engine.Collection, error) {
	if mapped {
		mp, err := snapshot.OpenMapped(path)
		if err != nil {
			return nil, err
		}
		ms.maps = append(ms.maps, mp)
		return mp.Collection(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return snapshot.Open(f)
}

// Server returns the serving half. Valid until Close.
func (ms *MappedShardedSnapshot) Server() *ShardedServer { return ms.server }

// Client returns the verification client. Valid until Close.
func (ms *MappedShardedSnapshot) Client() *ShardedClient { return ms.client }

// Validate blocks until every shard's deferred block-store checksum
// finished and returns the first failure (nil when all are intact).
func (ms *MappedShardedSnapshot) Validate() error {
	for i, mp := range ms.maps {
		if err := mp.Wait(); err != nil {
			return fmt.Errorf("authtext: shard %d: %w", i, err)
		}
	}
	return nil
}

// Close releases every shard mapping. The Server and Client must not be
// used afterwards.
func (ms *MappedShardedSnapshot) Close() error {
	for _, mp := range ms.maps {
		mp.Release()
	}
	ms.maps = nil
	return nil
}

// IsShardedSnapshot reports whether path is a sharded snapshot directory
// (used by the CLIs to route -snapshot PATH transparently).
func IsShardedSnapshot(path string) bool {
	info, err := os.Stat(path)
	if err != nil || !info.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, ShardedManifestFile))
	return err == nil
}
