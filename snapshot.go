package authtext

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"authtext/internal/engine"
	"authtext/internal/shard"
	"authtext/internal/snapshot"
)

// Snapshot persistence: the owner builds and signs a collection once, then
// writes it to a durable artifact that any server process can reopen in
// milliseconds — no re-tokenising, no re-indexing and, crucially, no
// re-signing (the private key never has to be present where snapshots are
// opened). docs/SNAPSHOT.md specifies the on-disk format.
//
// Trust model: snapshot integrity is NOT assumed. Per-section checksums
// catch accidental corruption at open time, but the root of trust stays
// the manifest signature — a snapshot altered consistently enough to open
// serves responses whose verification objects fail Client.Verify.

// Layouts: a bare collection is one ATSN file. A shard set is a DIRECTORY
// holding one ATSN snapshot per shard — an ordinary snapshot a deployment can
// hand to a different host — plus the ATSX bundle that tells any process (or
// client) the exact shard population the owner signed. Every path-taking
// open function tells the two layouts apart itself.

// shardedManifestFile is the ATSX bundle inside a shard set's snapshot
// directory.
const shardedManifestFile = "shards.atsx"

// shardSnapshotName returns the file name of shard i's snapshot.
func shardSnapshotName(i int) string { return fmt.Sprintf("shard-%04d.atsn", i) }

// isShardDir reports whether path is a shard set's snapshot directory.
func isShardDir(path string) bool {
	_, err := os.Stat(filepath.Join(path, shardedManifestFile))
	return err == nil
}

// WriteSnapshot serialises the fully built bare collection to w in the
// versioned snapshot format. Works with any signer: RSA snapshots embed
// only the public key; fast-signer (HMAC) snapshots embed the shared
// benchmark key and are therefore for benchmarking only. A shard set does
// not fit one stream: use WriteSnapshotDir.
func (o *Owner) WriteSnapshot(w io.Writer) error {
	if o.v.set != nil {
		return errors.New("authtext: a shard set is a snapshot directory, not a stream; use WriteSnapshotDir")
	}
	return snapshot.Write(w, o.v.col)
}

// WriteSnapshotDir persists a shard set: dir/shard-NNNN.atsn for every
// shard plus dir/shards.atsx. The directory is created if missing; every
// file is published atomically and fsynced, the ATSX bundle last, so a
// failed or interrupted write never leaves a torn file. A bare collection is
// one file: use WriteSnapshot.
func (o *Owner) WriteSnapshotDir(dir string) error {
	if o.v.set == nil {
		return errors.New("authtext: a bare collection is one snapshot file, not a directory; use WriteSnapshot")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeShardSet(dir, o.v)
}

// writeShardSet publishes the set's snapshot files into the existing
// directory dir.
func writeShardSet(dir string, v served) error {
	for i, col := range v.cols() {
		if err := publishCollection(filepath.Join(dir, shardSnapshotName(i)), col); err != nil {
			return fmt.Errorf("authtext: shard %d: %w", i, err)
		}
	}
	export, err := v.client().Export()
	if err != nil {
		return err
	}
	return publish(filepath.Join(dir, shardedManifestFile), false, func(tmp string) error {
		return os.WriteFile(tmp, export, 0o644)
	})
}

// OpenSnapshotFile reopens a snapshot — a snapshot file, or a shard set's
// directory as WriteSnapshotDir leaves it — and returns the serving half
// plus a verification client carrying the embedded manifest and public key.
// The input is treated as untrusted: malformed, truncated or corrupted
// snapshots error out here, and every shard snapshot is cross-checked
// against the signed set manifest, so a missing, swapped or foreign shard
// file fails too. Users who must not trust the snapshot channel should
// verify results with a Client bootstrapped out of band from the owner
// instead of the returned one: a consistently forged snapshot still
// produces answers that fail verification against it.
func OpenSnapshotFile(path string) (*Server, *Client, error) {
	var v served
	if !isShardDir(path) {
		col, err := openSnapshotFile(path)
		if err != nil {
			return nil, nil, err
		}
		v.col = col
	} else {
		export, err := os.ReadFile(filepath.Join(path, shardedManifestFile))
		if err != nil {
			return nil, nil, fmt.Errorf("authtext: sharded snapshot: %w", err)
		}
		ex, err := parseShardedExport(export)
		if err != nil {
			return nil, nil, err
		}
		cols := make([]*engine.Collection, ex.manifest.K)
		for i := range cols {
			if cols[i], err = openSnapshotFile(filepath.Join(path, shardSnapshotName(i))); err != nil {
				return nil, nil, fmt.Errorf("authtext: shard %d: %w", i, err)
			}
		}
		if v.set, err = shard.Assemble(cols, ex.manifest, ex.manifestSig, ex.verifier, ex.docMaps); err != nil {
			return nil, nil, fmt.Errorf("authtext: %w", err)
		}
	}
	return &Server{v: v.withDictionary()}, v.client(), nil
}

// openSnapshotFile reads one ATSN file into the heap and restores it.
func openSnapshotFile(path string) (*engine.Collection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return snapshot.Open(f)
}

// publish installs path atomically and durably — the one way every snapshot
// writer puts bytes under a final name. fill writes a hidden temp sibling
// of path (a directory when asDir); the sibling is fsynced, renamed into
// place, and the rename made durable by fsyncing the parent directory. A
// crash or power cut at any point leaves either no entry under the final
// name or the complete one — never a torn file that a replica scanning the
// directory could mistake for a generation.
func publish(path string, asDir bool, fill func(tmp string) error) error {
	tmp, err := tempSibling(path, asDir)
	if err != nil {
		return err
	}
	steps := []struct {
		name string
		do   func() error
	}{
		{"temp-written", func() error { return fill(tmp) }},
		{"pre-rename", func() error { return syncPath(tmp) }},
		{"post-rename", func() error {
			err := os.Rename(tmp, path)
			if err != nil && asDir {
				// A directory cannot be renamed over: if one is there, a
				// concurrent writer landed the same name first, and its
				// content is equally valid.
				if _, statErr := os.Stat(path); statErr == nil {
					return os.RemoveAll(tmp)
				}
			}
			return err
		}},
	}
	for _, step := range steps {
		if err := step.do(); err != nil {
			if !errors.Is(err, errPublishCrashed) { // a nested publish "died": so did this one
				os.RemoveAll(tmp)
			}
			return err
		}
		if publishCrash != nil && publishCrash(step.name, tmp) {
			return errPublishCrashed
		}
	}
	return syncPath(filepath.Dir(path))
}

// publishCrash, when set (crash-safety tests only), is asked after each
// publish step whether the process "dies" there: a true answer abandons the
// publish with the disk exactly as that step left it.
var publishCrash func(step, tmp string) bool

var errPublishCrashed = errors.New("authtext: publish interrupted")

// publishTempPattern names publish's temp siblings, as an os.CreateTemp
// pattern and as the filepath.Match pattern sweepPublishTemps finds them by.
const publishTempPattern = ".gen-*.tmp"

// tempSibling creates an empty hidden file (or directory) next to path,
// with the permissions a directly created one would get.
func tempSibling(path string, asDir bool) (string, error) {
	if asDir {
		tmp, err := os.MkdirTemp(filepath.Dir(path), publishTempPattern)
		if err != nil {
			return "", err
		}
		return tmp, os.Chmod(tmp, 0o755)
	}
	f, err := os.CreateTemp(filepath.Dir(path), publishTempPattern)
	if err != nil {
		return "", err
	}
	defer f.Close()
	return f.Name(), f.Chmod(0o644)
}

// sweepPublishTemps removes the temp siblings that publishes into dir left
// behind when the process died mid-publish (a failed publish removes its
// own). Only the directory's writer may call it, and only while it has no
// publish in flight: to anyone else a temp sibling may be a live publish.
// Readers never need to — they ignore the hidden names.
func sweepPublishTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		if ok, _ := filepath.Match(publishTempPattern, e.Name()); !ok {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// syncPath fsyncs a file's contents or a directory's entries.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// publishCollection publishes col's ATSN snapshot as the file path.
func publishCollection(path string, col *engine.Collection) error {
	return publish(path, false, func(tmp string) error {
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if err := snapshot.Write(f, col); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}
