package authtext

import (
	"errors"
	"io"
	"os"
	"path/filepath"

	"authtext/internal/engine"
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

// WriteSnapshot serialises the fully built collection to w in the
// versioned snapshot format. Works with any signer: RSA snapshots embed
// only the public key; fast-signer (HMAC) snapshots embed the shared
// benchmark key and are therefore for benchmarking only.
func (o *Owner) WriteSnapshot(w io.Writer) error {
	return snapshot.Write(w, o.col)
}

// OpenSnapshot reopens a snapshot and returns the serving half plus a
// verification client carrying the embedded manifest and public key. The
// input is treated as untrusted: malformed, truncated or corrupted
// snapshots error out here, and users who must not trust the snapshot
// channel should verify results with a Client bootstrapped out of band
// from the owner instead of the returned one.
func OpenSnapshot(r io.ReaderAt) (*Server, *Client, error) {
	col, err := snapshot.Open(r)
	if err != nil {
		return nil, nil, err
	}
	m, msig := col.Manifest()
	return &Server{col: col}, newClient(m, msig, col.Verifier(), false), nil
}

// OpenSnapshotFile is OpenSnapshot over a file path.
func OpenSnapshotFile(path string) (*Server, *Client, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return OpenSnapshot(f)
}

// MappedSnapshot is a snapshot opened zero-copy: the serving collection
// reads straight out of a read-only file mapping shared with the OS page
// cache, so opening costs decode time instead of a full-file copy, and
// replicas of one generation share physical memory. The Server and Client
// stay valid until Close; see docs/SNAPSHOT.md "Mapped opens" for the
// integrity schedule (small sections CRC-checked at open; the bulk
// sections — block store, index, signatures — validated in the
// background, poisoning reads on mismatch).
type MappedSnapshot struct {
	server *Server
	client *Client
	m      *snapshot.Mapped
}

// OpenSnapshotMapped memory-maps the snapshot file at path and returns the
// serving halves without copying the block store or authentication
// tables. The trust model is OpenSnapshot's; only the copy is gone.
func OpenSnapshotMapped(path string) (*MappedSnapshot, error) {
	mp, err := snapshot.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	col := mp.Collection()
	m, msig := col.Manifest()
	return &MappedSnapshot{
		server: &Server{col: col},
		client: newClient(m, msig, col.Verifier(), false),
		m:      mp,
	}, nil
}

// Server returns the serving half. Valid until Close.
func (ms *MappedSnapshot) Server() *Server { return ms.server }

// Client returns the verification client. Valid until Close.
func (ms *MappedSnapshot) Client() *Client { return ms.client }

// SizeBytes reports the mapped file size.
func (ms *MappedSnapshot) SizeBytes() int64 { return ms.m.SizeBytes() }

// Validate blocks until the deferred bulk-section checksums finished and
// returns its verdict. Callers that must fail fast on a corrupted file
// (rather than letting reads or client verification catch it) call this
// once after opening.
func (ms *MappedSnapshot) Validate() error { return ms.m.Wait() }

// Close releases the mapping. The Server and Client must not be used
// afterwards.
func (ms *MappedSnapshot) Close() error {
	ms.m.Release()
	return nil
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
