package snapshot

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"authtext/internal/engine"
)

// Mapped opens: OpenMapped runs Open's walker over a read-only mapping of
// the file instead of a private heap buffer, so the collection's slices —
// device data, document content, signature and hash tables — alias
// page-cache memory shared with every other process mapping the same file.
// Opening touches only the pages the decode reads, and a fleet of replicas
// opening the same generation shares one physical copy.
//
// Integrity is not weakened, only re-scheduled: small sections have their
// CRC checked before the collection is returned, and every section at or
// above deferredCRCMin (the store, index and signature sections — the
// bandwidth-bound bulk) is checked by a background goroutine that poisons
// the device on mismatch — reads after a detected corruption fail, and
// reads before it produce responses that fail client verification, which
// is the trust model's backstop anyway. Structural safety never rests on
// the CRCs: the decoders bounds-check hostile bytes either way.
//
// Lifetime is explicit because the OS mapping cannot be garbage-collected:
// a Mapped starts with one reference, Retain/Release add and drop holds,
// and the pages unmap when the count reaches zero. Using the collection
// after the last release faults; holders must keep a reference for as long
// as they read.

// mappedBytes tracks the bytes currently memory-mapped by this package
// (the authtext_snapshot_mapped_bytes gauge).
var mappedBytes atomic.Int64

// MappedBytes reports the snapshot bytes currently memory-mapped by this
// process.
func MappedBytes() int64 { return mappedBytes.Load() }

// Mapped is a collection whose backing storage is a read-only file
// mapping. Collection is valid while at least one reference is held.
type Mapped struct {
	col   *engine.Collection
	data  []byte
	osMap bool // data is an OS mapping (false on fallback platforms)

	refs   atomic.Int64
	crcWG  sync.WaitGroup
	crcErr atomic.Pointer[error]
}

// OpenMapped maps the snapshot file at path and reconstructs the serving
// collection zero-copy. The returned Mapped holds one reference; call
// Release when done with the collection.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := info.Size()
	if size < 8 {
		return nil, errors.New("snapshot: not a snapshot (too small)")
	}
	if uint64(size) > uint64(math.MaxInt) {
		return nil, fmt.Errorf("snapshot: %d bytes exceeds the addressable size", size)
	}
	data, osMap, err := mmapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("snapshot: mapping %s: %w", path, err)
	}
	m := &Mapped{data: data, osMap: osMap}
	m.refs.Store(1)
	if osMap {
		mappedBytes.Add(int64(len(data)))
	}
	col, deferred, err := parse(data, deferredCRCMin)
	if err != nil {
		m.unmap()
		return nil, err
	}
	m.col = col
	// Validate the bulk sections off the open path: they dominate the file
	// and checking them inline would re-introduce the bandwidth-bound open
	// this API exists to avoid. The goroutine holds a reference so the
	// pages outlive the scan even if the caller releases immediately.
	m.refs.Add(1)
	m.crcWG.Add(1)
	go func() {
		defer m.crcWG.Done()
		defer m.Release()
		if err := checkSections(deferred); err != nil {
			m.crcErr.Store(&err)
			col.Device().Poison(err)
		}
	}()
	return m, nil
}

// deferredCRCMin is the smallest section validated in the background
// instead of on the open path. Everything below it (manifest, public key,
// stats, small tables) is still checked before the collection exists.
const deferredCRCMin = 1 << 20

// Collection returns the restored collection. Valid only while a
// reference is held.
func (m *Mapped) Collection() *engine.Collection { return m.col }

// SizeBytes reports the mapped file size.
func (m *Mapped) SizeBytes() int64 { return int64(len(m.data)) }

// Retain adds a reference, reporting false when the mapping is already
// gone (count reached zero); a false return means the caller must reopen.
func (m *Mapped) Retain() bool {
	for {
		n := m.refs.Load()
		if n <= 0 {
			return false
		}
		if m.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops a reference, unmapping the pages when the last holder is
// gone. Calling Release more often than Retain+1 is a bug.
func (m *Mapped) Release() {
	if m.refs.Add(-1) == 0 {
		m.unmap()
	}
}

// Wait blocks until the deferred bulk-section validation finished and
// returns its verdict (nil for an intact snapshot).
func (m *Mapped) Wait() error {
	m.crcWG.Wait()
	if p := m.crcErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (m *Mapped) unmap() {
	if m.data == nil {
		return
	}
	if m.osMap {
		mappedBytes.Add(-int64(len(m.data)))
		_ = munmapFile(m.data)
	}
	m.data = nil
}
