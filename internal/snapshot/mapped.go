package snapshot

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"

	"authtext/internal/engine"
)

// Mapped opens: OpenMapped runs Open's walker over a read-only mapping of
// the file instead of a private heap buffer, so the collection's device
// data and signature and hash tables alias page-cache memory shared with
// every other process mapping the same file, and a fleet of replicas
// opening the same generation shares one physical copy.
//
// The rules are Open's. Every section's CRC has matched before OpenMapped
// returns, so a corrupted file fails the open with the same checksum error.
// And the mapping lives exactly as long as the collection decoded from it
// is reachable: the collection holds it (engine.State.Backing), a finalizer
// unmaps it once the collection is garbage, and Close unmaps it early. The
// document bodies are copied to the heap, so nothing a search returns
// aliases the pages.

// mappedBytes tracks the bytes currently memory-mapped by this package
// (the authtext_snapshot_mapped_bytes gauge).
var mappedBytes atomic.Int64

// MappedBytes reports the snapshot bytes currently memory-mapped by this
// process.
func MappedBytes() int64 { return mappedBytes.Load() }

// Mapped is a collection whose backing storage is a read-only file
// mapping. The collection stays valid until it is unreachable or Close is
// called, whichever comes first.
type Mapped struct {
	col *engine.Collection
	mp  *mapping
}

// mapping is the pages one collection decodes from. It holds no pointer
// back to the collection: an object with a finalizer that is part of a
// cycle is never collected.
type mapping struct {
	data     []byte
	osMap    bool // data is an OS mapping (false on fallback platforms)
	unmapped atomic.Bool
}

// OpenMapped maps the snapshot file at path, checks every section's CRC and
// reconstructs the serving collection over the mapping.
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
	mp := &mapping{data: data, osMap: osMap}
	if osMap {
		mappedBytes.Add(int64(len(data)))
	}
	runtime.SetFinalizer(mp, (*mapping).unmap)
	col, err := parse(data, mp)
	if err != nil {
		mp.unmap()
		return nil, err
	}
	return &Mapped{col: col, mp: mp}, nil
}

// Collection returns the restored collection. Valid until Close.
func (m *Mapped) Collection() *engine.Collection { return m.col }

// SizeBytes reports the mapped file size.
func (m *Mapped) SizeBytes() int64 { return int64(len(m.mp.data)) }

// Close unmaps the pages now instead of when the collection is collected.
// The collection must not be used afterwards. Closing twice is harmless.
func (m *Mapped) Close() { m.mp.unmap() }

func (mp *mapping) unmap() {
	if !mp.unmapped.CompareAndSwap(false, true) || !mp.osMap {
		return
	}
	mappedBytes.Add(-int64(len(mp.data)))
	_ = munmapFile(mp.data)
}
