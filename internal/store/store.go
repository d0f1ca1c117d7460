// Package store simulates the block storage substrate of §4.1: a disk
// formatted with 1-Kbyte blocks whose access cost is dominated by seeks for
// random reads and by transfer time for sequential reads. The experiment
// harness charges every read against this model, which is what produces the
// I/O-time panels of Figs 13–15 (the paper's testbed disk is replaced by
// this simulator; docs/ARCHITECTURE.md, "Departures from the paper").
//
// The device is an append-only flat address space of fixed-size blocks.
// Structures (inverted lists, document records, auth blocks) are written as
// contiguous extents at build time and read back block-by-block at query
// time. A read is sequential when it targets the block immediately after the
// previously read one, random otherwise.
//
// The device itself is split into two halves so that a built collection can
// serve queries concurrently: Device holds the shared, immutable block
// contents and geometry, while every query opens its own Session carrying
// the mutable half of the model — the head position and the access
// statistics. Sessions never share state, so any number of them may read
// one device in parallel; each starts with a cold head, exactly like the
// per-query stats reset of the serialized engine, which keeps per-query
// costs identical to the numbers a one-query-at-a-time server reports.
package store

import (
	"errors"
	"fmt"
	"time"
)

// Addr is a block number on the device.
type Addr int64

// Extent is a contiguous run of blocks.
type Extent struct {
	Start  Addr
	Blocks int32
	// Length is the payload length in bytes (≤ Blocks·BlockSize); reads
	// return exactly Length bytes.
	Length int64
}

// Params configures the block size and the access-cost model.
type Params struct {
	// BlockSize in bytes; the paper formats the disk with 1-Kbyte blocks.
	BlockSize int
	// Seek is the average head-positioning time charged per random access.
	Seek time.Duration
	// Rotation is the average rotational latency charged per random access.
	Rotation time.Duration
	// TransferBytesPerSec is the sustained media transfer rate; every block
	// read (random or sequential) is charged BlockSize/TransferBytesPerSec.
	TransferBytesPerSec float64
}

// DefaultParams models a Seagate-class 10K RPM SAS disk with 1-Kbyte blocks
// (the ST973401KC used in §4.1).
func DefaultParams() Params {
	return Params{
		BlockSize:           1024,
		Seek:                4500 * time.Microsecond,
		Rotation:            3000 * time.Microsecond,
		TransferBytesPerSec: 60 << 20, // 60 MB/s
	}
}

// Stats aggregates access counts and simulated time.
type Stats struct {
	BlockReads  int64
	RandomReads int64
	SeqReads    int64
	BytesRead   int64
	SimTime     time.Duration
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.BlockReads += other.BlockReads
	s.RandomReads += other.RandomReads
	s.SeqReads += other.SeqReads
	s.BytesRead += other.BytesRead
	s.SimTime += other.SimTime
}

// Sub returns s minus other (for snapshot-diff accounting).
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		BlockReads:  s.BlockReads - other.BlockReads,
		RandomReads: s.RandomReads - other.RandomReads,
		SeqReads:    s.SeqReads - other.SeqReads,
		BytesRead:   s.BytesRead - other.BytesRead,
		SimTime:     s.SimTime - other.SimTime,
	}
}

// Device is the shared, immutable half of the simulated disk: block
// contents and geometry. All mutation happens on the owner side — at build
// time through AllocWrite, or through the test-only Corrupt — before the
// device is published for serving; after that it is read-only and any
// number of Sessions may read it concurrently. All reads go through a
// Session, which carries the per-query head position and statistics.
type Device struct {
	p       Params
	data    []byte
	nblocks int64

	transferPerBlock time.Duration
	randomPenalty    time.Duration
}

// NewDevice creates an empty device.
func NewDevice(p Params) (*Device, error) {
	if p.BlockSize < 64 {
		return nil, fmt.Errorf("store: block size %d too small", p.BlockSize)
	}
	if p.TransferBytesPerSec <= 0 {
		return nil, errors.New("store: non-positive transfer rate")
	}
	d := &Device{p: p}
	d.transferPerBlock = time.Duration(float64(p.BlockSize) / p.TransferBytesPerSec * float64(time.Second))
	d.randomPenalty = p.Seek + p.Rotation
	return d, nil
}

// MustDevice is NewDevice that panics on configuration errors.
func MustDevice(p Params) *Device {
	d, err := NewDevice(p)
	if err != nil {
		panic(err)
	}
	return d
}

// Params returns the device configuration.
func (d *Device) Params() Params { return d.p }

// BlockSize returns the configured block size in bytes.
func (d *Device) BlockSize() int { return d.p.BlockSize }

// Blocks returns the number of allocated blocks.
func (d *Device) Blocks() int64 { return d.nblocks }

// SizeBytes returns the total allocated size in bytes (block-granular).
func (d *Device) SizeBytes() int64 { return d.nblocks * int64(d.p.BlockSize) }

// AllocWrite appends data to the device, padding to a block boundary, and
// returns the extent it occupies. Writes are free: the cost model only
// charges reads, because index construction is an offline, owner-side step
// whose cost the paper reports separately from query processing. AllocWrite
// is a build-time operation and must not run concurrently with sessions.
func (d *Device) AllocWrite(data []byte) Extent {
	nb := (len(data) + d.p.BlockSize - 1) / d.p.BlockSize
	if nb == 0 {
		nb = 1
	}
	start := d.nblocks
	padded := nb * d.p.BlockSize
	d.data = append(d.data, data...)
	d.data = append(d.data, make([]byte, padded-len(data))...)
	d.nblocks += int64(nb)
	return Extent{Start: Addr(start), Blocks: int32(nb), Length: int64(len(data))}
}

// Session is one query's private view of the device: the disk-head position
// and the access statistics that the cost model accumulates per read. A
// session must not be shared between goroutines, but any number of sessions
// may read the same device concurrently. The zero session is not usable;
// obtain one from Device.NewSession.
type Session struct {
	d        *Device
	lastRead Addr
	stats    Stats
}

// NewSession opens a fresh read session with a cold head: its first read is
// charged as random, exactly as a fresh query on the serialized engine was.
func (d *Device) NewSession() *Session {
	return &Session{d: d, lastRead: -2}
}

// BlockSize returns the device's block size in bytes.
func (s *Session) BlockSize() int { return s.d.p.BlockSize }

// ReadBlock reads one block, charging the cost model, and returns its bytes.
// The returned slice aliases device memory and must not be modified.
func (s *Session) ReadBlock(a Addr) ([]byte, error) {
	d := s.d
	if a < 0 || int64(a) >= d.nblocks {
		return nil, fmt.Errorf("store: block %d out of range [0,%d)", a, d.nblocks)
	}
	s.charge(a)
	off := int64(a) * int64(d.p.BlockSize)
	return d.data[off : off+int64(d.p.BlockSize)], nil
}

// ReadExtent reads a whole extent (first block potentially random, the rest
// sequential) and returns exactly ext.Length payload bytes.
func (s *Session) ReadExtent(ext Extent) ([]byte, error) {
	d := s.d
	// Subtract instead of adding: Start+Blocks overflows int64 for a
	// hostile Start near MaxInt64 and would wrap past the bound.
	if ext.Start < 0 || ext.Blocks < 0 || int64(ext.Start) > d.nblocks-int64(ext.Blocks) {
		return nil, fmt.Errorf("store: extent %+v out of range", ext)
	}
	for i := int32(0); i < ext.Blocks; i++ {
		s.charge(ext.Start + Addr(i))
	}
	off := int64(ext.Start) * int64(d.p.BlockSize)
	return d.data[off : off+ext.Length], nil
}

func (s *Session) charge(a Addr) {
	d := s.d
	s.stats.BlockReads++
	s.stats.BytesRead += int64(d.p.BlockSize)
	if a == s.lastRead+1 {
		s.stats.SeqReads++
		s.stats.SimTime += d.transferPerBlock
	} else {
		s.stats.RandomReads++
		s.stats.SimTime += d.randomPenalty + d.transferPerBlock
	}
	s.lastRead = a
}

// Stats returns a snapshot of the statistics this session accumulated.
func (s *Session) Stats() Stats { return s.stats }

// Corrupt flips one byte at the given block-relative offset. It exists for
// the failure-injection test suite and the tamper-detection examples; a real
// deployment obviously has no such API. Like AllocWrite, it mutates the
// shared block contents and must not run concurrently with sessions. A
// restored device aliases its source buffer, so the flip shows through
// every other device over the same bytes.
func (d *Device) Corrupt(a Addr, offset int, xor byte) error {
	if a < 0 || int64(a) >= d.nblocks {
		return fmt.Errorf("store: corrupt block %d out of range", a)
	}
	if offset < 0 || offset >= d.p.BlockSize {
		return fmt.Errorf("store: corrupt offset %d out of range", offset)
	}
	d.data[int64(a)*int64(d.p.BlockSize)+int64(offset)] ^= xor
	return nil
}
