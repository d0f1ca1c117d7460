package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Snapshot round-trip: a device is fully described by its parameters and
// raw block contents. Writes are owner-side only, so a restored device is
// immediately serviceable for the read-only query path.

// Data returns the raw device contents (block-granular, length
// Blocks()·BlockSize()). The slice aliases device memory; callers must
// treat it as read-only.
func (d *Device) Data() []byte { return d.data }

// AppendParams appends the canonical binary encoding of the parameters.
func AppendParams(b []byte, p Params) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(p.BlockSize))
	b = binary.BigEndian.AppendUint64(b, uint64(p.Seek.Nanoseconds()))
	b = binary.BigEndian.AppendUint64(b, uint64(p.Rotation.Nanoseconds()))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.TransferBytesPerSec))
	return b
}

// ParamsEncodedSize is the byte length AppendParams emits.
const ParamsEncodedSize = 4 + 8 + 8 + 8

// DecodeParams parses AppendParams output.
func DecodeParams(b []byte) (Params, error) {
	if len(b) < ParamsEncodedSize {
		return Params{}, errors.New("store: truncated params")
	}
	p := Params{
		BlockSize:           int(binary.BigEndian.Uint32(b)),
		Seek:                time.Duration(binary.BigEndian.Uint64(b[4:])),
		Rotation:            time.Duration(binary.BigEndian.Uint64(b[12:])),
		TransferBytesPerSec: math.Float64frombits(binary.BigEndian.Uint64(b[20:])),
	}
	if p.Seek < 0 || p.Rotation < 0 {
		return Params{}, errors.New("store: negative access times")
	}
	if math.IsNaN(p.TransferBytesPerSec) || math.IsInf(p.TransferBytesPerSec, 0) {
		return Params{}, errors.New("store: bad transfer rate")
	}
	return p, nil
}

// RestoreDevice reconstructs a device from its parameters and raw contents.
// The device aliases data — a snapshot's heap buffer or a read-only file
// mapping shared with the page cache — and takes no copy: data must stay
// valid and unmodified for as long as the device is readable, and Corrupt
// must not be called on a device restored over a mapping (the pages are
// write-protected). The data length must be block-granular; NewDevice's
// parameter validation applies.
func RestoreDevice(p Params, data []byte) (*Device, error) {
	d, err := NewDevice(p)
	if err != nil {
		return nil, err
	}
	if len(data)%p.BlockSize != 0 {
		return nil, fmt.Errorf("store: restore: %d bytes not a multiple of block size %d",
			len(data), p.BlockSize)
	}
	d.data = data
	d.nblocks = int64(len(data) / p.BlockSize)
	return d, nil
}
