package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Snapshot round-trip: a device is fully described by its parameters, its
// logical block count and its packed contents; the extents that index the
// contents travel with the layout that holds them. Writes are owner-side
// only, so a restored device is immediately serviceable for the read-only
// query path.

// Data returns the packed device contents: every extent's payload, back to
// back. The slice aliases device memory; callers must treat it as
// read-only.
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

// RestoreDevice reconstructs a device of the given logical block count from
// its parameters and packed contents. The device aliases data — a
// snapshot's heap buffer — and takes no copy: data must stay unmodified for
// as long as the device is readable. The contents must fit in the blocks;
// NewDevice's parameter validation applies.
func RestoreDevice(p Params, data []byte, blocks int64) (*Device, error) {
	d, err := NewDevice(p)
	if err != nil {
		return nil, err
	}
	if blocks < 0 || int64(len(data)) > blocks*int64(p.BlockSize) {
		return nil, fmt.Errorf("store: restore: %d bytes do not fit in %d blocks of %d",
			len(data), blocks, p.BlockSize)
	}
	d.data = data
	d.nblocks = blocks
	return d, nil
}
