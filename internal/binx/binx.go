// Package binx is the one reader of hostile bytes. Every decoder of input
// the process did not produce itself — verification objects, wire messages,
// snapshot sections, the index codec, manifests, client exports — walks its
// bytes with a Reader, so the bounds rules are written once:
//
//   - integers are big-endian;
//   - a read past the end, a negative length or a count the remaining bytes
//     cannot back fails instead of panicking or allocating;
//   - the first failure sticks: every later read returns zero (nil for
//     slices), so a decoder checks once, at the end, with Done;
//   - a slice handed out by Take aliases the input but is capped at its own
//     length, so appending to one decoded field can never overwrite the
//     next.
package binx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

var (
	// ErrTruncated reports a read past the end of the input, or a count
	// the remaining bytes cannot back.
	ErrTruncated = errors.New("truncated")
	// ErrTrailing reports input left over after a complete decode.
	ErrTrailing = errors.New("trailing bytes")
)

// Reader is a cursor over a byte slice. The zero value reads an empty
// input. Copying a Reader forks the cursor, which is how a decoder looks
// ahead without consuming.
type Reader struct {
	b []byte
	// off is the read position. A failed reader has off past the end,
	// which makes every later read fail without a separate check; err is
	// the failure Fail recorded, nil for a truncation.
	off int
	err error
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// left is the unread byte count, negative once the reader has failed.
func (r *Reader) left() int { return len(r.b) - r.off }

// stop fails the reader; the reads call it on a short input, and it is
// cheap enough that they stay inlinable.
func (r *Reader) stop() { r.off = len(r.b) + 1 }

// Fail records err unless a failure is already recorded, and stops every
// later read. Decoders use it for domain errors (a value out of range)
// that should surface from Done like a bounds failure.
func (r *Reader) Fail(err error) {
	if r.left() >= 0 {
		r.err = err
		r.stop()
	}
}

// Err returns the first failure (ErrTruncated for a short input), or nil.
func (r *Reader) Err() error {
	if r.left() >= 0 {
		return nil
	}
	if r.err != nil {
		return r.err
	}
	return ErrTruncated
}

// Len returns the number of unread bytes (0 after a failure).
func (r *Reader) Len() int { return max(r.left(), 0) }

// Done returns the first failure, or an ErrTrailing error when the decode
// left bytes unread, or nil.
func (r *Reader) Done() error {
	if err := r.Err(); err != nil {
		return err
	}
	if n := r.left(); n != 0 {
		return fmt.Errorf("%d %w", n, ErrTrailing)
	}
	return nil
}

// Take returns the next n bytes. The slice aliases the input and its
// capacity is capped at n.
func (r *Reader) Take(n int) []byte {
	if n < 0 || n > r.left() {
		r.stop()
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Copy returns the next n bytes in a fresh slice the caller owns; nil when
// n is 0 or the read fails.
func (r *Reader) Copy(n int) []byte {
	v := r.Take(n)
	if len(v) == 0 {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// Count checks that n elements of at least minWidth bytes each fit in the
// remaining input and returns n, or records ErrTruncated and returns 0.
// Decoders call it on every count read from the input, before allocating
// for it: a hostile count then costs the attacker as many real bytes as
// the allocation it asks for. minWidth must be positive.
func (r *Reader) Count(n, minWidth int) int {
	if left := r.left(); left >= 0 && (n < 0 || n > left/minWidth) {
		r.Fail(fmt.Errorf("%w: count %d of %d-byte entries, %d bytes left", ErrTruncated, n, minWidth, left))
	}
	if r.left() < 0 {
		return 0
	}
	return n
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.left() < 1 {
		r.stop()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if r.left() < 2 {
		r.stop()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if r.left() < 4 {
		r.stop()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if r.left() < 8 {
		r.stop()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// F32 reads an IEEE-754 float32 bit pattern.
func (r *Reader) F32() float32 { return math.Float32frombits(r.U32()) }

// F64 reads an IEEE-754 float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }
