package core

import (
	"encoding/binary"
	"errors"
	"math"
)

// DecodeManifest parses the canonical encoding produced by
// Manifest.Encode. Owners publish exactly the signed bytes, so clients can
// verify the signature over the received buffer and then decode it.
func DecodeManifest(b []byte) (*Manifest, error) {
	const prefix = "authtext/manifest/v1"
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return nil, errors.New("core: not a manifest")
	}
	r := manifestReader{b: b[len(prefix):]}
	m := &Manifest{}
	m.N = r.u32()
	m.M = r.u32()
	m.AvgLen = r.f64()
	m.K1 = r.f64()
	m.B = r.f64()
	m.BlockSize = r.u32()
	m.HashSize = r.u8()
	flags := r.u8()
	m.DictMode = flags&1 != 0
	m.VocabProofsEnabled = flags&2 != 0
	m.Boosted = flags&4 != 0
	tombstoned := flags&8 != 0
	if flags&0x10 != 0 {
		// The variant mask is the last byte; what precedes it parses as if
		// the flag were clear. A zero mask has no canonical encoding (the
		// full set is the absent byte); Validate rejects the rest.
		if len(r.b) <= r.off {
			return nil, errors.New("core: truncated manifest")
		}
		m.Variants = VariantSet(r.b[len(r.b)-1])
		r.b = r.b[:len(r.b)-1]
		if m.Variants == 0 {
			return nil, errors.New("core: manifest variant mask is empty")
		}
	}
	if m.DictMode {
		// The leaf-definition byte precedes the variant mask; without it the
		// dictionary roots hash leaves this decoder does not check against.
		if len(r.b) <= r.off || r.b[len(r.b)-1] != dictLeafBound {
			return nil, errors.New("core: unsupported dictionary leaf definition (a dictionary-mode manifest from before leaves were bound to their term)")
		}
		r.b = r.b[:len(r.b)-1]
	}
	m.DocHashRoot = r.sized()
	for i := range m.DictRoots {
		m.DictRoots[i] = r.sized()
	}
	m.NameDictRoot = r.sized()
	m.Beta = r.f64()
	m.AMax = r.f64()
	m.AuthorityRoot = r.sized()
	// Optional trailing generation (live collections only; see
	// Manifest.Encode). A zero value would have been omitted by the
	// encoder, so reject it to keep the encoding canonical. When the
	// tombstone flag is set the trailing section is mandatory and longer:
	// generation, live count, and the sized removal bitmap.
	switch {
	case tombstoned:
		m.Generation = r.u64()
		if r.err == nil && m.Generation == 0 {
			return nil, errors.New("core: non-canonical zero generation field")
		}
		m.Live = r.u32()
		bmLen := r.u32()
		if r.err == nil && int(bmLen) != tombstoneLen(m.N) {
			return nil, errors.New("core: manifest tombstone bitmap length mismatch")
		}
		if bm := r.take(int(bmLen)); bm != nil {
			m.Tombstones = append([]byte(nil), bm...)
		}
	case r.err == nil && len(r.b)-r.off == 8:
		m.Generation = r.u64()
		if m.Generation == 0 {
			return nil, errors.New("core: non-canonical zero generation field")
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != r.off {
		return nil, errors.New("core: trailing bytes after manifest")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

type manifestReader struct {
	b   []byte
	off int
	err error
}

func (r *manifestReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = errors.New("core: truncated manifest")
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *manifestReader) u8() uint8 {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (r *manifestReader) u32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}

func (r *manifestReader) u64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

func (r *manifestReader) f64() float64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(v))
}

func (r *manifestReader) sized() []byte {
	ln := r.take(2)
	if ln == nil {
		return nil
	}
	n := int(binary.BigEndian.Uint16(ln))
	if n == 0 {
		return nil
	}
	v := r.take(n)
	if v == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, v)
	return out
}
