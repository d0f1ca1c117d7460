package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Binary round-trip for snapshot persistence. The encoding is a flat,
// deterministic byte stream (all integers big-endian, float weights as
// IEEE-754 bit patterns):
//
//	u32 n | f64 avgLen | f64 k1 | f64 b | u32 m
//	m × ( u16 nameLen | name | u32 ft )
//	m × ( ft × ( u32 doc | u32 wBits ) )          inverted lists
//	n × ( u32 vecLen | vecLen × ( u32 term | u32 wBits )
//	      | u32 docLen | u32 contentLen | content )
//
// Decode is hostile-input-safe: every count is bounds-checked against the
// remaining payload before allocation, and the decoded index must pass
// Validate before it is returned.

const codecEntrySize = 8 // ⟨u32, u32⟩ pairs throughout

// AppendBinary appends the canonical binary encoding of the index to b.
func (x *Index) AppendBinary(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(x.N))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(x.AvgLen))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(x.Okapi.K1))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(x.Okapi.B))
	b = binary.BigEndian.AppendUint32(b, uint32(len(x.Terms)))
	for _, t := range x.Terms {
		b = binary.BigEndian.AppendUint16(b, uint16(len(t.Name)))
		b = append(b, t.Name...)
		b = binary.BigEndian.AppendUint32(b, t.FT)
	}
	for _, l := range x.Lists {
		for _, p := range l {
			b = binary.BigEndian.AppendUint32(b, uint32(p.Doc))
			b = binary.BigEndian.AppendUint32(b, math.Float32bits(p.W))
		}
	}
	for d := 0; d < x.N; d++ {
		vec := x.DocTerm[d]
		b = binary.BigEndian.AppendUint32(b, uint32(len(vec)))
		for _, tf := range vec {
			b = binary.BigEndian.AppendUint32(b, uint32(tf.Term))
			b = binary.BigEndian.AppendUint32(b, math.Float32bits(tf.W))
		}
		b = binary.BigEndian.AppendUint32(b, x.DocLen[d])
		b = binary.BigEndian.AppendUint32(b, uint32(len(x.Content[d])))
		b = append(b, x.Content[d]...)
	}
	return b
}

// DecodeBinary reconstructs an index from AppendBinary output. Document
// content aliases b, which must outlive the index and stay unmodified. The
// input may come from an untrusted snapshot: lengths are checked before any
// allocation and the result is validated structurally.
func DecodeBinary(b []byte) (*Index, error) {
	r := codecReader{b: b}
	n := int(r.u32())
	avgLen := r.f64()
	k1 := r.f64()
	bParam := r.f64()
	m := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("index: decode: %d documents, %d terms", n, m)
	}
	if !(avgLen > 0) || math.IsInf(avgLen, 0) {
		return nil, fmt.Errorf("index: decode: average length %v", avgLen)
	}
	// Each term costs ≥ 6 bytes (empty name is itself invalid, caught by
	// Validate-adjacent checks below); each document ≥ 12.
	if m > r.remaining()/6 || n > len(b)/12 {
		return nil, errors.New("index: decode: counts exceed payload")
	}

	x := &Index{
		N:       n,
		AvgLen:  avgLen,
		Terms:   make([]TermMeta, m),
		Lists:   make([][]Posting, m),
		DocTerm: make([][]TermFreq, n),
		DocLen:  make([]uint32, n),
		Content: make([][]byte, n),
		byName:  make(map[string]TermID, m),
	}
	x.Okapi.K1, x.Okapi.B = k1, bParam
	for t := 0; t < m; t++ {
		name := string(r.sized16())
		ft := r.u32()
		if r.err != nil {
			return nil, r.err
		}
		if name == "" {
			return nil, fmt.Errorf("index: decode: term %d has empty name", t)
		}
		if _, dup := x.byName[name]; dup {
			return nil, fmt.Errorf("index: decode: duplicate term %q", name)
		}
		if t > 0 && x.Terms[t-1].Name >= name {
			return nil, fmt.Errorf("index: decode: dictionary not sorted at %q", name)
		}
		x.Terms[t] = TermMeta{Name: name, FT: ft}
		x.byName[name] = TermID(t)
	}
	// The inverted lists dominate a snapshot open's CPU time, and their
	// lengths are already known from the dictionary: size (and
	// bounds-check) one postings arena up front, then decode each list
	// from its raw bytes in a single tight pass instead of through the
	// per-field reader.
	var total int
	for t := 0; t < m; t++ {
		ft := int(x.Terms[t].FT)
		if ft > r.remaining()/codecEntrySize-total {
			return nil, errors.New("index: decode: list length exceeds payload")
		}
		total += ft
	}
	arena := make([]Posting, total)
	for t := 0; t < m; t++ {
		ft := int(x.Terms[t].FT)
		raw := r.take(ft * codecEntrySize)
		if r.err != nil {
			return nil, r.err
		}
		l := arena[:ft:ft]
		arena = arena[ft:]
		for i := range l {
			e := raw[i*codecEntrySize:]
			l[i] = Posting{Doc: DocID(binary.BigEndian.Uint32(e)), W: math.Float32frombits(binary.BigEndian.Uint32(e[4:]))}
		}
		x.Lists[t] = l
	}
	for d := 0; d < n; d++ {
		vecLen := int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		if vecLen > r.remaining()/codecEntrySize {
			return nil, errors.New("index: decode: document vector exceeds payload")
		}
		raw := r.take(vecLen * codecEntrySize)
		vec := make([]TermFreq, vecLen)
		for i := range vec {
			e := raw[i*codecEntrySize:]
			vec[i] = TermFreq{Term: TermID(binary.BigEndian.Uint32(e)), W: math.Float32frombits(binary.BigEndian.Uint32(e[4:]))}
		}
		x.DocTerm[d] = vec
		x.DocLen[d] = r.u32()
		contentLen := int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		if contentLen > r.remaining() {
			return nil, errors.New("index: decode: document content exceeds payload")
		}
		x.Content[d] = r.take(contentLen)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, errors.New("index: decode: trailing bytes")
	}
	for _, vec := range x.DocTerm {
		for _, tf := range vec {
			if int(tf.Term) >= m {
				return nil, fmt.Errorf("index: decode: vector references unknown term %d", tf.Term)
			}
		}
	}
	if err := x.Validate(); err != nil {
		return nil, err
	}
	return x, nil
}

type codecReader struct {
	b   []byte
	off int
	err error
}

func (r *codecReader) remaining() int { return len(r.b) - r.off }

func (r *codecReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.err = errors.New("index: decode: truncated input")
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n] // capped: an append must not overwrite the input
	r.off += n
	return v
}

func (r *codecReader) u32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}

func (r *codecReader) f64() float64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(v))
}

func (r *codecReader) sized16() []byte {
	v := r.take(2)
	if v == nil {
		return nil
	}
	return r.take(int(binary.BigEndian.Uint16(v)))
}
