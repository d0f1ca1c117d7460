package core

import (
	"errors"
	"fmt"

	"authtext/internal/binx"
)

// DecodeManifest parses the canonical encoding produced by
// Manifest.Encode. Owners publish exactly the signed bytes, so clients can
// verify the signature over the received buffer and then decode it.
func DecodeManifest(b []byte) (*Manifest, error) {
	const prefix = "authtext/manifest/v1"
	r := binx.NewReader(b)
	if string(r.Take(len(prefix))) != prefix {
		return nil, errors.New("core: not a manifest")
	}
	m := &Manifest{}
	m.N = r.U32()
	m.M = r.U32()
	m.AvgLen = r.F64()
	m.K1 = r.F64()
	m.B = r.F64()
	m.BlockSize = r.U32()
	m.HashSize = r.U8()
	flags := r.U8()
	if err := r.Err(); err != nil {
		return nil, decodeErr(err)
	}
	if flags&^0x1F != 0 {
		return nil, fmt.Errorf("core: manifest flags %#02x carry unknown bits", flags)
	}
	m.DictMode = flags&1 != 0
	m.VocabProofsEnabled = flags&2 != 0
	m.Boosted = flags&4 != 0
	tombstoned := flags&8 != 0
	// The variant mask and the leaf-definition byte are the last bytes;
	// what precedes them parses as if their flags were clear.
	rest := r.Take(r.Len())
	if flags&0x10 != 0 {
		// A zero mask has no canonical encoding (the full set is the absent
		// byte); Validate rejects the rest.
		if len(rest) == 0 {
			return nil, decodeErr(binx.ErrTruncated)
		}
		m.Variants = VariantSet(rest[len(rest)-1])
		rest = rest[:len(rest)-1]
		if m.Variants == 0 {
			return nil, errors.New("core: manifest variant mask is empty")
		}
	}
	if m.DictMode {
		// The leaf-definition byte precedes the variant mask; without it the
		// dictionary roots hash leaves this decoder does not check against.
		if len(rest) == 0 || rest[len(rest)-1] != dictLeafBound {
			return nil, errors.New("core: unsupported dictionary leaf definition (a dictionary-mode manifest from before leaves were bound to their term)")
		}
		rest = rest[:len(rest)-1]
	}
	r = binx.NewReader(rest)
	m.DocHashRoot = r.Copy(int(r.U16()))
	for i := range m.DictRoots {
		m.DictRoots[i] = r.Copy(int(r.U16()))
	}
	m.NameDictRoot = r.Copy(int(r.U16()))
	m.Beta = r.F64()
	m.AMax = r.F64()
	m.AuthorityRoot = r.Copy(int(r.U16()))
	// Optional trailing generation (live collections only; see
	// Manifest.Encode). A zero value would have been omitted by the
	// encoder, so reject it to keep the encoding canonical. When the
	// tombstone flag is set the trailing section is mandatory and longer:
	// generation, live count, and the sized removal bitmap.
	switch {
	case tombstoned:
		m.Generation = r.U64()
		m.Live = r.U32()
		bmLen := int(r.U32())
		if r.Err() == nil && m.Generation == 0 {
			return nil, errors.New("core: non-canonical zero generation field")
		}
		if r.Err() == nil && bmLen != tombstoneLen(m.N) {
			return nil, errors.New("core: manifest tombstone bitmap length mismatch")
		}
		m.Tombstones = r.Copy(bmLen)
	case r.Len() == 8:
		if m.Generation = r.U64(); m.Generation == 0 {
			return nil, errors.New("core: non-canonical zero generation field")
		}
	}
	if err := r.Done(); err != nil {
		return nil, decodeErr(err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func decodeErr(err error) error { return fmt.Errorf("core: manifest: %w", err) }
