package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"authtext/internal/sig"
)

// Manifest is the owner-published collection metadata the client needs to
// verify results: the collection size n (for w_{Q,t}), the structural
// parameters, and the roots of the collection-wide trees. The owner signs
// the canonical encoding once at publication time; everything else a query
// needs arrives in the VO.
type Manifest struct {
	N         uint32 // number of documents
	M         uint32 // dictionary size
	AvgLen    float64
	K1, B     float64
	BlockSize uint32
	HashSize  uint8
	// DictMode selects the dictionary-MHT space optimisation: lists carry
	// no individual signatures; DictRoots[kind] commits all roots of that
	// structure kind.
	DictMode bool
	// VocabProofsEnabled selects the vocabulary non-membership extension.
	VocabProofsEnabled bool
	// DocHashRoot is the root over h(doc_0..n−1) (content authentication
	// for TNRA results).
	DocHashRoot []byte
	// DictRoots holds, per StructureKind (index kind−1), the dictionary-MHT
	// root over that kind's term roots, leaf t being TermRootMessage of term
	// t (name, id and f_t bound to the root). Empty unless DictMode.
	DictRoots [4][]byte
	// NameDictRoot is the root of the name-ordered dictionary tree. Empty
	// unless VocabProofsEnabled.
	NameDictRoot []byte
	// Boosted enables the §5 authority-boost extension: result scores are
	// S(d|Q) + Beta·A(d) with A committed under AuthorityRoot and bounded
	// by AMax.
	Boosted       bool
	Beta          float64
	AMax          float64
	AuthorityRoot []byte
	// Generation numbers the publication state of a live collection
	// (docs/UPDATES.md). 0 means a static, build-once collection; live
	// collections start at 1 and every accepted update increments it. The
	// field is inside the signed encoding, so a server cannot claim a
	// generation the owner never signed; clients additionally refuse to
	// move to a manifest with a lower generation than one they have
	// already accepted (rollback = tampering).
	Generation uint64
	// Live counts the non-tombstoned documents when Tombstones is present;
	// 0 (with a nil Tombstones) means all N slots are live. N stays the
	// slot count — the size every signed structure was built against — so
	// term frequencies, tree shapes and Okapi weights remain consistent
	// with the per-structure signatures across removals.
	Live uint32
	// Tombstones is the removal bitmap of a live collection: bit d set
	// means document slot d was removed after being signed into the
	// collection. The bitmap is part of the signed encoding, so a server
	// can neither resurrect a removed document nor suppress a live one.
	// Removed slots keep their postings and signed records (which is what
	// lets CachingSigner reuse them); search and verification skip them
	// deterministically. nil when no document is tombstoned.
	Tombstones []byte
	// Variants is the set of structure kinds the owner built and signed; a
	// server can answer only those, and a client asks only those. The zero
	// value is the full set and encodes as the original layout (no flag, no
	// byte), so a manifest carrying all four can never be told apart from
	// one that predates the field; AllVariants itself is non-canonical.
	Variants VariantSet
}

// Serves reports whether the owner built — and signed — structure kind.
func (m *Manifest) Serves(kind StructureKind) bool { return m.Variants.Has(kind) }

// tombstoneLen is the canonical bitmap length for n document slots.
func tombstoneLen(n uint32) int { return int(n+7) / 8 }

// LiveDocs returns the number of live (non-tombstoned) documents.
func (m *Manifest) LiveDocs() int {
	if len(m.Tombstones) == 0 {
		return int(m.N)
	}
	return int(m.Live)
}

// IsTombstoned reports whether document slot d was removed. Out-of-range
// slots report false; callers bound d by N independently.
func (m *Manifest) IsTombstoned(d uint32) bool {
	if len(m.Tombstones) == 0 {
		return false
	}
	byteIdx := int(d >> 3)
	if byteIdx >= len(m.Tombstones) {
		return false
	}
	return m.Tombstones[byteIdx]&(1<<(d&7)) != 0
}

// Encode produces the canonical signed encoding of the manifest.
func (m *Manifest) Encode() []byte {
	b := make([]byte, 0, 128)
	b = append(b, "authtext/manifest/v1"...)
	b = binary.BigEndian.AppendUint32(b, m.N)
	b = binary.BigEndian.AppendUint32(b, m.M)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.AvgLen))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.K1))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.B))
	b = binary.BigEndian.AppendUint32(b, m.BlockSize)
	b = append(b, m.HashSize)
	var flags byte
	if m.DictMode {
		flags |= 1
	}
	if m.VocabProofsEnabled {
		flags |= 2
	}
	if m.Boosted {
		flags |= 4
	}
	if len(m.Tombstones) != 0 {
		flags |= 8
	}
	if m.Variants != 0 {
		flags |= 0x10
	}
	b = append(b, flags)
	b = appendSized(b, m.DocHashRoot)
	for _, r := range m.DictRoots {
		b = appendSized(b, r)
	}
	b = appendSized(b, m.NameDictRoot)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.Beta))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.AMax))
	b = appendSized(b, m.AuthorityRoot)
	// The generation is a trailing extension: static collections
	// (generation 0) encode exactly the original v1 layout, so their
	// signatures, snapshots and golden fixtures are unaffected, while live
	// collections (generation ≥ 1) sign the extra 8 bytes. The tombstone
	// bitmap extends further, and only when a slot is actually tombstoned
	// (flag bit 8): a live collection with no removals still encodes the
	// generation-only layout, so pre-tombstone snapshots stay valid. A
	// dictionary-mode manifest then names its leaf definition in one byte
	// (dictLeafBound), and a variant set short of all four is the last byte
	// (flag bit 0x10).
	if m.Generation != 0 {
		b = binary.BigEndian.AppendUint64(b, m.Generation)
	}
	if len(m.Tombstones) != 0 {
		b = binary.BigEndian.AppendUint32(b, m.Live)
		b = binary.BigEndian.AppendUint32(b, uint32(len(m.Tombstones)))
		b = append(b, m.Tombstones...)
	}
	if m.DictMode {
		b = append(b, dictLeafBound)
	}
	if m.Variants != 0 {
		b = append(b, byte(m.Variants))
	}
	return b
}

// dictLeafBound is the byte a dictionary-mode manifest carries to say that
// its dictionary leaves are TermRootMessage of each term (name, ID and f_t
// bound to the list root). Dictionary-mode manifests signed over the bare
// list roots carried no such byte: the decoder refuses them as unsupported,
// and decoders that predate the byte refuse a manifest carrying it as
// trailing bytes — either way a plain error, never a tampering verdict on
// honest answers.
const dictLeafBound byte = 1

func appendSized(b, v []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(v)))
	return append(b, v...)
}

// Validate checks internal consistency before use.
func (m *Manifest) Validate() error {
	if m.N == 0 || m.M == 0 {
		return errors.New("core: manifest has empty collection")
	}
	if m.HashSize < 8 || m.HashSize > 32 {
		return fmt.Errorf("core: manifest hash size %d", m.HashSize)
	}
	if m.BlockSize < 64 {
		return fmt.Errorf("core: manifest block size %d", m.BlockSize)
	}
	if len(m.DocHashRoot) != int(m.HashSize) {
		return errors.New("core: manifest doc-hash root size mismatch")
	}
	// The full set is encoded by absence (zero), never spelled out.
	if m.Variants == AllVariants || m.Variants&^AllVariants != 0 {
		return fmt.Errorf("core: manifest variant mask %#02x is not canonical", uint8(m.Variants))
	}
	for k, r := range m.DictRoots {
		// A dictionary root exists exactly for each built kind.
		if !m.Serves(StructureKind(k+1)) && len(r) != 0 {
			return fmt.Errorf("core: manifest dict root %d for a variant not built", k)
		}
		if m.DictMode && m.Serves(StructureKind(k+1)) && len(r) != int(m.HashSize) {
			return fmt.Errorf("core: manifest dict root %d size mismatch", k)
		}
	}
	if m.VocabProofsEnabled && len(m.NameDictRoot) != int(m.HashSize) {
		return errors.New("core: manifest name-dict root size mismatch")
	}
	if m.Boosted {
		if len(m.AuthorityRoot) != int(m.HashSize) {
			return errors.New("core: manifest authority root size mismatch")
		}
		if m.Beta < 0 || math.IsNaN(m.Beta) || math.IsInf(m.Beta, 0) {
			return fmt.Errorf("core: manifest beta %v", m.Beta)
		}
		if m.AMax < 0 || m.AMax > 1 || math.IsNaN(m.AMax) {
			return fmt.Errorf("core: manifest authority max %v", m.AMax)
		}
	}
	if len(m.Tombstones) != 0 {
		if m.Generation == 0 {
			return errors.New("core: manifest tombstones on a static collection")
		}
		if len(m.Tombstones) != tombstoneLen(m.N) {
			return fmt.Errorf("core: manifest tombstone bitmap is %d bytes for %d slots",
				len(m.Tombstones), m.N)
		}
		// Canonical form: bits past slot N−1 must be clear, at least one
		// slot tombstoned (else the bitmap would be omitted), at least one
		// live (an empty collection is unservable), and Live must agree
		// with the bitmap so the two signed views cannot diverge.
		dead := 0
		for i, bb := range m.Tombstones {
			if i == len(m.Tombstones)-1 && m.N%8 != 0 {
				if bb>>(m.N%8) != 0 {
					return errors.New("core: manifest tombstone bitmap has bits past slot count")
				}
			}
			dead += bits.OnesCount8(bb)
		}
		if dead == 0 {
			return errors.New("core: manifest tombstone bitmap is empty")
		}
		if dead == int(m.N) {
			return errors.New("core: manifest tombstones every slot")
		}
		if int(m.Live) != int(m.N)-dead {
			return fmt.Errorf("core: manifest live count %d disagrees with bitmap (%d of %d tombstoned)",
				m.Live, dead, m.N)
		}
	} else if m.Live != 0 {
		return errors.New("core: manifest live count without tombstone bitmap")
	}
	return nil
}

// VerifyManifest checks the owner's signature over the manifest.
func VerifyManifest(m *Manifest, sigBytes []byte, v sig.Verifier) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if err := v.Verify(m.Encode(), sigBytes); err != nil {
		return fmt.Errorf("core: manifest signature: %w", err)
	}
	return nil
}
