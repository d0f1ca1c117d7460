package core

import (
	"encoding/binary"
	"math"

	"authtext/internal/index"
	"authtext/internal/mht"
)

// Canonical byte encodings shared by the owner (structure construction),
// the server (VO assembly) and the client (verification). All integers are
// big-endian; float32 weights are encoded as their IEEE-754 bit patterns.
// Entry sizes follow Table 1: 4-byte identifiers, 4-byte frequencies,
// giving 4-byte doc-id leaves for the TRA term structures and 8-byte
// ⟨id, frequency⟩ leaves elsewhere.

// StructureKind distinguishes the four signed list structures, so that a
// signature over one cannot be replayed as another.
type StructureKind uint8

const (
	// KindTRAMHT is the term-MHT over doc ids (§3.3.1, Fig 7).
	KindTRAMHT StructureKind = 1
	// KindTRACMHT is the chain-MHT over doc ids (§3.3.2, Fig 9).
	KindTRACMHT StructureKind = 2
	// KindTNRAMHT is the term-MHT over ⟨d, f⟩ pairs (§3.4).
	KindTNRAMHT StructureKind = 3
	// KindTNRACMHT is the chain-MHT over ⟨d, f⟩ pairs (§3.4, Fig 12).
	KindTNRACMHT StructureKind = 4
)

// KindFor maps an (algorithm, scheme) pair to its structure kind.
func KindFor(a Algo, s Scheme) StructureKind {
	switch {
	case a == AlgoTRA && s == SchemeMHT:
		return KindTRAMHT
	case a == AlgoTRA && s == SchemeCMHT:
		return KindTRACMHT
	case a == AlgoTNRA && s == SchemeMHT:
		return KindTNRAMHT
	default:
		return KindTNRACMHT
	}
}

// LeafSize returns the list-leaf size in bytes for a structure kind.
func (k StructureKind) LeafSize() int {
	if k == KindTRAMHT || k == KindTRACMHT {
		return 4
	}
	return 8
}

// AppendTermFreqLeaf appends a ⟨t, w_{d,t}⟩ document-MHT leaf (Fig 8) to
// dst.
func AppendTermFreqLeaf(dst []byte, tf index.TermFreq) []byte {
	return appendPair(dst, uint32(tf.Term), tf.W)
}

// appendPair appends the 8-byte ⟨identifier, float32 bits⟩ leaf layout.
func appendPair(dst []byte, id uint32, w float32) []byte {
	dst = binary.BigEndian.AppendUint32(dst, id)
	return binary.BigEndian.AppendUint32(dst, math.Float32bits(w))
}

// ListLeaf encodes a posting as a leaf of the given structure kind.
func (k StructureKind) ListLeaf(p index.Posting) []byte {
	return k.AppendListLeaf(make([]byte, 0, k.LeafSize()), p)
}

// AppendListLeaf appends the ListLeaf encoding of p to dst: the doc id
// alone for the TRA structures, the ⟨d, f⟩ pair for the TNRA ones.
func (k StructureKind) AppendListLeaf(dst []byte, p index.Posting) []byte {
	if k.LeafSize() == 4 {
		return binary.BigEndian.AppendUint32(dst, uint32(p.Doc))
	}
	return appendPair(dst, uint32(p.Doc), p.W)
}

// ListLeaves encodes a slice of postings.
func (k StructureKind) ListLeaves(ps []index.Posting) [][]byte {
	out := make([][]byte, len(ps))
	for i, p := range ps {
		out[i] = k.ListLeaf(p)
	}
	return out
}

// PostingLeaves yields the ListLeaf encodings of ps on demand.
func (k StructureKind) PostingLeaves(ps []index.Posting) mht.LeafFunc {
	return func(buf []byte, i int) []byte { return k.AppendListLeaf(buf, ps[i]) }
}

// TermFreqLeaves yields the document-MHT leaves of a term vector on demand.
func TermFreqLeaves(vec []index.TermFreq) mht.LeafFunc {
	return func(buf []byte, i int) []byte { return AppendTermFreqLeaf(buf, vec[i]) }
}

// TermRootMessage composes the signed message of a list structure,
// sign(h(t | f_t | i | digest)) in the paper's notation (Figs 7, 9, 12),
// extended with a domain label and the structure kind.
func TermRootMessage(kind StructureKind, name string, termID index.TermID, ft uint32, root []byte) []byte {
	b := make([]byte, 0, 16+len(name)+len(root))
	b = append(b, "authtext/list/v1"...)
	b = append(b, byte(kind))
	b = binary.BigEndian.AppendUint32(b, uint32(termID))
	b = binary.BigEndian.AppendUint32(b, ft)
	b = binary.BigEndian.AppendUint32(b, uint32(len(name)))
	b = append(b, name...)
	b = append(b, root...)
	return b
}

// DocRootMessage composes the signed message of a document-MHT,
// sign(h(h(doc) | d | root)) per Fig 8, extended with the leaf count
// (docs/ARCHITECTURE.md, "Departures from the paper").
func DocRootMessage(docID index.DocID, leafCount uint32, contentHash, leavesRoot []byte) []byte {
	b := make([]byte, 0, 24+len(contentHash)+len(leavesRoot))
	b = append(b, "authtext/doc/v1"...)
	b = binary.BigEndian.AppendUint32(b, uint32(docID))
	b = binary.BigEndian.AppendUint32(b, leafCount)
	b = append(b, contentHash...)
	b = append(b, leavesRoot...)
	return b
}

// VocabLeaf encodes a name-dictionary leaf for the vocabulary
// non-membership extension: the term name, length-prefixed.
func VocabLeaf(name string) []byte {
	b := make([]byte, 0, 4+len(name))
	b = binary.BigEndian.AppendUint32(b, uint32(len(name)))
	b = append(b, name...)
	return b
}
