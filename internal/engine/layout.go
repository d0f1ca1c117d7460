package engine

import (
	"encoding/binary"
	"fmt"
	"math"

	"authtext/internal/index"
	"authtext/internal/store"
)

// Physical layouts (1-Kbyte blocks by default, §4.1):
//
// Plain list block (MHT variants, PSCAN): packed 8-byte ⟨d, f⟩ entries,
// blockSize/8 per block.
//
// Chain list block (CMHT variants, Figs 9/12): a header holding the digest
// of the succeeding block (hashSize bytes) and its address (4 bytes),
// followed by ρ = (blockSize − hashSize − 4)/8 packed entries.
//
// Document record (TRA random accesses, Fig 8): leaf count (4), h(doc)
// (hashSize), signature length (2) + signature, then the ⟨t, w_{d,t}⟩
// leaves sorted by term id, 8 bytes each.

const entrySize = 8

func putEntry(b []byte, p index.Posting) {
	binary.BigEndian.PutUint32(b, uint32(p.Doc))
	binary.BigEndian.PutUint32(b[4:], math.Float32bits(p.W))
}

func getEntry(b []byte) index.Posting {
	return index.Posting{
		Doc: index.DocID(binary.BigEndian.Uint32(b)),
		W:   math.Float32frombits(binary.BigEndian.Uint32(b[4:])),
	}
}

// encodePlainList packs postings into plain blocks.
func encodePlainList(ps []index.Posting, blockSize int) []byte {
	perBlock := blockSize / entrySize
	nb := (len(ps) + perBlock - 1) / perBlock
	out := make([]byte, nb*blockSize)
	for i, p := range ps {
		blk := i / perBlock
		off := blk*blockSize + (i%perBlock)*entrySize
		putEntry(out[off:], p)
	}
	return out
}

// encodeChainList packs postings into chain blocks; digests[j+1] is written
// into block j's header (ChainDigests output), and nextAddr is the
// block-relative successor index.
func encodeChainList(ps []index.Posting, digests [][]byte, blockSize, hashSize, rho int) []byte {
	nb := (len(ps) + rho - 1) / rho
	out := make([]byte, nb*blockSize)
	for j := 0; j < nb; j++ {
		base := j * blockSize
		if j < nb-1 {
			copy(out[base:], digests[j+1])
			binary.BigEndian.PutUint32(out[base+hashSize:], uint32(j+1))
		}
		lo := j * rho
		hi := lo + rho
		if hi > len(ps) {
			hi = len(ps)
		}
		for i := lo; i < hi; i++ {
			off := base + hashSize + 4 + (i-lo)*entrySize
			putEntry(out[off:], ps[i])
		}
	}
	return out
}

// encodeDocRecord serialises one document record.
func encodeDocRecord(vec []index.TermFreq, contentHash, sigBytes []byte) []byte {
	out := make([]byte, 0, 4+len(contentHash)+2+len(sigBytes)+len(vec)*entrySize)
	out = binary.BigEndian.AppendUint32(out, uint32(len(vec)))
	out = append(out, contentHash...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(sigBytes)))
	out = append(out, sigBytes...)
	for _, tf := range vec {
		var e [entrySize]byte
		binary.BigEndian.PutUint32(e[:], uint32(tf.Term))
		binary.BigEndian.PutUint32(e[4:], math.Float32bits(tf.W))
		out = append(out, e[:]...)
	}
	return out
}

// docRecord is a parsed document record.
type docRecord struct {
	vec         []index.TermFreq
	contentHash []byte
	sig         []byte
}

// decodeDocRecord parses one document record. The term vector is carved out
// of vecs, the query's arena of decoded vectors; the content hash and the
// signature alias b.
func decodeDocRecord(b []byte, hashSize int, vecs *[]index.TermFreq) (docRecord, error) {
	if len(b) < 4+hashSize+2 {
		return docRecord{}, fmt.Errorf("engine: document record too short (%d bytes)", len(b))
	}
	n := int(binary.BigEndian.Uint32(b))
	off := 4
	rec := docRecord{contentHash: b[off : off+hashSize]}
	off += hashSize
	sigLen := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+sigLen+n*entrySize {
		return docRecord{}, fmt.Errorf("engine: document record truncated")
	}
	rec.sig = b[off : off+sigLen]
	off += sigLen
	rec.vec = carve(vecs, n)
	for i := range rec.vec {
		rec.vec[i] = index.TermFreq{
			Term: index.TermID(binary.BigEndian.Uint32(b[off:])),
			W:    math.Float32frombits(binary.BigEndian.Uint32(b[off+4:])),
		}
		off += entrySize
	}
	return rec, nil
}

// Layout records where each structure lives on the device.
type Layout struct {
	Plain     []store.Extent // per term
	ChainTRA  []store.Extent // per term
	ChainTNRA []store.Extent // per term
	Doc       []store.Extent // per document
}
