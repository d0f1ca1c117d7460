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
// followed by ρ = (blockSize − hashSize − 4)/8 packed entries. The last
// block's header is zero.
//
// A list's last block ends at its last entry (listLength): the device
// stores no padding, though the cost model charges the block whole.
//
// Document record (TRA random accesses, Fig 8): leaf count (4), h(doc)
// (hashSize), a length (2) and the signature over the document root — or,
// in dictionary mode, where the document-root tree authenticates the roots,
// the root itself — then the ⟨t, w_{d,t}⟩ leaves sorted by term id, 8 bytes
// each.

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

// listLength is the encoded length of a list of ft entries in blocks of
// perBlock entries behind hdr-byte headers: every block whole but the last,
// which ends at its last entry.
func listLength(ft, perBlock, hdr, blockSize int) int64 {
	if ft == 0 {
		return 0
	}
	full := (ft - 1) / perBlock
	return int64(full)*int64(blockSize) + int64(hdr+(ft-full*perBlock)*entrySize)
}

// encodePlainList packs postings into plain blocks.
func encodePlainList(ps []index.Posting, blockSize int) []byte {
	perBlock := blockSize / entrySize
	out := make([]byte, listLength(len(ps), perBlock, 0, blockSize))
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
	out := make([]byte, listLength(len(ps), rho, hashSize+4, blockSize))
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

// encodeDocRecord serialises one document record; auth is the signature
// over the document root, or the root (dictionary mode).
func encodeDocRecord(vec []index.TermFreq, contentHash, auth []byte) []byte {
	out := make([]byte, 0, 4+len(contentHash)+2+len(auth)+len(vec)*entrySize)
	out = binary.BigEndian.AppendUint32(out, uint32(len(vec)))
	out = append(out, contentHash...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(auth)))
	out = append(out, auth...)
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
	auth        []byte // the signature over the document root, or the root
}

// docRecordHeader parses a document record's header: the leaf count, the
// content hash and the auth field, which alias b, and the offset of the
// leaves, which b holds in full.
func docRecordHeader(b []byte, hashSize int) (n int, contentHash, auth []byte, off int, err error) {
	if len(b) < 4+hashSize+2 {
		return 0, nil, nil, 0, fmt.Errorf("engine: document record too short (%d bytes)", len(b))
	}
	n = int(binary.BigEndian.Uint32(b))
	off = 4
	contentHash = b[off : off+hashSize]
	off += hashSize
	authLen := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+authLen+n*entrySize {
		return 0, nil, nil, 0, fmt.Errorf("engine: document record truncated")
	}
	return n, contentHash, b[off : off+authLen], off + authLen, nil
}

// decodeDocRecord parses one document record. The term vector is carved out
// of vecs, the query's arena of decoded vectors; the content hash and the
// auth field alias b.
func decodeDocRecord(b []byte, hashSize int, vecs *[]index.TermFreq) (docRecord, error) {
	n, contentHash, auth, off, err := docRecordHeader(b, hashSize)
	if err != nil {
		return docRecord{}, err
	}
	rec := docRecord{contentHash: contentHash, auth: auth}
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

// Walk calls fn on every extent in device order — the order the build
// writes them: each document record, then term by term its plain list, TRA
// chain and TNRA chain — and stops at the first error. what names the
// extent's table and i its index there.
func (l *Layout) Walk(fn func(what string, i int, ext *store.Extent) error) error {
	for d := range l.Doc {
		if err := fn("doc", d, &l.Doc[d]); err != nil {
			return err
		}
	}
	for t := 0; t < max(len(l.Plain), len(l.ChainTRA), len(l.ChainTNRA)); t++ {
		for _, tbl := range []struct {
			what string
			exts []store.Extent
		}{{"plain", l.Plain}, {"chain-tra", l.ChainTRA}, {"chain-tnra", l.ChainTNRA}} {
			if t < len(tbl.exts) {
				if err := fn(tbl.what, t, &tbl.exts[t]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// PackOffsets sets every extent's Off to where a packed device holds its
// payload: after the payloads of all extents before it in device order.
// A snapshot carries no offsets; this derives them.
func (l *Layout) PackOffsets() {
	var off int64
	l.Walk(func(_ string, _ int, ext *store.Extent) error {
		ext.Off = off
		off += ext.Length
		return nil
	})
}
