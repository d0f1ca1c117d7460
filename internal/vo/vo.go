package vo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"authtext/internal/binx"
)

// Category classifies each byte of an encoded VO.
type Category int

const (
	// CatMeta covers framing: counts, identifiers, term names, positions.
	CatMeta Category = iota
	// CatData covers revealed leaf data: doc ids, frequencies, weights.
	CatData
	// CatDigest covers complementary Merkle digests.
	CatDigest
	// CatSig covers signatures.
	CatSig
	numCategories
)

// Breakdown reports encoded size per category, in bytes.
type Breakdown struct {
	Meta      int
	Data      int
	Digest    int
	Signature int
}

// Total returns the full encoded size.
func (b Breakdown) Total() int { return b.Meta + b.Data + b.Digest + b.Signature }

// DataDigestShare returns the data and digest percentages of the
// data+digest portion, the quantity Table 2 reports.
func (b Breakdown) DataDigestShare() (dataPct, digestPct float64) {
	t := b.Data + b.Digest
	if t == 0 {
		return 0, 0
	}
	return 100 * float64(b.Data) / float64(t), 100 * float64(b.Digest) / float64(t)
}

// VO is the verification object for one query result.
type VO struct {
	Algo   uint8 // core.Algo value
	Scheme uint8 // core.Scheme value
	// Generation echoes the serving collection's manifest generation
	// (0 for static collections). The client cross-checks it against its
	// own manifest, so an answer assembled under a different publication
	// state is flagged before any cryptographic work happens.
	Generation uint64
	// CapDepth is the depth at which every multiproof through a
	// collection-level tree — ContentProof, DictProof, VocabProofs,
	// AuthorityProof, DocRootProof — was cut: the client takes the top CapDepth levels of
	// each tree from the cap it holds (docs/PROTOCOL.md "Proof caps"). 0 is
	// no cut, and encodes as no field at all.
	CapDepth uint8
	Terms    []TermProof
	// Docs carries document-MHT proofs (TRA only), ascending by Doc.
	Docs []DocProof
	// ContentProof authenticates result-document contents against the
	// collection's document-hash tree (TNRA only; TRA binds contents
	// through the document-MHT roots).
	ContentProof *ContentProof
	// DictProof replaces per-term signatures in dictionary-MHT mode.
	DictProof *DictProof
	// VocabProofs hold non-membership proofs for out-of-dictionary query
	// tokens (extension; empty when the collection disables it).
	VocabProofs []VocabProof
	// AuthorityProof certifies A(d) for every revealed document when the
	// collection enables the §5 authority-boost extension.
	AuthorityProof *AuthorityProof
	// DocRootProof authenticates every document proof's root at once when
	// the manifest commits the document-root tree (TRA only); the document
	// proofs then carry no signature.
	DocRootProof *DocRootProof
}

// TermProof authenticates the revealed prefix of one query term's list.
type TermProof struct {
	TermID uint32
	FT     uint32
	Name   string
	// KScore is the scoring prefix (popped entries + cut-off head);
	// KProof ≥ KScore extends it with buddy padding (CMHT).
	KScore uint32
	KProof uint32
	Docs   []uint32  // revealed doc ids, len KProof
	Freqs  []float32 // revealed frequencies, len KProof (TNRA), nil (TRA)
	// Digests: term-MHT multiproof (MHT) or partial-block chain proof (CMHT).
	Digests [][]byte
	Sig     []byte // nil in dictionary mode
}

// DocProof authenticates query-term frequencies of one encountered document
// against its document-MHT (Fig 8).
type DocProof struct {
	Doc       uint32
	LeafCount uint32
	InResult  bool
	// ContentHash is h(doc) for non-result documents; result documents are
	// delivered in full and hashed by the client.
	ContentHash []byte
	Positions   []uint32 // revealed leaf positions, ascending
	Terms       []uint32 // term id at each position
	Ws          []float32
	Digests     [][]byte
	// Sig signs the document root when the manifest commits no
	// document-root tree; empty when it does (DocRootProof).
	Sig []byte
}

// ContentProof is a multiproof over the collection's document-hash tree
// covering the result documents.
type ContentProof struct {
	Digests [][]byte
}

// DictProof authenticates all query-term structure roots with a single
// signature via the dictionary-MHT (§3.4 space optimisation).
type DictProof struct {
	M       uint32
	Digests [][]byte
	Sig     []byte
}

// VocabProof proves a query token absent from the dictionary via adjacent
// leaves of the name-ordered dictionary tree (extension).
type VocabProof struct {
	Token     string
	Positions []uint32
	Names     []string
	Digests   [][]byte
}

// AuthorityProof is a multiproof over the authority-MHT covering the
// revealed documents (ascending doc order; positions are the doc ids of
// the revealed set, which the client derives from the term proofs).
type AuthorityProof struct {
	Values  []float32
	Digests [][]byte
}

// DocRootProof is a multiproof over the collection's document-root tree
// covering every document proof: leaf d is core.DocRootMessage of document
// d, and the positions are the proofs' document ids.
type DocRootProof struct {
	Digests [][]byte
}

// positionRun is a maximal run of consecutive revealed leaf positions.
// Buddy inclusion (§3.3.2) reveals whole groups of adjacent leaves, so
// run-length encoding keeps the VO's position metadata from eating the
// digests it saves.
type positionRun struct {
	start  uint32
	length uint16
}

// On-wire size of a position run: u32 start + u16 length, then one
// u32 term id + f32 weight per revealed entry. Decode's pre-scan sizes
// the reveal arrays from these; keep them in lockstep with the encode
// loop and the decode parse loop.
const (
	runHeaderBytes = 4 + 2
	runEntryBytes  = 4 + 4
)

// positionRuns appends the runs of positions (ascending) to runs.
func positionRuns(runs []positionRun, positions []uint32) []positionRun {
	for i := 0; i < len(positions); {
		j := i + 1
		for j < len(positions) && positions[j] == positions[j-1]+1 && j-i < 0xFFFF {
			j++
		}
		runs = append(runs, positionRun{start: positions[i], length: uint16(j - i)})
		i = j
	}
	return runs
}

// ---------------------------------------------------------------------------
// Encoding

const magic = "AVO1"

var (
	// ErrTruncated indicates the buffer ended mid-structure, or a count
	// in it promised more than the buffer holds.
	ErrTruncated = fmt.Errorf("vo: %w", binx.ErrTruncated)
	// ErrBadMagic indicates the buffer is not an encoded VO.
	ErrBadMagic = errors.New("vo: bad magic")
)

type writer struct {
	buf   []byte
	sizes [numCategories]int
	runs  []positionRun // scratch, reused from document proof to document proof
}

// writerPool recycles encoder buffers across queries: Encode runs on the
// server's hot path, and regrowing a fresh append buffer for every VO was
// the dominant allocation. Encode copies the finished bytes out before
// returning the writer, so pooled capacity is retained but never aliased.
var writerPool = sync.Pool{New: func() interface{} { return &writer{} }}

func (w *writer) reset() {
	w.buf = w.buf[:0]
	w.sizes = [numCategories]int{}
}

func (w *writer) u8(c Category, v uint8) {
	w.buf = append(w.buf, v)
	w.sizes[c]++
}

func (w *writer) u16(c Category, v uint16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
	w.sizes[c] += 2
}

func (w *writer) u32(c Category, v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
	w.sizes[c] += 4
}

func (w *writer) u64(c Category, v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
	w.sizes[c] += 8
}

func (w *writer) f32(c Category, v float32) { w.u32(c, math.Float32bits(v)) }

func (w *writer) bytes(c Category, b []byte) {
	w.buf = append(w.buf, b...)
	w.sizes[c] += len(b)
}

func (w *writer) str(c Category, s string) {
	w.u16(c, uint16(len(s)))
	w.buf = append(w.buf, s...)
	w.sizes[c] += len(s)
}

func (w *writer) digests(ds [][]byte, hashSize int) error {
	w.u16(CatMeta, uint16(len(ds)))
	for _, d := range ds {
		if len(d) != hashSize {
			return fmt.Errorf("vo: digest size %d, want %d", len(d), hashSize)
		}
		w.bytes(CatDigest, d)
	}
	return nil
}

// Encode serialises the VO and returns the bytes and the size breakdown.
// hashSize fixes the digest width on the wire. Encode is safe for
// concurrent use; the returned slice is freshly allocated and owned by the
// caller.
func Encode(v *VO, hashSize int) ([]byte, Breakdown, error) {
	w := writerPool.Get().(*writer)
	defer writerPool.Put(w)
	w.reset()
	w.bytes(CatMeta, []byte(magic))
	w.u8(CatMeta, v.Algo)
	w.u8(CatMeta, v.Scheme)
	w.u8(CatMeta, uint8(hashSize))

	var flags uint8
	if v.ContentProof != nil {
		flags |= 1
	}
	if v.DictProof != nil {
		flags |= 2
	}
	if v.AuthorityProof != nil {
		flags |= 4
	}
	if v.Generation != 0 {
		flags |= 8
	}
	if v.CapDepth != 0 {
		flags |= 16
	}
	if v.DocRootProof != nil {
		flags |= 32
	}
	w.u8(CatMeta, flags)
	if v.Generation != 0 {
		w.u64(CatMeta, v.Generation)
	}
	if v.CapDepth != 0 {
		w.u8(CatMeta, v.CapDepth)
	}

	w.u16(CatMeta, uint16(len(v.Terms)))
	for i := range v.Terms {
		t := &v.Terms[i]
		if len(t.Docs) != int(t.KProof) {
			return nil, Breakdown{}, fmt.Errorf("vo: term %q docs %d != kProof %d", t.Name, len(t.Docs), t.KProof)
		}
		if t.Freqs != nil && len(t.Freqs) != int(t.KProof) {
			return nil, Breakdown{}, fmt.Errorf("vo: term %q freqs %d != kProof %d", t.Name, len(t.Freqs), t.KProof)
		}
		w.u32(CatMeta, t.TermID)
		w.u32(CatMeta, t.FT)
		w.str(CatMeta, t.Name)
		w.u32(CatMeta, t.KScore)
		w.u32(CatMeta, t.KProof)
		hasFreqs := uint8(0)
		if t.Freqs != nil {
			hasFreqs = 1
		}
		w.u8(CatMeta, hasFreqs)
		for _, d := range t.Docs {
			w.u32(CatData, d)
		}
		for _, f := range t.Freqs {
			w.f32(CatData, f)
		}
		if err := w.digests(t.Digests, hashSize); err != nil {
			return nil, Breakdown{}, err
		}
		w.u16(CatMeta, uint16(len(t.Sig)))
		w.bytes(CatSig, t.Sig)
	}

	w.u32(CatMeta, uint32(len(v.Docs)))
	for i := range v.Docs {
		d := &v.Docs[i]
		if len(d.Terms) != len(d.Positions) || len(d.Ws) != len(d.Positions) {
			return nil, Breakdown{}, fmt.Errorf("vo: doc %d ragged reveal arrays", d.Doc)
		}
		w.u32(CatMeta, d.Doc)
		w.u32(CatMeta, d.LeafCount)
		inRes := uint8(0)
		if d.InResult {
			inRes = 1
		}
		w.u8(CatMeta, inRes)
		w.u16(CatMeta, uint16(len(d.ContentHash)))
		w.bytes(CatDigest, d.ContentHash)
		w.runs = positionRuns(w.runs[:0], d.Positions)
		runs := w.runs
		w.u16(CatMeta, uint16(len(runs)))
		j := 0
		for _, run := range runs {
			w.u32(CatMeta, run.start)
			w.u16(CatMeta, run.length)
			for k := uint16(0); k < run.length; k++ {
				w.u32(CatData, d.Terms[j])
				w.f32(CatData, d.Ws[j])
				j++
			}
		}
		if err := w.digests(d.Digests, hashSize); err != nil {
			return nil, Breakdown{}, err
		}
		w.u16(CatMeta, uint16(len(d.Sig)))
		w.bytes(CatSig, d.Sig)
	}

	if v.ContentProof != nil {
		if err := w.digests(v.ContentProof.Digests, hashSize); err != nil {
			return nil, Breakdown{}, err
		}
	}
	if v.DictProof != nil {
		w.u32(CatMeta, v.DictProof.M)
		if err := w.digests(v.DictProof.Digests, hashSize); err != nil {
			return nil, Breakdown{}, err
		}
		w.u16(CatMeta, uint16(len(v.DictProof.Sig)))
		w.bytes(CatSig, v.DictProof.Sig)
	}

	w.u16(CatMeta, uint16(len(v.VocabProofs)))
	for i := range v.VocabProofs {
		p := &v.VocabProofs[i]
		if len(p.Names) != len(p.Positions) {
			return nil, Breakdown{}, fmt.Errorf("vo: vocab proof %q ragged arrays", p.Token)
		}
		w.str(CatMeta, p.Token)
		w.u16(CatMeta, uint16(len(p.Positions)))
		for j := range p.Positions {
			w.u32(CatMeta, p.Positions[j])
			w.str(CatData, p.Names[j])
		}
		if err := w.digests(p.Digests, hashSize); err != nil {
			return nil, Breakdown{}, err
		}
	}

	if v.AuthorityProof != nil {
		w.u32(CatMeta, uint32(len(v.AuthorityProof.Values)))
		for _, a := range v.AuthorityProof.Values {
			w.f32(CatData, a)
		}
		if err := w.digests(v.AuthorityProof.Digests, hashSize); err != nil {
			return nil, Breakdown{}, err
		}
	}
	if v.DocRootProof != nil {
		if err := w.digests(v.DocRootProof.Digests, hashSize); err != nil {
			return nil, Breakdown{}, err
		}
	}

	bd := Breakdown{
		Meta:      w.sizes[CatMeta],
		Data:      w.sizes[CatData],
		Digest:    w.sizes[CatDigest],
		Signature: w.sizes[CatSig],
	}
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	return out, bd, nil
}

// ---------------------------------------------------------------------------
// Decoding

// Smallest encodings of the repeated records (every count zero, every
// string empty). Decode checks each count read from the input against
// them before allocating for it.
const (
	minTermBytes     = 4 + 4 + 2 + 4 + 4 + 1 + 2 + 2
	minDocBytes      = 4 + 4 + 1 + 2 + 2 + 2 + 2
	minVocabBytes    = 2 + 2 + 2
	minPositionBytes = 4 + 2
)

// decodeErr reports a reader failure under vo's sentinels.
func decodeErr(err error) error {
	if errors.Is(err, binx.ErrTruncated) {
		return ErrTruncated
	}
	return fmt.Errorf("vo: %w", err)
}

func str(r *binx.Reader) string { return string(r.Take(int(r.U16()))) }

// sized reads a u16-prefixed byte string into a fresh slice (nil if empty).
func sized(r *binx.Reader) []byte { return r.Copy(int(r.U16())) }

// digests reads a u16-counted list of fixed-width digests backed by one
// flat copy: digest lists are the bulkiest part of a VO, and per-digest
// slices made the decoder's allocation count scale with proof size.
func digests(r *binx.Reader, hashSize int) [][]byte {
	n := r.Count(int(r.U16()), hashSize)
	flat := r.Copy(n * hashSize)
	if flat == nil {
		return nil
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = flat[i*hashSize : (i+1)*hashSize : (i+1)*hashSize]
	}
	return out
}

// Decode parses an encoded VO. The digest width is read from the header.
// Every field is copied out of b.
func Decode(b []byte) (*VO, error) {
	r := binx.NewReader(b)
	if string(r.Take(len(magic))) != magic {
		return nil, ErrBadMagic
	}
	v := &VO{Algo: r.U8(), Scheme: r.U8()}
	hashSize := int(r.U8())
	flags := r.U8()
	if err := r.Err(); err != nil {
		return nil, decodeErr(err)
	}
	if hashSize < 8 || hashSize > 32 {
		return nil, fmt.Errorf("vo: implausible hash size %d", hashSize)
	}
	if flags&^63 != 0 {
		return nil, fmt.Errorf("vo: flags %#02x carry unknown bits", flags)
	}
	if flags&8 != 0 {
		if v.Generation = r.U64(); v.Generation == 0 && r.Err() == nil {
			return nil, fmt.Errorf("vo: non-canonical zero generation")
		}
	}
	if flags&16 != 0 {
		if v.CapDepth = r.U8(); v.CapDepth == 0 && r.Err() == nil {
			return nil, fmt.Errorf("vo: non-canonical zero cap depth")
		}
	}

	if n := r.Count(int(r.U16()), minTermBytes); n > 0 {
		v.Terms = make([]TermProof, n)
	}
	for i := range v.Terms {
		t := &v.Terms[i]
		t.TermID = r.U32()
		t.FT = r.U32()
		t.Name = str(&r)
		t.KScore = r.U32()
		t.KProof = r.U32()
		hasFreqs := r.U8() == 1
		width := 4
		if hasFreqs {
			width += 4
		}
		n := r.Count(int(t.KProof), width)
		if n > 0 {
			t.Docs = make([]uint32, n)
			for j := range t.Docs {
				t.Docs[j] = r.U32()
			}
		}
		if hasFreqs {
			t.Freqs = make([]float32, n)
			for j := range t.Freqs {
				t.Freqs[j] = r.F32()
			}
		}
		t.Digests = digests(&r, hashSize)
		t.Sig = sized(&r)
	}

	if n := r.Count(int(r.U32()), minDocBytes); n > 0 {
		v.Docs = make([]DocProof, n)
	}
	for i := range v.Docs {
		d := &v.Docs[i]
		d.Doc = r.U32()
		d.LeafCount = r.U32()
		d.InResult = r.U8() == 1
		d.ContentHash = sized(&r)
		nRuns := int(r.U16())
		// Pre-scan the runs on a fork of the cursor to size the reveal
		// arrays with one allocation each instead of append growth.
		scan, revealed := r, 0
		for range nRuns {
			scan.U32()
			length := scan.Count(int(scan.U16()), runEntryBytes)
			scan.Take(length * runEntryBytes)
			revealed += length
		}
		if revealed > 0 && scan.Err() == nil {
			d.Positions = make([]uint32, 0, revealed)
			d.Terms = make([]uint32, 0, revealed)
			d.Ws = make([]float32, 0, revealed)
		}
		for range nRuns {
			start := r.U32()
			length := r.Count(int(r.U16()), runEntryBytes)
			for k := range uint32(length) {
				d.Positions = append(d.Positions, start+k)
				d.Terms = append(d.Terms, r.U32())
				d.Ws = append(d.Ws, r.F32())
			}
		}
		d.Digests = digests(&r, hashSize)
		d.Sig = sized(&r)
	}

	if flags&1 != 0 {
		v.ContentProof = &ContentProof{Digests: digests(&r, hashSize)}
	}
	if flags&2 != 0 {
		dp := &DictProof{M: r.U32()}
		dp.Digests = digests(&r, hashSize)
		dp.Sig = sized(&r)
		v.DictProof = dp
	}

	if n := r.Count(int(r.U16()), minVocabBytes); n > 0 {
		v.VocabProofs = make([]VocabProof, n)
	}
	for i := range v.VocabProofs {
		p := &v.VocabProofs[i]
		p.Token = str(&r)
		if n := r.Count(int(r.U16()), minPositionBytes); n > 0 {
			p.Positions = make([]uint32, n)
			p.Names = make([]string, n)
			for j := range p.Positions {
				p.Positions[j] = r.U32()
				p.Names[j] = str(&r)
			}
		}
		p.Digests = digests(&r, hashSize)
	}
	if flags&4 != 0 {
		ap := &AuthorityProof{}
		if n := r.Count(int(r.U32()), 4); n > 0 {
			ap.Values = make([]float32, n)
			for i := range ap.Values {
				ap.Values[i] = r.F32()
			}
		}
		ap.Digests = digests(&r, hashSize)
		v.AuthorityProof = ap
	}
	if flags&32 != 0 {
		v.DocRootProof = &DocRootProof{Digests: digests(&r, hashSize)}
	}
	if err := r.Done(); err != nil {
		return nil, decodeErr(err)
	}
	return v, nil
}
