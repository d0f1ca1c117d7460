package wire

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Frame layout (all integers big-endian):
//
//	offset size
//	0      4   magic "ATWF"
//	4      1   format version (3)
//	5      1   payload type (TypeSearch, TypeSharded, TypeManifest)
//	6      2   flags (bit 0: payload is a chunk list; bit 1: the frame names a
//	           collection dictionary; bit 2: and carries it; bit 3: its hits
//	           are tagged, and may refer to held bodies — held.go)
//	8      4   CRC-32C (Castagnoli) of everything after the header
//	12     8   length of everything after the header
//	20     32  SHA-256 of the dictionary (bit 1 only)
//	       4   dictionary length n ≤ MaxDictionaryBytes (bit 2 only)
//	       n   the dictionary (bit 2 only)
//	—      —   payload
//
// A chunked payload is a list of chunks whose expansions, concatenated, are
// the message. A chunk starts with uvarint(n<<1 | d), n ≥ 1 the length of its
// expansion: with d = 0, n stored bytes follow; with d = 1, uvarint(m)
// follows, then m bytes of one complete RFC 1951 stream that ends exactly at
// the chunk's end and inflates to exactly n bytes, from the frame's
// dictionary as preset history when it names one (dict.go), from an empty
// history otherwise. The encoder deflates each section — document body,
// manifest export, proof — as its own chunk and stores everything between
// them (query echo, ids, scores, lengths, stats), so a stream depends on its
// section and the dictionary alone and a client can remember what it
// inflated to. Document bodies deflate against the dictionary; proofs and
// exports do not (a stream that never reaches back decodes the same with any
// preset history), and a frame names a dictionary only when a body used it.
// The CRC always covers every byte after the header, so corruption is
// detected before any decompression work happens. Compression is a pure
// function of the encoded message and the Encoding (fixed levels, fixed
// thresholds, applied only when it shrinks the payload), which keeps a
// server's frame for a given response and request byte-identical across
// cache hits, misses and replicas — and across compressor reuse: a pooled
// flate.Writer that has been Reset emits the same stream as a fresh one at
// the same level and dictionary.

// ContentType is the negotiated media type of binary frames. A request
// whose Accept header lists it is answered with a frame; everything else
// gets JSON (docs/PROTOCOL.md "Binary framing"). It names the frame version:
// a server that does not speak this version does not recognise the type and
// answers JSON, so the two ends never disagree about a frame.
const ContentType = "application/x-authtext-frame-v3"

// FrameVersion is the frame format version this build speaks.
const FrameVersion = 3

// frameMagic begins every frame.
const frameMagic = "ATWF"

// HeaderSize is the fixed frame header length.
const HeaderSize = 20

// Payload types. Type 2 carried the retired batch response; it is never
// reused, and every decoder refuses it.
const (
	TypeSearch   byte = 1 // SearchResponse
	TypeSharded  byte = 3 // ShardedSearchResponse
	TypeManifest byte = 4 // ManifestResponse
)

// Frame flags.
const (
	flagChunked      uint16 = 1 << 0 // the payload is a chunk list
	flagDictNamed    uint16 = 1 << 1 // a dictionary id follows the header
	flagDictAttached uint16 = 1 << 2 // and the dictionary after it
	flagHeldRefs     uint16 = 1 << 3 // hits are tagged: a body, or a reference to a held one
)

// MaxPayloadBytes caps the decoded (decompressed) payload a decoder will
// materialise. It matches the remote clients' response-buffer cap: the
// peer is untrusted, and an inflated length field must not allocate
// beyond real input.
const MaxPayloadBytes = 64 << 20

// compressMin is the smallest raw payload worth attempting to compress.
// Below it the deflate header overhead and the chunk headers eat the
// savings; the exact value only changes which frames carry the flag, and
// is part of the deterministic encode.
const compressMin = 512

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFrame reports any malformed, truncated or corrupted frame. All
// decode failures wrap it, so transports can classify frame damage with
// errors.Is.
var ErrFrame = errors.New("wire: bad frame")

func frameErr(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrFrame, fmt.Sprintf(format, args...))
}

// section is a byte range of a message payload that is compressed on its
// own: a document body or manifest export, or (vo) a proof.
type section struct {
	off, end int
	vo       bool
}

// Encoding says how a frame deflates document bodies: against Dict, the
// collection dictionary of the generation that answered (nil: from an empty
// history), which the frame carries in full when Attach is set — when the
// request did not name it among the dictionaries its client holds. Held is
// the summary of the bodies that client holds (nil: none): a hit whose
// Digest it contains is sent as that digest instead of its body.
type Encoding struct {
	Dict   *Dictionary
	Attach bool
	Held   *HeldSummary
}

// frame wraps an encoded message payload in a frame, as a chunk list when
// that pays: each section is deflated on its own (see sectionStream), so a
// document is compressed once, not once per answer that returns it. refs
// says that the message's hits are tagged (flagHeldRefs). The raw slice is
// not retained.
func (e Encoding) frame(typ byte, raw []byte, secs []section, refs bool) []byte {
	extra := 0 // the dictionary's fields, should a body use it
	if e.Dict != nil {
		extra = sha256.Size
		if e.Attach {
			extra += 4 + len(e.Dict.b)
		}
	}
	// Room for the dictionary and every stored chunk's header too: a chunk
	// list that ends up no smaller than raw is dropped, but must not regrow
	// the buffer first.
	out := make([]byte, HeaderSize+extra, HeaderSize+extra+len(raw)+(len(secs)+1)*binary.MaxVarintLen32)
	flags := uint16(0)
	if len(raw) >= compressMin {
		var named bool
		out, named = appendChunks(out, raw, secs, e.Dict)
		if n := len(out) - HeaderSize - extra; n > 0 && n < len(raw) {
			flags = flagChunked
			if named {
				flags |= flagDictNamed
				body := out[HeaderSize:]
				copy(body, e.Dict.id[:])
				if e.Attach {
					flags |= flagDictAttached
					binary.BigEndian.PutUint32(body[sha256.Size:], uint32(len(e.Dict.b)))
					copy(body[sha256.Size+4:], e.Dict.b)
					dictAttached.Add(1)
				}
			} else {
				out = append(out[:HeaderSize], out[HeaderSize+extra:]...)
			}
		}
	}
	if flags == 0 {
		out = append(out[:HeaderSize], raw...)
	}
	if refs {
		flags |= flagHeldRefs
	}
	body := out[HeaderSize:]
	copy(out, frameMagic)
	out[4], out[5] = FrameVersion, typ
	binary.BigEndian.PutUint16(out[6:], flags)
	binary.BigEndian.PutUint32(out[8:], crc32.Checksum(body, castagnoli))
	binary.BigEndian.PutUint64(out[12:], uint64(len(body)))
	return out
}

// appendChunks appends raw as a chunk list, or nothing when no section is
// worth deflating, and reports whether a chunk was deflated against d.
func appendChunks(out, raw []byte, secs []section, d *Dictionary) ([]byte, bool) {
	glue, chunked, named := 0, false, false // raw[glue:] is still to be written
	for _, s := range secs {
		stream := sectionStream(raw[s.off:s.end], s.vo, d)
		if stream == nil {
			continue // travels with the glue around it
		}
		out = appendStoredChunk(out, raw[glue:s.off])
		out = binary.AppendUvarint(out, uint64(s.end-s.off)<<1|1)
		out = binary.AppendUvarint(out, uint64(len(stream)))
		out = append(out, stream...)
		glue, chunked, named = s.end, true, named || (!s.vo && d != nil)
	}
	if !chunked {
		return out, false
	}
	return appendStoredChunk(out, raw[glue:]), named
}

// appendStoredChunk appends b as a stored chunk; an empty b is no chunk.
func appendStoredChunk(out, b []byte) []byte {
	if len(b) == 0 {
		return out
	}
	out = binary.AppendUvarint(out, uint64(len(b))<<1)
	return append(out, b...)
}

// Section outcomes since process start, behind authtext_wire_sections_total.
var sectionsMemoHit, sectionsDeflated, sectionsStored atomic.Uint64

// SectionStats counts what became of the sections of every frame that
// reached compressMin: MemoHit answered from the memo, Deflated run through
// the compressor (whether or not the result was kept), Stored kept from it
// by the entropy estimate. A server whose Deflated keeps pace with its hits
// serves documents that do not recur, and the memo is not earning its memory.
type SectionStats struct{ MemoHit, Deflated, Stored uint64 }

// Sections returns the process-wide section counts.
func Sections() SectionStats {
	return SectionStats{sectionsMemoHit.Load(), sectionsDeflated.Load(), sectionsStored.Load()}
}

// syncTail is the LEN/NLEN of the empty stored block a sync flush ends in.
const syncTail = 4

// chunkOverhead is what carrying a section as a deflated chunk costs beyond
// its stream, for a section of a few KB: the chunk's two length fields and
// the header of the stored chunk it splits the glue into.
const chunkOverhead = 5

// sectionStream returns the deflate stream of sec's chunk, or nil when sec is
// better left in the stored chunk around it. The verdict and the bytes depend
// on (sec, vo, d) alone, which is what keeps a frame a pure function of its
// message and encoding: bodies and exports recur across answers and are
// compressed once, at BestCompression, a body against the collection
// dictionary d; a proof is mostly digests and signatures, is deflated at
// BestSpeed from an empty history, and only when its byte histogram says
// that can pay (compressible).
func sectionStream(sec []byte, vo bool, d *Dictionary) []byte {
	if len(sec) == 0 {
		return nil
	}
	level := flate.BestCompression
	if vo {
		if !compressible(sec) {
			sectionsStored.Add(1)
			return nil
		}
		level, d = flate.BestSpeed, nil
	}
	key := memoKey{sha256.Sum256(sec), level, d.sum()}
	stream, ok := deflateMemo.get(key)
	if ok {
		sectionsMemoHit.Add(1)
		return stream
	}
	sectionsDeflated.Add(1)
	if stream = deflateSection(sec, level, !vo, d); len(stream)+chunkOverhead >= len(sec) {
		stream = nil // compression does not pay
	}
	deflateMemo.put(key, stream)
	return stream
}

// deflater is the reusable state of one compression: flate.NewWriter
// allocates and zeroes a megabyte of match tables at any level, three
// orders of magnitude more than a typical section, so writers (and their
// output buffers) are pooled per level, or per dictionary, and Reset
// instead.
type deflater struct {
	buf bytes.Buffer
	fw  *flate.Writer
}

var deflaters [flate.BestCompression + 1]sync.Pool // by level

// deflateSection compresses sec against d (nil: from an empty history) into
// one complete stream, returned in a fresh exact-size slice.
//
// A closed flate.Writer ends its stream with an empty final stored block:
// five bytes that say only "this is the end". With cut set, and when sec
// fits one block — the writer starts another only after 16 K tokens, or
// 64 KiB at BestSpeed — one bit says it instead: the sync-flushed stream, its
// first block marked final and cut where that block ends. That the cut
// stream is complete is checked, not assumed: it must inflate back to exactly
// sec and end where it is cut, or the closed stream is used. The check costs
// an inflate, which a document body — compressed once per process — repays
// on every answer that carries it, and a proof, seldom sent twice, does not.
func deflateSection(sec []byte, level int, cut bool, d *Dictionary) []byte {
	if !cut {
		return compress(sec, level, false, d)
	}
	stream := compress(sec, level, true, d)
	check := make([]byte, len(sec))
	if used, err := inflateChunk(check, stream, d.preset()); err == nil && bytes.Equal(check, sec) {
		return stream[:used:used] // a block ending on a byte boundary leaves the cut header's byte behind
	}
	return compress(sec, level, false, d)
}

// compress runs sec through a pooled writer at level, preset with d, and
// returns a copy of the stream: closed, or sync-flushed with its first block
// marked final and the empty stored block's LEN/NLEN cut. The writer goes
// back to the pool before the caller looks at the stream. Writes into a
// bytes.Buffer cannot fail, so neither can the compression.
func compress(sec []byte, level int, cut bool, d *Dictionary) []byte {
	pool := &deflaters[level]
	if d != nil {
		pool = &d.writers // bodies only, so always at BestCompression
	}
	w, _ := pool.Get().(*deflater)
	if w == nil {
		w = new(deflater)
		w.fw, _ = flate.NewWriterDict(&w.buf, level, d.preset()) // errs only on an invalid level
	}
	defer pool.Put(w)
	w.buf.Reset()
	w.fw.Reset(&w.buf)
	w.fw.Write(sec)
	var stream []byte
	if cut {
		w.fw.Flush()
		stream = w.buf.Bytes()[:w.buf.Len()-syncTail]
		stream[0] |= 1 // BFINAL of the first block
	} else {
		w.fw.Close()
		stream = w.buf.Bytes()
	}
	out := make([]byte, len(stream))
	copy(out, stream)
	return out
}

// log2Frac is the number of fractional bits log2 returns.
const log2Frac = 8

// log2 returns ⌊log₂(x)·2^log2Frac⌋ for x ≥ 1, by repeated squaring of the
// mantissa: each squaring yields one more bit of the logarithm.
func log2(x uint64) uint64 {
	n := bits.Len64(x) - 1
	r, m := uint64(n), x<<(63-n) // m is x/2ⁿ ∈ [1, 2) with 63 fractional bits
	for i := 0; i < log2Frac; i++ {
		m, _ = bits.Mul64(m, m) // m² ∈ [1, 4) with 62 fractional bits
		r <<= 1
		if m >= 1<<63 {
			r |= 1 // m² ≥ 2: halve it, which the 63-bit reading already does
		} else {
			m <<= 1
		}
	}
	return r
}

// log2Small holds log2 of the counts a proof of a few KB produces.
var log2Small = func() (t [256]uint64) {
	for c := 1; c < len(t); c++ {
		t[c] = log2(uint64(c))
	}
	return t
}()

// codeTableBytes is what a dynamic block spends describing its codes, which
// an entropy estimate of the symbols alone leaves out. Without it a proof
// of a few hundred bytes looks compressible merely because few distinct
// byte values fit in it.
const codeTableBytes = 64

// minProofSaving is the least a proof's deflate must be predicted to save.
// A proof is seldom sent twice, so the memo never amortises its deflate:
// ≈ 120 µs of server CPU at BestSpeed whatever the section's size (2-core
// box), and an inflate on the client. A short TNRA proof cut at the
// client's proof cap (≈ 740 B on the benchmark corpus) is predicted to save
// 43–394 B, and saved 56 B at the median when deflated — not worth the
// compressor on every third answer. A TRA proof's predicted saving starts
// near 1 000 B.
const minProofSaving = 512

// compressible reports whether an order-0 model of b — its byte histogram —
// predicts that entropy coding saves at least 1/16 of it, and at least
// minProofSaving bytes. It is O(len(b)) and runs no compressor. The
// arithmetic is integer only: the verdict is part of the deterministic
// encode and must not vary with the platform's floating point.
func compressible(b []byte) bool {
	var hist [256]uint64
	for _, c := range b {
		hist[c]++
	}
	// Σ c·log₂(n/c) = n·log₂(n) − Σ c·log₂(c), in 2^-log2Frac bits.
	n := uint64(len(b))
	entropy := n * log2(n)
	for _, c := range hist {
		if c < uint64(len(log2Small)) {
			entropy -= c * log2Small[c]
		} else {
			entropy -= c * log2(c)
		}
	}
	return 16*(entropy+8*codeTableBytes<<log2Frac) <= 15*(8*n<<log2Frac) &&
		entropy+8*(codeTableBytes+minProofSaving)<<log2Frac <= 8*n<<log2Frac
}

// DecodeFrame parses a frame that names no dictionary or carries the one it
// names (Decoding.Frame with none held).
func DecodeFrame(b []byte) (typ byte, raw []byte, err error) { return Decoding{}.Frame(b) }

// Frame parses one complete frame from hostile input, returning the payload
// type and the decompressed message bytes. Every length is validated
// against the real input before allocation, the CRC is checked before any
// decompression, and a dictionary the frame names must be the one it
// carries or one of dec.Held.
func (dec Decoding) Frame(b []byte) (typ byte, raw []byte, err error) {
	typ, _, raw, err = dec.frame(b)
	return typ, raw, err
}

// frame is Frame, reporting too whether the message's hits are tagged.
func (dec Decoding) frame(b []byte) (typ byte, refs bool, raw []byte, err error) {
	if len(b) < HeaderSize {
		return 0, false, nil, frameErr("short frame: %d bytes", len(b))
	}
	if string(b[:4]) != frameMagic {
		return 0, false, nil, frameErr("bad magic")
	}
	if v := b[4]; v != FrameVersion {
		return 0, false, nil, frameErr("unsupported frame version %d (this build speaks %d)", v, FrameVersion)
	}
	switch typ = b[5]; typ {
	case TypeSearch, TypeSharded, TypeManifest:
	default:
		return 0, false, nil, frameErr("unknown payload type %d", typ)
	}
	const known = flagChunked | flagDictNamed | flagDictAttached | flagHeldRefs
	flags := binary.BigEndian.Uint16(b[6:])
	refs = flags&flagHeldRefs != 0
	switch {
	case flags&^known != 0:
		return 0, false, nil, frameErr("unknown flags %#x", flags&^known)
	case flags&flagDictAttached != 0 && flags&flagDictNamed == 0:
		return 0, false, nil, frameErr("a dictionary is attached but not named")
	case flags&flagDictNamed != 0 && flags&flagChunked == 0:
		return 0, false, nil, frameErr("a dictionary is named for a payload without chunks")
	case refs && typ == TypeManifest:
		return 0, false, nil, frameErr("a manifest has no hits to refer to held bodies")
	case refs && dec.Bodies == nil:
		return 0, false, nil, frameErr("the frame refers to held bodies, but its request named none")
	}
	wantCRC := binary.BigEndian.Uint32(b[8:])
	length := binary.BigEndian.Uint64(b[12:])
	if length > MaxPayloadBytes {
		return 0, false, nil, frameErr("payload length %d exceeds cap %d", length, MaxPayloadBytes)
	}
	if uint64(len(b)-HeaderSize) != length {
		return 0, false, nil, frameErr("payload length %d, frame carries %d", length, len(b)-HeaderSize)
	}
	payload := b[HeaderSize:]
	if crc32.Checksum(payload, castagnoli) != wantCRC {
		return 0, false, nil, frameErr("payload fails its CRC (corrupted frame)")
	}
	if flags&flagChunked == 0 {
		return typ, refs, payload, nil
	}
	var d *Dictionary
	if flags&flagDictNamed != 0 {
		if d, payload, err = dec.dictionary(payload, flags&flagDictAttached != 0); err != nil {
			return 0, false, nil, err
		}
	}
	raw, err = inflateChunks(payload, d)
	if err != nil {
		return 0, false, nil, err
	}
	return typ, refs, raw, nil
}

// dictionary reads the dictionary id, and the dictionary when attached, from
// the front of p, and returns the dictionary with the payload that follows.
func (dec Decoding) dictionary(p []byte, attached bool) (*Dictionary, []byte, error) {
	if len(p) < sha256.Size {
		return nil, nil, frameErr("dictionary id cut short")
	}
	id := [sha256.Size]byte(p)
	p = p[sha256.Size:]
	var dict []byte
	if attached {
		if len(p) < 4 {
			return nil, nil, frameErr("dictionary length cut short")
		}
		n := binary.BigEndian.Uint32(p)
		if n > MaxDictionaryBytes {
			dictRefused.Add(1)
			return nil, nil, frameErr("attached dictionary of %d bytes exceeds the %d-byte window", n, MaxDictionaryBytes)
		}
		if uint64(n) > uint64(len(p)-4) {
			return nil, nil, frameErr("attached dictionary of %d bytes runs past the end of the frame", n)
		}
		dict, p = p[4:4+n], p[4+n:]
	}
	d, err := dec.resolve(id, dict, attached)
	return d, p, err
}

// maxDeflateRatio bounds how far deflate can expand its input: a stream
// codes at most 258 bytes per two bits, 1032:1.
const maxDeflateRatio = 1032

// chunk is one entry of a chunk list: n bytes of the message, carried as
// body — those bytes themselves, or a deflate stream when deflated.
type chunk struct {
	n        int
	deflated bool
	body     []byte
}

// nextChunk parses the chunk at the front of p and returns it with what
// follows it. Every length is checked against the bytes actually received:
// a chunk must lie within p, and a deflated one may claim no more than its
// stream can inflate to.
func nextChunk(p []byte) (c chunk, rest []byte, err error) {
	h, k := binary.Uvarint(p)
	if k <= 0 {
		return c, nil, frameErr("bad chunk header")
	}
	p = p[k:]
	n, size := h>>1, h>>1
	if c.deflated = h&1 == 1; c.deflated {
		if size, k = binary.Uvarint(p); k <= 0 {
			return c, nil, frameErr("bad chunk stream length")
		}
		p = p[k:]
	}
	switch {
	case n == 0:
		return c, nil, frameErr("empty chunk")
	case size > uint64(len(p)):
		return c, nil, frameErr("chunk of %d bytes runs past the end of the payload (%d left)", size, len(p))
	case n > MaxPayloadBytes || n > size*maxDeflateRatio:
		return c, nil, frameErr("chunk claims %d bytes from %d", n, size)
	}
	c.n, c.body = int(n), p[:size]
	return c, p[size:], nil
}

// inflateChunks expands a chunk list under MaxPayloadBytes, each deflated
// chunk from d as preset history: one pass over the headers to size the
// message, one to fill it.
func inflateChunks(payload []byte, d *Dictionary) ([]byte, error) {
	total := 0
	for p := payload; len(p) > 0; {
		c, rest, err := nextChunk(p)
		if err != nil {
			return nil, err
		}
		if c.n > MaxPayloadBytes-total {
			return nil, frameErr("decompressed length exceeds cap %d", MaxPayloadBytes)
		}
		total, p = total+c.n, rest
	}
	raw := make([]byte, total)
	for p, pos := payload, 0; len(p) > 0; {
		c, rest, _ := nextChunk(p) // accepted by the first pass
		dst := raw[pos : pos+c.n]
		if !c.deflated {
			copy(dst, c.body)
		} else if err := inflateSection(dst, c.body, d); err != nil {
			return nil, err
		}
		pos, p = pos+c.n, rest
	}
	return raw, nil
}

// Chunk outcomes since process start, behind
// authtext_client_wire_sections_total.
var inflatedMemoHit, inflatedRan atomic.Uint64

// InflateStats counts the deflated chunks of every frame decoded: MemoHit
// copied from the memo, Inflated run through the decompressor (whether or
// not the frame was then accepted). A client whose Inflated keeps pace with
// its hits receives documents that do not recur.
type InflateStats struct{ MemoHit, Inflated uint64 }

// Inflations returns the process-wide chunk counts.
func Inflations() InflateStats {
	return InflateStats{inflatedMemoHit.Load(), inflatedRan.Load()}
}

// inflateSection fills dst with the expansion of one deflated chunk's
// stream against d, from the memo when these exact stream bytes were
// inflated against d before. A memo entry is what a successful standalone
// inflate of the stream produced, so a hit must have the declared length
// too; dst receives a copy, and nothing the caller does to it reaches the
// memo.
func inflateSection(dst, stream []byte, d *Dictionary) error {
	key := memoKey{sum: sha256.Sum256(stream), dict: d.sum()}
	if data, ok := inflateMemo.get(key); ok {
		if len(data) != len(dst) {
			return frameErr("chunk stream inflates to %d bytes, its header claims %d", len(data), len(dst))
		}
		inflatedMemoHit.Add(1)
		copy(dst, data)
		return nil
	}
	inflatedRan.Add(1)
	used, err := inflateChunk(dst, stream, d.preset())
	if err != nil {
		return err
	}
	if used != len(stream) {
		return frameErr("%d bytes after the end of a chunk's deflate stream", len(stream)-used)
	}
	data := make([]byte, len(dst))
	copy(data, dst)
	inflateMemo.put(key, data)
	return nil
}

// inflater is the reusable state of one decompression (a flate reader
// carries a 32 KiB window plus Huffman tables).
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser // also a flate.Resetter
}

var inflaters = sync.Pool{New: func() interface{} {
	i := new(inflater)
	i.fr = flate.NewReader(&i.src)
	return i
}}

// inflateChunk fills dst with the inflation of stream from the preset
// history dict, which must be exactly len(dst) bytes long and end in a final
// block, and returns how many bytes of stream the inflation read: the reader
// takes bytes one at a time from a bytes.Reader, so nothing past the final
// block is consumed.
func inflateChunk(dst, stream, dict []byte) (used int, err error) {
	in := inflaters.Get().(*inflater)
	defer func() {
		in.src.Reset(nil) // a pooled reader must not pin the caller's frame
		inflaters.Put(in)
	}()
	in.src.Reset(stream)
	if err := in.fr.(flate.Resetter).Reset(&in.src, dict); err != nil {
		return 0, frameErr("resetting inflater: %v", err)
	}
	if _, err := io.ReadFull(in.fr, dst); err != nil {
		return 0, frameErr("chunk stream ends before its declared %d bytes: %v", len(dst), err)
	}
	var one [1]byte
	if k, err := in.fr.Read(one[:]); k != 0 || err != io.EOF {
		return 0, frameErr("chunk stream goes on past its declared %d bytes (%v)", len(dst), err)
	}
	return len(stream) - in.src.Len(), nil
}

// f64 round-trips float64 bit patterns exactly (NaN payloads included).
func f64bits(f float64) uint64 { return math.Float64bits(f) }
