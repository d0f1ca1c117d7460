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
//	4      1   format version (2)
//	5      1   payload type (TypeSearch, TypeSharded, TypeManifest)
//	6      2   flags (bit 0: payload is a chunk list)
//	8      4   CRC-32C (Castagnoli) of the stored payload bytes
//	12     8   stored payload length
//	20     —   stored payload
//
// A chunked payload is a list of chunks whose expansions, concatenated, are
// the message. A chunk starts with uvarint(n<<1 | d), n ≥ 1 the length of its
// expansion: with d = 0, n stored bytes follow; with d = 1, uvarint(m)
// follows, then m bytes of one complete RFC 1951 stream that starts from an
// empty history, ends exactly at the chunk's end and inflates to exactly n
// bytes. The encoder deflates each section — document body, manifest export,
// proof — as its own chunk and stores everything between them (query echo,
// ids, scores, lengths, stats), so a stream depends on its section alone and
// a client can remember what it inflated to. The CRC always covers the stored
// bytes, so corruption is detected before any decompression work happens.
// Compression is a pure function of the encoded message (fixed levels, fixed
// thresholds, applied only when it shrinks the payload), which keeps a
// server's frame for a given response byte-identical across cache hits,
// misses and replicas — and across compressor reuse: a pooled flate.Writer
// that has been Reset emits the same stream as a fresh one at the same level.

// ContentType is the negotiated media type of binary frames. A request
// whose Accept header lists it is answered with a frame; everything else
// gets JSON (docs/PROTOCOL.md "Binary framing"). It names the frame version:
// a server that does not speak this version does not recognise the type and
// answers JSON, so the two ends never disagree about a frame.
const ContentType = "application/x-authtext-frame-v2"

// FrameVersion is the frame format version this build speaks.
const FrameVersion = 2

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

// flagChunked marks a payload carried as a chunk list.
const flagChunked uint16 = 1 << 0

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

// EncodeFrame wraps an encoded message payload in a frame, as a chunk list
// when that pays: each section is deflated on its own (see sectionStream),
// so a document is compressed once, not once per answer that returns it.
// The raw slice is not retained.
func EncodeFrame(typ byte, raw []byte, secs []section) []byte {
	// Room for every stored chunk's header too: a chunk list that ends up no
	// smaller than raw is dropped, but must not regrow the buffer first.
	out := make([]byte, HeaderSize, HeaderSize+len(raw)+(len(secs)+1)*binary.MaxVarintLen32)
	flags := uint16(0)
	if len(raw) >= compressMin {
		out = appendChunks(out, raw, secs)
		if n := len(out) - HeaderSize; n > 0 && n < len(raw) {
			flags = flagChunked
		}
	}
	if flags == 0 {
		out = append(out[:HeaderSize], raw...)
	}
	payload := out[HeaderSize:]
	copy(out, frameMagic)
	out[4], out[5] = FrameVersion, typ
	binary.BigEndian.PutUint16(out[6:], flags)
	binary.BigEndian.PutUint32(out[8:], crc32.Checksum(payload, castagnoli))
	binary.BigEndian.PutUint64(out[12:], uint64(len(payload)))
	return out
}

// appendChunks appends raw as a chunk list, or nothing when no section is
// worth deflating.
func appendChunks(out, raw []byte, secs []section) []byte {
	glue, chunked := 0, false // raw[glue:] is still to be written
	for _, s := range secs {
		stream := sectionStream(raw[s.off:s.end], s.vo)
		if stream == nil {
			continue // travels with the glue around it
		}
		out = appendStoredChunk(out, raw[glue:s.off])
		out = binary.AppendUvarint(out, uint64(s.end-s.off)<<1|1)
		out = binary.AppendUvarint(out, uint64(len(stream)))
		out = append(out, stream...)
		glue, chunked = s.end, true
	}
	if !chunked {
		return out
	}
	return appendStoredChunk(out, raw[glue:])
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
// on (sec, vo) alone, which is what keeps a frame a pure function of its
// message: bodies and exports recur across answers and are compressed once,
// at BestCompression; a proof is mostly digests and signatures, is deflated
// at BestSpeed, and only when its byte histogram says that can pay.
func sectionStream(sec []byte, vo bool) []byte {
	if len(sec) == 0 {
		return nil
	}
	level := flate.BestCompression
	if vo {
		if !compressible(sec) {
			sectionsStored.Add(1)
			return nil
		}
		level = flate.BestSpeed
	}
	key := memoKey{sha256.Sum256(sec), level}
	stream, ok := deflateMemo.get(key)
	if ok {
		sectionsMemoHit.Add(1)
		return stream
	}
	sectionsDeflated.Add(1)
	if stream = deflateSection(sec, level, !vo); len(stream)+chunkOverhead >= len(sec) {
		stream = nil // compression does not pay
	}
	deflateMemo.put(key, stream)
	return stream
}

// deflater is the reusable state of one compression: flate.NewWriter
// allocates and zeroes a megabyte of match tables at any level, three
// orders of magnitude more than a typical section, so writers (and their
// output buffers) are pooled per level and Reset instead.
type deflater struct {
	buf bytes.Buffer
	fw  *flate.Writer
}

var deflaters [flate.BestCompression + 1]sync.Pool // by level

// deflateSection compresses sec from an empty history into one complete
// stream, returned in a fresh exact-size slice.
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
func deflateSection(sec []byte, level int, cut bool) []byte {
	if !cut {
		return compress(sec, level, false)
	}
	stream := compress(sec, level, true)
	check := make([]byte, len(sec))
	if used, err := inflateChunk(check, stream); err == nil && bytes.Equal(check, sec) {
		return stream[:used:used] // a block ending on a byte boundary leaves the cut header's byte behind
	}
	return compress(sec, level, false)
}

// compress runs sec through a pooled writer at level and returns a copy of
// the stream: closed, or sync-flushed with its first block marked final and
// the empty stored block's LEN/NLEN cut. The writer goes back to the pool
// before the caller looks at the stream. Writes into a bytes.Buffer cannot
// fail, so neither can the compression.
func compress(sec []byte, level int, cut bool) []byte {
	d, _ := deflaters[level].Get().(*deflater)
	if d == nil {
		d = new(deflater)
		d.fw, _ = flate.NewWriter(&d.buf, level) // errs only on an invalid level
	}
	defer deflaters[level].Put(d)
	d.buf.Reset()
	d.fw.Reset(&d.buf)
	d.fw.Write(sec)
	var stream []byte
	if cut {
		d.fw.Flush()
		stream = d.buf.Bytes()[:d.buf.Len()-syncTail]
		stream[0] |= 1 // BFINAL of the first block
	} else {
		d.fw.Close()
		stream = d.buf.Bytes()
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

// compressible reports whether an order-0 model of b — its byte histogram —
// predicts that entropy coding saves at least 1/16 of it. It is O(len(b))
// and runs no compressor. The arithmetic is integer only: the verdict is
// part of the deterministic encode and must not vary with the platform's
// floating point.
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
	return 16*(entropy+8*codeTableBytes<<log2Frac) <= 15*(8*n<<log2Frac)
}

// DecodeFrame parses one complete frame from hostile input, returning the
// payload type and the decompressed message bytes. Every length is
// validated against the real input before allocation, and the CRC is
// checked before any decompression.
func DecodeFrame(b []byte) (typ byte, raw []byte, err error) {
	if len(b) < HeaderSize {
		return 0, nil, frameErr("short frame: %d bytes", len(b))
	}
	if string(b[:4]) != frameMagic {
		return 0, nil, frameErr("bad magic")
	}
	if v := b[4]; v != FrameVersion {
		return 0, nil, frameErr("unsupported frame version %d (this build speaks %d)", v, FrameVersion)
	}
	switch typ = b[5]; typ {
	case TypeSearch, TypeSharded, TypeManifest:
	default:
		return 0, nil, frameErr("unknown payload type %d", typ)
	}
	flags := binary.BigEndian.Uint16(b[6:])
	if flags&^flagChunked != 0 {
		return 0, nil, frameErr("unknown flags %#x", flags&^flagChunked)
	}
	wantCRC := binary.BigEndian.Uint32(b[8:])
	length := binary.BigEndian.Uint64(b[12:])
	if length > MaxPayloadBytes {
		return 0, nil, frameErr("payload length %d exceeds cap %d", length, MaxPayloadBytes)
	}
	if uint64(len(b)-HeaderSize) != length {
		return 0, nil, frameErr("payload length %d, frame carries %d", length, len(b)-HeaderSize)
	}
	payload := b[HeaderSize:]
	if crc32.Checksum(payload, castagnoli) != wantCRC {
		return 0, nil, frameErr("payload fails its CRC (corrupted frame)")
	}
	if flags&flagChunked == 0 {
		return typ, payload, nil
	}
	raw, err = inflateChunks(payload)
	if err != nil {
		return 0, nil, err
	}
	return typ, raw, nil
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

// inflateChunks expands a chunk list under MaxPayloadBytes: one pass over the
// headers to size the message, one to fill it.
func inflateChunks(payload []byte) ([]byte, error) {
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
		} else if err := inflateSection(dst, c.body); err != nil {
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
// stream, from the memo when these exact stream bytes were inflated before.
// A memo entry is what a successful standalone inflate of the stream
// produced, so a hit must have the declared length too; dst receives a copy,
// and nothing the caller does to it reaches the memo.
func inflateSection(dst, stream []byte) error {
	key := memoKey{sum: sha256.Sum256(stream)}
	if data, ok := inflateMemo.get(key); ok {
		if len(data) != len(dst) {
			return frameErr("chunk stream inflates to %d bytes, its header claims %d", len(data), len(dst))
		}
		inflatedMemoHit.Add(1)
		copy(dst, data)
		return nil
	}
	inflatedRan.Add(1)
	used, err := inflateChunk(dst, stream)
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

// inflateChunk fills dst with the inflation of stream, which must be exactly
// len(dst) bytes long and end in a final block, and returns how many bytes
// of stream the inflation read: the reader takes bytes one at a time from a
// bytes.Reader, so nothing past the final block is consumed.
func inflateChunk(dst, stream []byte) (used int, err error) {
	in := inflaters.Get().(*inflater)
	defer func() {
		in.src.Reset(nil) // a pooled reader must not pin the caller's frame
		inflaters.Put(in)
	}()
	in.src.Reset(stream)
	if err := in.fr.(flate.Resetter).Reset(&in.src, nil); err != nil {
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
