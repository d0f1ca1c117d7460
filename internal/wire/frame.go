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
//	4      1   format version (1)
//	5      1   payload type (TypeSearch..TypeManifest)
//	6      2   flags (bit 0: payload is deflate-compressed)
//	8      4   CRC-32C (Castagnoli) of the stored payload bytes
//	12     8   stored payload length
//	20     —   stored payload
//
// A compressed payload is `u64 raw length | deflate stream`; the CRC
// always covers the stored (possibly compressed) bytes, so corruption is
// detected before any decompression work happens. The stream is any RFC
// 1951 stream; this encoder assembles it from independently compressed
// sections (EncodeFrame). Compression is a pure function of the encoded
// message (fixed levels, fixed thresholds, applied only when it shrinks
// the payload), which keeps a server's frame for a given response
// byte-identical across cache hits, misses and replicas — and across
// compressor reuse: a pooled flate.Writer that has been Reset emits the
// same stream as a fresh one at the same level.

// ContentType is the negotiated media type of binary frames. A request
// whose Accept header lists it is answered with a frame; everything else
// gets JSON (docs/PROTOCOL.md "Binary framing").
const ContentType = "application/x-authtext-frame"

// FrameVersion is the frame format version this build speaks.
const FrameVersion = 1

// frameMagic begins every frame.
const frameMagic = "ATWF"

// HeaderSize is the fixed frame header length.
const HeaderSize = 20

// Payload types.
const (
	TypeSearch   byte = 1 // SearchResponse
	TypeBatch    byte = 2 // BatchSearchResponse
	TypeSharded  byte = 3 // ShardedSearchResponse
	TypeManifest byte = 4 // ManifestResponse
)

// flagDeflate marks a deflate-compressed payload.
const flagDeflate uint16 = 1 << 0

// MaxPayloadBytes caps the decoded (decompressed) payload a decoder will
// materialise. It matches the remote clients' response-buffer cap: the
// peer is untrusted, and an inflated length field must not allocate
// beyond real input.
const MaxPayloadBytes = 64 << 20

// compressMin is the smallest raw payload worth attempting to compress.
// Below it the deflate header overhead and the extra length word eat the
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

// EncodeFrame wraps an encoded message payload in a frame, compressing it
// when that pays. The deflate stream is assembled rather than produced in
// one pass: each section is deflated on its own (see sectionStream) and
// everything between sections — query echo, ids, scores, lengths, stats —
// travels in stored blocks. A document is therefore compressed once, not
// once per answer that returns it, and the stream is still plain RFC 1951:
// decoders need nothing new. The raw slice is not retained.
func EncodeFrame(typ byte, raw []byte, secs []section) []byte {
	out := make([]byte, HeaderSize, HeaderSize+len(raw))
	flags := uint16(0)
	if len(raw) >= compressMin {
		out = appendAssembled(out, raw, secs)
		if n := len(out) - HeaderSize; n > 0 && n < len(raw) {
			flags = flagDeflate
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

// appendAssembled appends `u64 raw length | deflate stream` for raw, or
// nothing when no section is worth deflating.
func appendAssembled(out, raw []byte, secs []section) []byte {
	glue := 0     // raw[glue:] is still to be written
	open := false // the stream so far ends in a stored-block header awaiting LEN/NLEN
	for _, s := range secs {
		stream := sectionStream(raw[s.off:s.end], s.vo)
		if stream == nil {
			continue // travels with the glue around it
		}
		if !open {
			out = binary.BigEndian.AppendUint64(out, uint64(len(raw)))
		}
		out = appendStored(out, raw[glue:s.off], open)
		out = append(out, stream...)
		glue, open = s.end, true
	}
	if !open {
		return out
	}
	out = appendStored(out, raw[glue:], true)
	return append(out, 0x03, 0x00) // final block: fixed codes, end-of-block and nothing else
}

// appendStored writes b as byte-aligned stored blocks of at most 65 535
// bytes. With open set the first block's header byte is already there, so
// its LEN/NLEN is written even when b is empty.
func appendStored(out, b []byte, open bool) []byte {
	for open || len(b) > 0 {
		if !open {
			out = append(out, 0x00) // BFINAL 0, BTYPE 00, padding
		}
		n := min(len(b), math.MaxUint16)
		out = binary.LittleEndian.AppendUint16(out, uint16(n))
		out = binary.LittleEndian.AppendUint16(out, ^uint16(n))
		out = append(out, b[:n]...)
		b, open = b[n:], false
	}
	return out
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

// sectionStream returns the deflate stream that stands for sec inside an
// assembled payload, or nil when sec is better left in stored blocks. The
// stream starts from an empty history and ends, byte-aligned, in the header
// of a stored block whose LEN/NLEN the glue that follows supplies, so it
// reads the same wherever it is copied. The verdict and the bytes depend on
// (sec, vo) alone, which is what keeps a frame a pure function of its
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
	stream, ok := memoGet(key)
	if ok {
		sectionsMemoHit.Add(1)
		return stream
	}
	sectionsDeflated.Add(1)
	if stream = deflateSection(sec, level); len(stream)+syncTail >= len(sec) {
		stream = nil // compression does not pay
	}
	memoPut(key, stream)
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

// deflateSection compresses sec from an empty history and sync-flushes,
// returning the stream without its syncTail in a fresh exact-size slice.
// Writes into a bytes.Buffer cannot fail, so neither can the compression.
func deflateSection(sec []byte, level int) []byte {
	d, _ := deflaters[level].Get().(*deflater)
	if d == nil {
		d = new(deflater)
		d.fw, _ = flate.NewWriter(&d.buf, level) // errs only on an invalid level
	}
	defer deflaters[level].Put(d)
	d.buf.Reset()
	d.fw.Reset(&d.buf)
	d.fw.Write(sec)
	d.fw.Flush()
	out := make([]byte, d.buf.Len()-syncTail)
	copy(out, d.buf.Bytes())
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
	typ = b[5]
	if typ < TypeSearch || typ > TypeManifest {
		return 0, nil, frameErr("unknown payload type %d", typ)
	}
	flags := binary.BigEndian.Uint16(b[6:])
	if flags&^flagDeflate != 0 {
		return 0, nil, frameErr("unknown flags %#x", flags&^flagDeflate)
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
	if flags&flagDeflate == 0 {
		return typ, payload, nil
	}
	raw, err = inflatePayload(payload)
	if err != nil {
		return 0, nil, err
	}
	return typ, raw, nil
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

// maxDeflateRatio bounds how far deflate can expand its input: a stream
// codes at most 258 bytes per two bits, 1032:1.
const maxDeflateRatio = 1032

// inflatePayload reverses deflatePayload under MaxPayloadBytes.
func inflatePayload(payload []byte) ([]byte, error) {
	if len(payload) < 8 {
		return nil, frameErr("truncated compressed payload")
	}
	rawLen := binary.BigEndian.Uint64(payload)
	if rawLen > MaxPayloadBytes {
		return nil, frameErr("decompressed length %d exceeds cap %d", rawLen, MaxPayloadBytes)
	}
	stream := payload[8:]
	in := inflaters.Get().(*inflater)
	defer func() {
		in.src.Reset(nil) // a pooled reader must not pin the caller's frame
		inflaters.Put(in)
	}()
	in.src.Reset(stream)
	if err := in.fr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return nil, frameErr("resetting inflater: %v", err)
	}
	// The length prefix is the peer's claim: allocate for it only as far
	// as the bytes actually received could inflate, and let the copy grow
	// the buffer if the stream really is that dense. MinRead of slack
	// lets bytes.Buffer see EOF without reallocating an exact-size fit.
	capHint := rawLen
	if most := uint64(len(stream)) * maxDeflateRatio; capHint > most {
		capHint = most
	}
	buf := bytes.NewBuffer(make([]byte, 0, capHint+bytes.MinRead))
	// Read one byte past the declared length so a stream that disagrees
	// with its own prefix is rejected instead of silently truncated.
	if _, err := io.Copy(buf, io.LimitReader(in.fr, int64(rawLen)+1)); err != nil {
		return nil, frameErr("corrupt deflate stream: %v", err)
	}
	if uint64(buf.Len()) != rawLen {
		return nil, frameErr("decompressed to %d bytes, prefix claims %d", buf.Len(), rawLen)
	}
	return buf.Bytes(), nil
}

// f64 round-trips float64 bit patterns exactly (NaN payloads included).
func f64bits(f float64) uint64 { return math.Float64bits(f) }
