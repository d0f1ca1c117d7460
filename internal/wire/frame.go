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
	"sync"
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
// detected before any decompression work happens. Compression is a pure
// function of the encoded message (fixed level, fixed threshold, applied
// only when it shrinks the payload), which keeps a server's frame for a
// given response byte-identical across cache hits, misses and replicas —
// and across compressor reuse: a pooled flate.Writer that has been Reset
// emits the same stream as a fresh one at the same level.

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

// EncodeFrame wraps an encoded message payload in a frame, compressing it
// when that pays. Compression results are memoised by payload hash (see
// memo.go), so replaying a hot answer costs a hash, not a deflate. The
// raw slice is not retained.
func EncodeFrame(typ byte, raw []byte) []byte {
	payload, flags := raw, uint16(0)
	if len(raw) >= compressMin {
		key := sha256.Sum256(raw)
		c, ok := memoGet(key)
		if !ok {
			if c = deflatePayload(raw); len(c) >= len(raw) {
				c = nil // compression does not pay
			}
			memoPut(key, c)
		}
		if c != nil {
			payload, flags = c, flagDeflate
		}
	}
	out := make([]byte, 0, HeaderSize+len(payload))
	out = append(out, frameMagic...)
	out = append(out, FrameVersion, typ)
	out = binary.BigEndian.AppendUint16(out, flags)
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	return append(out, payload...)
}

// deflater is the reusable state of one compression: flate.NewWriter
// allocates and zeroes over a megabyte of match tables, two orders of
// magnitude more than a typical answer, so writers (and their output
// buffers) are pooled and Reset instead. BestSpeed keeps the server-side
// encode cost near memcpy rates while still roughly halving text-heavy
// payloads.
type deflater struct {
	buf bytes.Buffer
	fw  *flate.Writer
}

var deflaters = sync.Pool{New: func() interface{} {
	d := new(deflater)
	d.fw, _ = flate.NewWriter(&d.buf, flate.BestSpeed) // errs only on an invalid level
	return d
}}

// deflatePayload compresses raw behind a u64 raw-length prefix into a
// fresh exact-size slice. Writes into a bytes.Buffer cannot fail, so
// neither can the compression.
func deflatePayload(raw []byte) []byte {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	d.buf.Reset()
	d.fw.Reset(&d.buf)
	var lenPrefix [8]byte
	binary.BigEndian.PutUint64(lenPrefix[:], uint64(len(raw)))
	d.buf.Write(lenPrefix[:])
	d.fw.Write(raw)
	d.fw.Close()
	out := make([]byte, d.buf.Len())
	copy(out, d.buf.Bytes())
	return out
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

// ReadFrame reads one frame from a stream (header first, then exactly the
// declared payload), for transports that cannot slice a complete buffer.
// The same caps and checks as DecodeFrame apply.
func ReadFrame(r io.Reader) (typ byte, raw []byte, err error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, frameErr("reading header: %v", err)
	}
	length := binary.BigEndian.Uint64(hdr[12:])
	if length > MaxPayloadBytes {
		return 0, nil, frameErr("payload length %d exceeds cap %d", length, MaxPayloadBytes)
	}
	frame := make([]byte, 0, HeaderSize+int(length))
	frame = append(frame, hdr[:]...)
	// Chunked reads bound allocation to real input even though length is
	// already capped: a one-packet attacker cannot make us commit 64 MB.
	const chunk = 1 << 20
	for uint64(len(frame)-HeaderSize) < length {
		take := length - uint64(len(frame)-HeaderSize)
		if take > chunk {
			take = chunk
		}
		old := len(frame)
		frame = append(frame, make([]byte, take)...)
		if _, err := io.ReadFull(r, frame[old:]); err != nil {
			return 0, nil, frameErr("truncated payload: %v", err)
		}
	}
	return DecodeFrame(frame)
}

// f64 round-trips float64 bit patterns exactly (NaN payloads included).
func f64bits(f float64) uint64 { return math.Float64bits(f) }
