package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Message codecs: canonical binary encodings of the response types. All
// integers are big-endian; byte strings carry a u32 length prefix; counts
// are validated against the remaining input before any allocation, so a
// hostile length field cannot force a large allocation it has not paid
// for in real bytes. Every encoder is deterministic — same value, same
// bytes — which the VO-cache byte-identity guarantee depends on.

// Per-message layout (see docs/PROTOCOL.md "Binary framing"):
//
//	SearchResponse:  str query | u32 r | str algo | str scheme |
//	                 u64 generation | u32 nhits ·{ u64 doc_id | f64 score |
//	                 bytes content } | bytes vo | SearchStats
//	SearchStats:     u32 query_terms | u32 entries_read | f64 per_term |
//	                 f64 pct_read | u64 block_reads | u64 random_reads |
//	                 f64 io_millis | u32 vo_bytes | f64 server_millis
//	Sharded:         str query | u32 r | str algo | str scheme |
//	                 u64 generation | u32 nshards ·SearchResponse |
//	                 u32 nmerged ·{ u32 shard | u64 doc_id | u64 global_id |
//	                 f64 score } | ShardedSearchStats
//	ShardedStats:    u32 shards | u32 entries_read | u32 vo_bytes |
//	                 f64 io_millis | f64 server_millis
//	Manifest:        str format | bytes export

// ErrDecode reports a structurally invalid message payload (the frame
// itself was intact). Like ErrFrame it indicates a peer speaking garbage,
// which verifying clients treat as tampering.
var ErrDecode = errors.New("wire: bad message")

func decodeErr(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrDecode, fmt.Sprintf(format, args...))
}

// --- encoding ---

func appendStr(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// appendSection appends a u32-prefixed byte string and notes where it lands
// in the payload: the frame encoder compresses each one on its own
// (frame.go). vo marks a proof, as opposed to a document body or export.
func appendSection(b []byte, secs *[]section, v []byte, vo bool) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	*secs = append(*secs, section{off: len(b), end: len(b) + len(v), vo: vo})
	return append(b, v...)
}

func appendSearchStats(b []byte, st *SearchStats) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(st.QueryTerms))
	b = binary.BigEndian.AppendUint32(b, uint32(st.EntriesRead))
	b = binary.BigEndian.AppendUint64(b, f64bits(st.EntriesPerTerm))
	b = binary.BigEndian.AppendUint64(b, f64bits(st.PctListRead))
	b = binary.BigEndian.AppendUint64(b, uint64(st.BlockReads))
	b = binary.BigEndian.AppendUint64(b, uint64(st.RandomReads))
	b = binary.BigEndian.AppendUint64(b, f64bits(st.IOMillis))
	b = binary.BigEndian.AppendUint32(b, uint32(st.VOBytes))
	b = binary.BigEndian.AppendUint64(b, f64bits(st.ServerMillis))
	return b
}

func appendSearchResponse(b []byte, secs *[]section, r *SearchResponse) []byte {
	b = appendStr(b, r.Query)
	b = binary.BigEndian.AppendUint32(b, uint32(r.R))
	b = appendStr(b, r.Algo)
	b = appendStr(b, r.Scheme)
	b = binary.BigEndian.AppendUint64(b, r.Generation)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Hits)))
	for i := range r.Hits {
		h := &r.Hits[i]
		b = binary.BigEndian.AppendUint64(b, uint64(int64(h.DocID)))
		b = binary.BigEndian.AppendUint64(b, f64bits(h.Score))
		b = appendSection(b, secs, h.Content, false)
	}
	b = appendSection(b, secs, r.VO, true)
	return appendSearchStats(b, &r.Stats)
}

// EncodeSearchResponse frames one search answer.
func EncodeSearchResponse(r *SearchResponse) []byte {
	size := 256 + len(r.Query) + len(r.VO) // the fixed fields, generously
	for i := range r.Hits {
		size += minHitBytes + len(r.Hits[i].Content)
	}
	secs := make([]section, 0, len(r.Hits)+1)
	return EncodeFrame(TypeSearch, appendSearchResponse(make([]byte, 0, size), &secs, r), secs)
}

// EncodeShardedSearchResponse frames one fan-out answer.
func EncodeShardedSearchResponse(r *ShardedSearchResponse) []byte {
	var secs []section
	b := appendStr(nil, r.Query)
	b = binary.BigEndian.AppendUint32(b, uint32(r.R))
	b = appendStr(b, r.Algo)
	b = appendStr(b, r.Scheme)
	b = binary.BigEndian.AppendUint64(b, r.Generation)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Shards)))
	for i := range r.Shards {
		b = appendSearchResponse(b, &secs, &r.Shards[i])
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Merged)))
	for i := range r.Merged {
		m := &r.Merged[i]
		b = binary.BigEndian.AppendUint32(b, uint32(m.Shard))
		b = binary.BigEndian.AppendUint64(b, uint64(int64(m.DocID)))
		b = binary.BigEndian.AppendUint64(b, uint64(int64(m.GlobalID)))
		b = binary.BigEndian.AppendUint64(b, f64bits(m.Score))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(r.Stats.Shards))
	b = binary.BigEndian.AppendUint32(b, uint32(r.Stats.EntriesRead))
	b = binary.BigEndian.AppendUint32(b, uint32(r.Stats.VOBytes))
	b = binary.BigEndian.AppendUint64(b, f64bits(r.Stats.IOMillis))
	b = binary.BigEndian.AppendUint64(b, f64bits(r.Stats.ServerMillis))
	return EncodeFrame(TypeSharded, b, secs)
}

// EncodeManifestResponse frames the verification-material bootstrap.
func EncodeManifestResponse(r *ManifestResponse) []byte {
	var secs []section
	b := appendStr(nil, r.Format)
	b = appendSection(b, &secs, r.Export, false)
	return EncodeFrame(TypeManifest, b, secs)
}

// --- decoding ---

// reader is a bounds-checked cursor over a message payload. Errors
// accumulate; finish reports the first one (or trailing garbage).
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = decodeErr(format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("truncated message")
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *reader) u32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}

func (r *reader) u64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// int32v decodes a u32 that must fit a non-negative int.
func (r *reader) int32v() int {
	v := r.u32()
	if v > math.MaxInt32 {
		r.fail("count %d out of range", v)
		return 0
	}
	return int(v)
}

// int64v decodes a u64 carrying an int64 that must be non-negative and
// fit the platform int.
func (r *reader) int64v() int {
	v := int64(r.u64())
	if v < 0 || uint64(v) > math.MaxInt {
		r.fail("value %d out of range", v)
		return 0
	}
	return int(v)
}

func (r *reader) str() string { return string(r.take(r.int32v())) }

// bytesv decodes a u32-prefixed byte string. The result aliases the
// payload (which the decoders own), avoiding a copy of contents and VOs.
func (r *reader) bytesv() []byte {
	v := r.take(r.int32v())
	if v == nil || len(v) == 0 {
		return nil
	}
	return v
}

// count validates an element count against the remaining bytes at a
// minimum encoded width per element, before any slice allocation.
func (r *reader) count(minWidth int) int {
	n := r.int32v()
	if r.err != nil {
		return 0
	}
	if n > (len(r.b)-r.off)/minWidth {
		r.fail("count %d exceeds remaining payload", n)
		return 0
	}
	return n
}

func (r *reader) searchStats(st *SearchStats) {
	st.QueryTerms = r.int32v()
	st.EntriesRead = r.int32v()
	st.EntriesPerTerm = r.f64()
	st.PctListRead = r.f64()
	st.BlockReads = int64(r.u64())
	st.RandomReads = int64(r.u64())
	st.IOMillis = r.f64()
	st.VOBytes = r.int32v()
	st.ServerMillis = r.f64()
}

// minHitBytes is the smallest encoded Hit (empty content).
const minHitBytes = 8 + 8 + 4

func (r *reader) searchResponse(out *SearchResponse) {
	out.Query = r.str()
	out.R = r.int32v()
	out.Algo = r.str()
	out.Scheme = r.str()
	out.Generation = r.u64()
	n := r.count(minHitBytes)
	if r.err != nil {
		return
	}
	if n > 0 { // zero-count fields stay nil, mirroring the encoder's input
		out.Hits = make([]Hit, n)
		for i := range out.Hits {
			out.Hits[i].DocID = r.int64v()
			out.Hits[i].Score = r.f64()
			out.Hits[i].Content = r.bytesv()
		}
	}
	out.VO = r.bytesv()
	r.searchStats(&out.Stats)
}

func (r *reader) finish(what string) error {
	if r.err != nil {
		return fmt.Errorf("%w (%s)", r.err, what)
	}
	if r.off != len(r.b) {
		return decodeErr("%s: %d trailing bytes", what, len(r.b)-r.off)
	}
	return nil
}

// DecodeSearchResponse parses an EncodeSearchResponse frame.
func DecodeSearchResponse(frame []byte) (*SearchResponse, error) {
	raw, err := framePayload(frame, TypeSearch)
	if err != nil {
		return nil, err
	}
	r := reader{b: raw}
	out := &SearchResponse{}
	r.searchResponse(out)
	if err := r.finish("search response"); err != nil {
		return nil, err
	}
	return out, nil
}

// minShardBytes is the smallest encoded SearchResponse (all fields empty).
const minShardBytes = 4 + 4 + 4 + 4 + 8 + 4 + 4 + (4 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 8)

// DecodeShardedSearchResponse parses an EncodeShardedSearchResponse frame.
func DecodeShardedSearchResponse(frame []byte) (*ShardedSearchResponse, error) {
	raw, err := framePayload(frame, TypeSharded)
	if err != nil {
		return nil, err
	}
	r := reader{b: raw}
	out := &ShardedSearchResponse{}
	out.Query = r.str()
	out.R = r.int32v()
	out.Algo = r.str()
	out.Scheme = r.str()
	out.Generation = r.u64()
	if n := r.count(minShardBytes); r.err == nil && n > 0 {
		out.Shards = make([]SearchResponse, n)
		for i := range out.Shards {
			r.searchResponse(&out.Shards[i])
			if r.err != nil {
				break
			}
		}
	}
	if n := r.count(4 + 8 + 8 + 8); r.err == nil && n > 0 {
		out.Merged = make([]MergedHit, n)
		for i := range out.Merged {
			out.Merged[i].Shard = r.int32v()
			out.Merged[i].DocID = r.int64v()
			out.Merged[i].GlobalID = r.int64v()
			out.Merged[i].Score = r.f64()
		}
	}
	out.Stats.Shards = r.int32v()
	out.Stats.EntriesRead = r.int32v()
	out.Stats.VOBytes = r.int32v()
	out.Stats.IOMillis = r.f64()
	out.Stats.ServerMillis = r.f64()
	if err := r.finish("sharded response"); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeManifestResponse parses an EncodeManifestResponse frame.
func DecodeManifestResponse(frame []byte) (*ManifestResponse, error) {
	raw, err := framePayload(frame, TypeManifest)
	if err != nil {
		return nil, err
	}
	r := reader{b: raw}
	out := &ManifestResponse{}
	out.Format = r.str()
	out.Export = r.bytesv()
	if err := r.finish("manifest response"); err != nil {
		return nil, err
	}
	return out, nil
}

// framePayload decodes a frame and checks its payload type.
func framePayload(frame []byte, want byte) ([]byte, error) {
	typ, raw, err := DecodeFrame(frame)
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, decodeErr("payload type %d, want %d", typ, want)
	}
	return raw, nil
}
