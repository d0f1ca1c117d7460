package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"authtext/internal/binx"
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
//	Manifest:        str format | bytes export [| bytes cap]
//	                 (the cap, non-empty, only when the response has one)

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

// searchResponseSize is what r encodes to, generously: the fixed fields,
// the hits and the proof.
func searchResponseSize(r *SearchResponse) int {
	size := 256 + len(r.Query) + len(r.VO)
	for i := range r.Hits {
		size += minHitBytes + len(r.Hits[i].Content)
	}
	return size
}

// EncodeSearchResponse frames one search answer with no dictionary.
func EncodeSearchResponse(r *SearchResponse) []byte { return Encoding{}.SearchResponse(r) }

// SearchResponse frames one search answer.
func (e Encoding) SearchResponse(r *SearchResponse) []byte {
	secs := make([]section, 0, len(r.Hits)+1)
	return e.frame(TypeSearch, appendSearchResponse(make([]byte, 0, searchResponseSize(r)), &secs, r), secs)
}

// ShardedSearchResponse frames one fan-out answer.
func (e Encoding) ShardedSearchResponse(r *ShardedSearchResponse) []byte {
	size, nsecs := 256+len(r.Query)+len(r.Merged)*(4+8+8+8), 0
	for i := range r.Shards {
		size += searchResponseSize(&r.Shards[i])
		nsecs += len(r.Shards[i].Hits) + 1
	}
	secs := make([]section, 0, nsecs)
	b := appendStr(make([]byte, 0, size), r.Query)
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
	return e.frame(TypeSharded, b, secs)
}

// EncodeManifestResponse frames the verification-material bootstrap. An
// export is no document body: it deflates from an empty history. A cap is
// digests, which do not deflate: it travels stored.
func EncodeManifestResponse(r *ManifestResponse) []byte {
	var secs []section
	b := appendStr(nil, r.Format)
	b = appendSection(b, &secs, r.Export, false)
	if len(r.Cap) > 0 {
		b = binary.BigEndian.AppendUint32(b, uint32(len(r.Cap)))
		b = append(b, r.Cap...)
	}
	return Encoding{}.frame(TypeManifest, b, secs)
}

// --- decoding ---

// int32v decodes a u32 that must fit a non-negative int32.
func int32v(r *binx.Reader) int {
	v := r.U32()
	if v > math.MaxInt32 {
		r.Fail(fmt.Errorf("count %d out of range", v))
		return 0
	}
	return int(v)
}

// int64v decodes a u64 carrying an int64 that must be non-negative and
// fit the platform int.
func int64v(r *binx.Reader) int {
	v := int64(r.U64())
	if v < 0 || uint64(v) > math.MaxInt {
		r.Fail(fmt.Errorf("value %d out of range", v))
		return 0
	}
	return int(v)
}

func str(r *binx.Reader) string { return string(r.Take(int32v(r))) }

// bytesv decodes a u32-prefixed byte string. The result aliases the
// payload (which the decoders own), avoiding a copy of contents and VOs,
// and is capacity-capped like every binx slice: appending to one field
// reallocates instead of writing over the next.
func bytesv(r *binx.Reader) []byte {
	if v := r.Take(int32v(r)); len(v) > 0 {
		return v
	}
	return nil
}

// count decodes an element count and validates it against the remaining
// bytes at a minimum encoded width per element, before any allocation.
func count(r *binx.Reader, minWidth int) int { return r.Count(int32v(r), minWidth) }

func searchStats(r *binx.Reader, st *SearchStats) {
	st.QueryTerms = int32v(r)
	st.EntriesRead = int32v(r)
	st.EntriesPerTerm = r.F64()
	st.PctListRead = r.F64()
	st.BlockReads = int64(r.U64())
	st.RandomReads = int64(r.U64())
	st.IOMillis = r.F64()
	st.VOBytes = int32v(r)
	st.ServerMillis = r.F64()
}

// minHitBytes is the smallest encoded Hit (empty content).
const minHitBytes = 8 + 8 + 4

func searchResponse(r *binx.Reader, out *SearchResponse) {
	out.Query = str(r)
	out.R = int32v(r)
	out.Algo = str(r)
	out.Scheme = str(r)
	out.Generation = r.U64()
	// Zero-count fields stay nil, mirroring the encoder's input.
	if n := count(r, minHitBytes); n > 0 {
		out.Hits = make([]Hit, n)
		for i := range out.Hits {
			out.Hits[i].DocID = int64v(r)
			out.Hits[i].Score = r.F64()
			out.Hits[i].Content = bytesv(r)
		}
	}
	out.VO = bytesv(r)
	searchStats(r, &out.Stats)
}

// finish reports the first failure, or trailing bytes, as an ErrDecode.
func finish(r *binx.Reader, what string) error {
	if err := r.Done(); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrDecode, what, err)
	}
	return nil
}

// DecodeSearchResponse parses a search frame that names no dictionary or
// carries the one it names.
func DecodeSearchResponse(frame []byte) (*SearchResponse, error) {
	return Decoding{}.SearchResponse(frame)
}

// SearchResponse parses a search frame.
func (dec Decoding) SearchResponse(frame []byte) (*SearchResponse, error) {
	raw, err := dec.payload(frame, TypeSearch)
	if err != nil {
		return nil, err
	}
	r := binx.NewReader(raw)
	out := &SearchResponse{}
	searchResponse(&r, out)
	if err := finish(&r, "search response"); err != nil {
		return nil, err
	}
	return out, nil
}

// minShardBytes is the smallest encoded SearchResponse (all fields empty).
const minShardBytes = 4 + 4 + 4 + 4 + 8 + 4 + 4 + (4 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 8)

// ShardedSearchResponse parses a fan-out frame.
func (dec Decoding) ShardedSearchResponse(frame []byte) (*ShardedSearchResponse, error) {
	raw, err := dec.payload(frame, TypeSharded)
	if err != nil {
		return nil, err
	}
	r := binx.NewReader(raw)
	out := &ShardedSearchResponse{}
	out.Query = str(&r)
	out.R = int32v(&r)
	out.Algo = str(&r)
	out.Scheme = str(&r)
	out.Generation = r.U64()
	if n := count(&r, minShardBytes); n > 0 {
		out.Shards = make([]SearchResponse, n)
		for i := range out.Shards {
			searchResponse(&r, &out.Shards[i])
		}
	}
	if n := count(&r, 4+8+8+8); n > 0 {
		out.Merged = make([]MergedHit, n)
		for i := range out.Merged {
			out.Merged[i].Shard = int32v(&r)
			out.Merged[i].DocID = int64v(&r)
			out.Merged[i].GlobalID = int64v(&r)
			out.Merged[i].Score = r.F64()
		}
	}
	out.Stats.Shards = int32v(&r)
	out.Stats.EntriesRead = int32v(&r)
	out.Stats.VOBytes = int32v(&r)
	out.Stats.IOMillis = r.F64()
	out.Stats.ServerMillis = r.F64()
	if err := finish(&r, "sharded response"); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeManifestResponse parses an EncodeManifestResponse frame, which
// names no dictionary.
func DecodeManifestResponse(frame []byte) (*ManifestResponse, error) {
	raw, err := Decoding{}.payload(frame, TypeManifest)
	if err != nil {
		return nil, err
	}
	r := binx.NewReader(raw)
	out := &ManifestResponse{}
	out.Format = str(&r)
	out.Export = bytesv(&r)
	if r.Len() > 0 {
		if out.Cap = bytesv(&r); out.Cap == nil {
			r.Fail(errors.New("empty cap"))
		}
	}
	if err := finish(&r, "manifest response"); err != nil {
		return nil, err
	}
	return out, nil
}

// payload decodes a frame and checks its payload type.
func (dec Decoding) payload(frame []byte, want byte) ([]byte, error) {
	typ, raw, err := dec.Frame(frame)
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, decodeErr("payload type %d, want %d", typ, want)
	}
	return raw, nil
}
