package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func sampleSearchResponse() *SearchResponse {
	return &SearchResponse{
		Query: "rose garden", R: 3, Algo: "tnra", Scheme: "cmht",
		Generation: 7,
		Hits: []Hit{
			{DocID: 12, Score: 0.91, Content: []byte("full document body one")},
			{DocID: 7, Score: 0.5, Content: bytes.Repeat([]byte("lorem ipsum "), 200)},
			{DocID: 0, Score: math.Inf(1), Content: nil},
		},
		VO: []byte{0x00, 0x01, 0xfe, 0xff, 0x10},
		Stats: SearchStats{
			QueryTerms: 2, EntriesRead: 40, EntriesPerTerm: 20,
			PctListRead: 0.3, BlockReads: 9, RandomReads: 1,
			IOMillis: 0.25, VOBytes: 5, ServerMillis: 1.5,
		},
	}
}

func TestSearchResponseRoundTrip(t *testing.T) {
	want := sampleSearchResponse()
	frame := EncodeSearchResponse(want)
	got, err := DecodeSearchResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestBatchSearchResponseRoundTrip(t *testing.T) {
	want := &BatchSearchResponse{Results: []BatchSearchResult{
		{Response: sampleSearchResponse()},
		{Error: &ErrorBody{Code: "bad_request", Message: "empty query"}},
		{Response: &SearchResponse{Query: "x", Algo: "tra", Scheme: "mht"}},
	}}
	got, err := DecodeBatchSearchResponse(EncodeBatchSearchResponse(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestShardedSearchResponseRoundTrip(t *testing.T) {
	want := &ShardedSearchResponse{
		Query: "alpha beta", R: 10, Algo: "tnra", Scheme: "cmht", Generation: 3,
		Shards: []SearchResponse{*sampleSearchResponse(), {Query: "alpha beta", Algo: "tnra", Scheme: "cmht"}},
		Merged: []MergedHit{
			{Shard: 0, DocID: 12, GlobalID: 12, Score: 0.91},
			{Shard: 1, DocID: 4, GlobalID: 10004, Score: 0.7},
		},
		Stats: ShardedSearchStats{Shards: 2, EntriesRead: 80, VOBytes: 10, IOMillis: 0.5, ServerMillis: 2},
	}
	got, err := DecodeShardedSearchResponse(EncodeShardedSearchResponse(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestManifestResponseRoundTrip(t *testing.T) {
	want := &ManifestResponse{Format: "atcx1", Export: bytes.Repeat([]byte{0xab, 0x01}, 700)}
	got, err := DecodeManifestResponse(EncodeManifestResponse(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// Encoding is deterministic — the VO-cache byte-identity guarantee and the
// deflate memo both rest on it. The memo path (second encode) must produce
// the identical bytes as the first (non-memoised) encode.
func TestEncodeDeterministicAndMemoised(t *testing.T) {
	r := sampleSearchResponse()
	first := EncodeSearchResponse(r)
	for i := 0; i < 3; i++ {
		if again := EncodeSearchResponse(r); !bytes.Equal(first, again) {
			t.Fatalf("encode %d differs from first encode", i+2)
		}
	}
	if len(first) < HeaderSize {
		t.Fatalf("frame shorter than its header")
	}
}

// Large compressible payloads must come out compressed (the flag is
// load-bearing for the bytes win); payloads below compressMin must not.
func TestCompressionThreshold(t *testing.T) {
	big := EncodeSearchResponse(sampleSearchResponse())
	if flags := binary.BigEndian.Uint16(big[6:]); flags&flagDeflate == 0 {
		t.Fatalf("compressible payload not compressed (flags %#x)", flags)
	}
	small := EncodeManifestResponse(&ManifestResponse{Format: "atcx1", Export: []byte("tiny")})
	if flags := binary.BigEndian.Uint16(small[6:]); flags&flagDeflate != 0 {
		t.Fatalf("sub-threshold payload compressed (flags %#x)", flags)
	}
}

// The tamper battery: every single-bit flip anywhere in a frame must be
// rejected — header fields fail structural checks, payload bits fail the
// CRC. No flip may decode successfully.
func TestFrameTamperBattery(t *testing.T) {
	frame := EncodeSearchResponse(sampleSearchResponse())
	for off := 0; off < len(frame); off++ {
		for bit := 0; bit < 8; bit++ {
			tampered := append([]byte(nil), frame...)
			tampered[off] ^= 1 << bit
			if _, err := DecodeSearchResponse(tampered); err == nil {
				t.Fatalf("bit %d of byte %d flipped, frame still decodes", bit, off)
			}
		}
	}
}

func TestDecodeFrameHostileInputs(t *testing.T) {
	good := EncodeSearchResponse(sampleSearchResponse())
	cases := map[string][]byte{
		"empty":     nil,
		"short":     good[:HeaderSize-1],
		"truncated": good[:len(good)-1],
		"overlong":  append(append([]byte(nil), good...), 0x00),
		"bad magic": append([]byte("XTWF"), good[4:]...),
	}
	// Declared length far beyond the cap.
	huge := append([]byte(nil), good...)
	binary.BigEndian.PutUint64(huge[12:], MaxPayloadBytes+1)
	cases["length beyond cap"] = huge
	// Unknown payload type.
	badType := append([]byte(nil), good...)
	badType[5] = TypeManifest + 1
	cases["unknown type"] = badType
	// Unknown flag bit.
	badFlags := append([]byte(nil), good...)
	badFlags[6] |= 0x80
	cases["unknown flags"] = badFlags
	// Future version.
	badVer := append([]byte(nil), good...)
	badVer[4] = FrameVersion + 1
	cases["future version"] = badVer
	for name, b := range cases {
		if _, _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: decoded successfully", name)
		} else if !errors.Is(err, ErrFrame) {
			t.Errorf("%s: error %v does not wrap ErrFrame", name, err)
		}
	}
}

// A compressed stream whose raw-length prefix lies (either direction) must
// be rejected, not silently truncated or over-read.
func TestInflateLengthPrefixMismatch(t *testing.T) {
	raw := bytes.Repeat([]byte("abcdefgh"), 200)
	payload := deflatePayload(raw)
	if payload == nil {
		t.Fatal("deflate failed")
	}
	for _, lie := range []uint64{uint64(len(raw)) - 1, uint64(len(raw)) + 1} {
		lying := append([]byte(nil), payload...)
		binary.BigEndian.PutUint64(lying, lie)
		if _, err := inflatePayload(lying); err == nil {
			t.Errorf("prefix lying %d (real %d): inflated successfully", lie, len(raw))
		}
	}
	if _, err := inflatePayload(payload[:4]); err == nil {
		t.Error("truncated prefix inflated successfully")
	}
}

func TestReadFrameMatchesDecodeFrame(t *testing.T) {
	frame := EncodeSearchResponse(sampleSearchResponse())
	typ, raw, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	typ2, raw2, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if typ != typ2 || !bytes.Equal(raw, raw2) {
		t.Fatal("ReadFrame and DecodeFrame disagree")
	}
	if _, _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-3])); err == nil {
		t.Fatal("truncated stream read successfully")
	}
}

// Messages structurally valid at the frame layer but rotten inside must
// fail with ErrDecode.
func TestDecodeHostileMessages(t *testing.T) {
	// A hit count larger than the remaining payload can back.
	b := appendStr(nil, "q")
	b = binary.BigEndian.AppendUint32(b, 1)
	b = appendStr(b, "tnra")
	b = appendStr(b, "cmht")
	b = binary.BigEndian.AppendUint64(b, 0)
	b = binary.BigEndian.AppendUint32(b, math.MaxUint32) // nhits
	if _, err := DecodeSearchResponse(EncodeFrame(TypeSearch, b)); err == nil {
		t.Fatal("hostile hit count decoded successfully")
	} else if !errors.Is(err, ErrDecode) {
		t.Fatalf("error %v does not wrap ErrDecode", err)
	}
	// Payload type crossed: a batch frame fed to the search decoder.
	batch := EncodeBatchSearchResponse(&BatchSearchResponse{})
	if _, err := DecodeSearchResponse(batch); err == nil {
		t.Fatal("cross-typed frame decoded successfully")
	}
	// Trailing garbage after a valid message.
	valid := appendSearchResponse(nil, sampleSearchResponse())
	if _, err := DecodeSearchResponse(EncodeFrame(TypeSearch, append(valid, 0xcc))); err == nil {
		t.Fatal("trailing bytes decoded successfully")
	} else if !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// The memo must evict under its byte bound instead of growing without
// limit, and a memo hit must serve the "incompressible" verdict too.
func TestMemoEvictionAndVerdicts(t *testing.T) {
	// Incompressible payload (pseudo-random) above compressMin: the first
	// encode stores the nil verdict (no bytes, so no trial), the later ones
	// must hit it and still produce an identical, uncompressed frame.
	raw := make([]byte, 4096)
	x := uint64(1)
	for i := range raw {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		raw[i] = byte(x)
	}
	f1 := EncodeFrame(TypeManifest, raw)
	f2 := EncodeFrame(TypeManifest, raw)
	f3 := EncodeFrame(TypeManifest, raw)
	if !bytes.Equal(f1, f2) || !bytes.Equal(f1, f3) {
		t.Fatal("memoised incompressible encode differs")
	}
	if flags := binary.BigEndian.Uint16(f1[6:]); flags&flagDeflate != 0 {
		t.Fatal("incompressible payload carries the deflate flag")
	}
}
