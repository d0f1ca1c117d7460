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

// verboseSearchResponse is an answer whose proof is structured enough to be
// deflated (the shape of a TRA VO) beside bodies that compress, one that
// does not and one that is empty: every kind of section in one frame.
func verboseSearchResponse() *SearchResponse {
	r := sampleSearchResponse()
	r.Hits = append(r.Hits,
		Hit{DocID: 3, Score: 0.4, Content: bytes.Repeat([]byte("posting list digest "), 40)},
		Hit{DocID: 5, Score: 0.3, Content: xorshiftBytes(5, 300)},
		Hit{DocID: 9, Score: 0.2, Content: []byte{}})
	r.VO = nil
	for i := 0; i < 400; i++ { // small integers between a few random digests
		r.VO = binary.BigEndian.AppendUint32(r.VO, uint32(i%37))
		if i%40 == 0 {
			r.VO = append(r.VO, xorshiftBytes(uint64(i+1), 16)...)
		}
	}
	r.Stats.VOBytes = len(r.VO)
	return r
}

// xorshiftBytes returns n pseudo-random bytes: they do not compress, like
// the digests and signatures of a proof.
func xorshiftBytes(seed uint64, n int) []byte {
	out := make([]byte, n)
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}

// The tamper battery: every single-bit flip anywhere in a frame must be
// rejected as a bad frame or a bad message — header fields fail structural
// checks, payload bits fail the CRC. No flip may decode successfully, to
// the same message or to another one, and none may panic. It runs over
// frames assembled from every kind of section.
func TestFrameTamperBattery(t *testing.T) {
	for name, r := range map[string]*SearchResponse{"stored proof": sampleSearchResponse(), "deflated proof": verboseSearchResponse()} {
		frame := EncodeSearchResponse(r)
		if flags := binary.BigEndian.Uint16(frame[6:]); flags&flagDeflate == 0 {
			t.Fatalf("%s: frame is not compressed", name)
		}
		for off := 0; off < len(frame); off++ {
			for bit := 0; bit < 8; bit++ {
				tampered := append([]byte(nil), frame...)
				tampered[off] ^= 1 << bit
				_, err := DecodeSearchResponse(tampered)
				if err == nil {
					t.Fatalf("%s: bit %d of byte %d flipped, frame still decodes", name, bit, off)
				}
				if !errors.Is(err, ErrFrame) && !errors.Is(err, ErrDecode) {
					t.Fatalf("%s: bit %d of byte %d flipped: %v is neither ErrFrame nor ErrDecode", name, bit, off, err)
				}
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
	payload := legacyDeflate(t, raw)
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
	if _, err := DecodeSearchResponse(EncodeFrame(TypeSearch, b, nil)); err == nil {
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
	var secs []section
	valid := appendSearchResponse(nil, &secs, sampleSearchResponse())
	if _, err := DecodeSearchResponse(EncodeFrame(TypeSearch, append(valid, 0xcc), secs)); err == nil {
		t.Fatal("trailing bytes decoded successfully")
	} else if !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// A memo hit must serve the "does not compress" verdict too: a payload
// whose only section refuses to shrink comes out uncompressed, flag clear,
// identically on every encode, and the compressor runs for it once.
func TestMemoEvictionAndVerdicts(t *testing.T) {
	resetMemo()
	m := &ManifestResponse{Format: "atcx1", Export: xorshiftBytes(1, 4096)}
	before := Sections()
	f1 := EncodeManifestResponse(m)
	f2 := EncodeManifestResponse(m)
	f3 := EncodeManifestResponse(m)
	if !bytes.Equal(f1, f2) || !bytes.Equal(f1, f3) {
		t.Fatal("memoised incompressible encode differs")
	}
	if flags := binary.BigEndian.Uint16(f1[6:]); flags&flagDeflate != 0 {
		t.Fatal("incompressible payload carries the deflate flag")
	}
	after := Sections()
	if d, h := after.Deflated-before.Deflated, after.MemoHit-before.MemoHit; d != 1 || h != 2 {
		t.Fatalf("three encodes ran the compressor %d times and hit the memo %d times, want 1 and 2", d, h)
	}
}
