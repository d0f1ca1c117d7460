package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
	got, err := Decoding{}.ShardedSearchResponse(Encoding{}.ShardedSearchResponse(want))
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
	if flags := binary.BigEndian.Uint16(big[6:]); flags&flagChunked == 0 {
		t.Fatalf("compressible payload not compressed (flags %#x)", flags)
	}
	small := EncodeManifestResponse(&ManifestResponse{Format: "atcx1", Export: []byte("tiny")})
	if flags := binary.BigEndian.Uint16(small[6:]); flags&flagChunked != 0 {
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
	withDict := verboseSearchResponse()
	for i := range withDict.Hits {
		withDict.Hits[i].Content = bodyOf(i)
	}
	for name, frame := range map[string][]byte{
		"stored proof":        EncodeSearchResponse(sampleSearchResponse()),
		"deflated proof":      EncodeSearchResponse(verboseSearchResponse()),
		"attached dictionary": Encoding{Dict: CollectionDictionary(testVocabulary), Attach: true}.SearchResponse(withDict),
	} {
		if flags := binary.BigEndian.Uint16(frame[6:]); flags&flagChunked == 0 {
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
	// Unknown payload type, and the retired batch type.
	badType := append([]byte(nil), good...)
	badType[5] = TypeManifest + 1
	cases["unknown type"] = badType
	cases["retired batch type"] = retiredBatchFrame()
	// Unknown flag bit.
	badFlags := append([]byte(nil), good...)
	badFlags[6] |= 0x80
	cases["unknown flags"] = badFlags
	// Future version, and the version before chunk lists.
	badVer := append([]byte(nil), good...)
	badVer[4] = FrameVersion + 1
	cases["future version"] = badVer
	for v := byte(1); v < FrameVersion; v++ {
		old := append([]byte(nil), good...)
		old[4] = v
		cases[fmt.Sprintf("version %d", v)] = old
	}
	// Bytes after a chunk's final deflate block, CRC and lengths fixed: the
	// stream ends before its chunk does.
	verbose := EncodeSearchResponse(verboseSearchResponse())
	cases["bytes after a final block"] = withStreamTail(t, verbose, []byte{0xde, 0xad, 0xbe, 0xef})
	cases["bytes after the last chunk"] = chunkedFrame(TypeSearch, append(verbose[HeaderSize:len(verbose):len(verbose)], 0xde, 0xad, 0xbe, 0xef))
	// Dictionary fields that do not add up, CRC and lengths fixed.
	chunks := verbose[HeaderSize:]
	var unknown [32]byte
	cases["dictionary attached but not named"] = dictFrame(TypeSearch, flagDictAttached, unknown, []byte("dict"), chunks)
	cases["dictionary named, not held, not attached"] = dictFrame(TypeSearch, flagDictNamed, unknown, nil, chunks)
	cases["dictionary id cut short"] = frameOf(TypeSearch, flagChunked|flagDictNamed, unknown[:16])
	cases["dictionary length past the end"] = frameOf(TypeSearch, flagChunked|flagDictNamed|flagDictAttached,
		append(unknown[:], 0, 0, 0, 9, 'd', 'i', 'c', 't'))
	named := append([]byte(nil), good...)
	named[7] |= byte(flagDictNamed)
	cases["dictionary named without a chunk list"] = named
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := DecodeSearchResponse(b); return err },
		func(b []byte) error { _, err := Decoding{}.ShardedSearchResponse(b); return err },
		func(b []byte) error { _, err := DecodeManifestResponse(b); return err },
	}
	for name, b := range cases {
		if _, _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: decoded successfully", name)
		} else if !errors.Is(err, ErrFrame) {
			t.Errorf("%s: error %v does not wrap ErrFrame", name, err)
		}
		for i, decode := range decoders {
			if err := decode(b); !errors.Is(err, ErrFrame) {
				t.Errorf("%s: message decoder %d: %v, want ErrFrame", name, i, err)
			}
		}
	}
}

// retiredBatchFrame is a well-formed frame of payload type 2, which carried
// the retired batch response: an empty batch, u32 0.
func retiredBatchFrame() []byte { return plainFrame(2, []byte{0, 0, 0, 0}, nil) }

// withStreamTail appends tail to the stream of frame's last deflated chunk
// and re-frames it, every length and the CRC consistent.
func withStreamTail(t testing.TB, frame, tail []byte) []byte {
	t.Helper()
	last := -1
	for i, c := range chunksOf(t, frame) {
		if c.deflated {
			last = i
		}
	}
	return rechunk(t, frame, func(i int, c chunk) chunk {
		if i == last {
			c.body = append(append([]byte(nil), c.body...), tail...)
		}
		return c
	})
}

// A deflated chunk whose declared length lies (either direction) must be
// rejected, not silently truncated or over-read — whether its stream is
// inflated or answered from the memo — and so must one whose stream runs
// past the end of the payload.
func TestInflateLengthPrefixMismatch(t *testing.T) {
	frame := EncodeSearchResponse(verboseSearchResponse())
	for _, delta := range []int{-1, +1} {
		lying := rechunk(t, frame, func(_ int, c chunk) chunk {
			if c.deflated {
				c.n += delta
			}
			return c
		})
		for _, memo := range []string{"cold", "warm"} {
			if memo == "cold" {
				resetMemo()
			} else if _, _, err := DecodeFrame(frame); err != nil {
				t.Fatal(err)
			}
			if _, _, err := DecodeFrame(lying); !errors.Is(err, ErrFrame) {
				t.Errorf("declared lengths off by %d, %s memo: %v, want ErrFrame", delta, memo, err)
			}
		}
	}
	c := chunksOf(t, frame)[1]
	if !c.deflated {
		t.Fatal("the second chunk is not deflated")
	}
	past := binary.AppendUvarint(nil, uint64(c.n)<<1|1)
	past = binary.AppendUvarint(past, uint64(len(c.body)+1))
	if _, _, err := DecodeFrame(chunkedFrame(TypeSearch, append(past, c.body...))); !errors.Is(err, ErrFrame) {
		t.Errorf("stream length past the end of the payload: %v, want ErrFrame", err)
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
	if _, err := DecodeSearchResponse(plainFrame(TypeSearch, b, nil)); err == nil {
		t.Fatal("hostile hit count decoded successfully")
	} else if !errors.Is(err, ErrDecode) {
		t.Fatalf("error %v does not wrap ErrDecode", err)
	}
	// Payload type crossed: a manifest frame fed to the search decoder.
	manifest := EncodeManifestResponse(&ManifestResponse{Format: "atcx1"})
	if _, err := DecodeSearchResponse(manifest); err == nil {
		t.Fatal("cross-typed frame decoded successfully")
	}
	// Trailing garbage after a valid message.
	var secs []section
	valid := appendSearchResponse(nil, &secs, sampleSearchResponse(), nil)
	if _, err := DecodeSearchResponse(plainFrame(TypeSearch, append(valid, 0xcc), secs)); err == nil {
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
	if flags := binary.BigEndian.Uint16(f1[6:]); flags&flagChunked != 0 {
		t.Fatal("incompressible payload carries the deflate flag")
	}
	after := Sections()
	if d, h := after.Deflated-before.Deflated, after.MemoHit-before.MemoHit; d != 1 || h != 2 {
		t.Fatalf("three encodes ran the compressor %d times and hit the memo %d times, want 1 and 2", d, h)
	}
}

// TestDecodedBytesDoNotShareCapacity: every byte field a decoder returns
// aliases the message buffer, so each must be capped at its own length.
// Otherwise appending to one hit's content (the client hands these slices
// out as verified Hit.Content) writes over the next hit, or over the VO.
func TestDecodedBytesDoNotShareCapacity(t *testing.T) {
	searchFields := func(r *SearchResponse) [][]byte {
		var out [][]byte
		for i := range r.Hits {
			out = append(out, r.Hits[i].Content)
		}
		return append(out, r.VO)
	}
	sharded := &ShardedSearchResponse{
		Query: "q", Algo: "tnra", Scheme: "cmht",
		Shards: []SearchResponse{*sampleSearchResponse(), *verboseSearchResponse()},
	}
	for name, decode := range map[string]func() ([][]byte, error){
		"search": func() ([][]byte, error) {
			r, err := DecodeSearchResponse(EncodeSearchResponse(verboseSearchResponse()))
			if err != nil {
				return nil, err
			}
			return searchFields(r), nil
		},
		"sharded": func() ([][]byte, error) {
			r, err := Decoding{}.ShardedSearchResponse(Encoding{}.ShardedSearchResponse(sharded))
			if err != nil {
				return nil, err
			}
			var out [][]byte
			for i := range r.Shards {
				out = append(out, searchFields(&r.Shards[i])...)
			}
			return out, nil
		},
		"manifest": func() ([][]byte, error) {
			r, err := DecodeManifestResponse(EncodeManifestResponse(&ManifestResponse{Format: "atcx1", Export: []byte("export blob")}))
			if err != nil {
				return nil, err
			}
			return [][]byte{r.Export}, nil
		},
	} {
		fields, err := decode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := make([][]byte, len(fields))
		for i, f := range fields {
			want[i] = bytes.Clone(f)
		}
		for i, f := range fields {
			if cap(f) != len(f) {
				t.Errorf("%s: field %d has length %d, capacity %d", name, i, len(f), cap(f))
			}
			_ = append(f, bytes.Repeat([]byte{0xee}, 64)...)
		}
		for i, f := range fields {
			if !bytes.Equal(f, want[i]) {
				t.Errorf("%s: appending to the decoded fields changed field %d", name, i)
			}
		}
	}
}
