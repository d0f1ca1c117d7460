package httpapi

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"authtext/internal/core"
	"authtext/internal/vo"
	"authtext/internal/wire"
)

// Golden binary-frame regression suite: the framed encodings of the same
// canonical values pinned by golden_test.go. The fixtures freeze the frame
// header layout (magic, version, type, flags, CRC) and the field order of
// every message codec — a byte diff here is a wire-protocol change and
// needs a version bump, not a silent regeneration. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/httpapi. The three canonical values
// encode below the compression threshold, so their bytes are independent of
// the flate implementation; search_response_deflated.frame.bin is above it
// and pins the chunk list as well (stored glue, one deflate stream per body),
// and search_response_dictionary.frame.bin the same answer with its bodies
// deflated against an attached collection dictionary — compress/flate's output for a given level has been stable across Go
// releases, and a release that changed it would change what replicas on
// different toolchains send, which is worth a red test.
// search_response_capped.frame.bin carries a VO cut at depth 8, and
// manifest_response_capped.frame.bin a manifest with the proof cap that
// goes with it (docs/PROTOCOL.md "Proof caps").

var goldenFrameCases = []struct {
	file   string
	encode func() []byte
	check  func(t *testing.T, raw []byte)
}{
	{
		file:   "search_response.frame.bin",
		encode: func() []byte { return wire.EncodeSearchResponse(goldenSearchResponse()) },
		check: func(t *testing.T, raw []byte) {
			got, err := wire.DecodeSearchResponse(raw)
			if err != nil {
				t.Fatalf("golden frame no longer decodes: %v", err)
			}
			if want := goldenSearchResponse(); !reflect.DeepEqual(got, want) {
				t.Errorf("decoded frame disagrees with expected value:\n got: %#v\nwant: %#v", got, want)
			}
		},
	},
	{
		file:   "search_response_deflated.frame.bin",
		encode: func() []byte { return wire.EncodeSearchResponse(goldenDeflatedSearchResponse()) },
		check: func(t *testing.T, raw []byte) {
			if raw[7]&1 == 0 {
				t.Fatal("the deflated fixture does not carry the chunk-list flag")
			}
			got, err := wire.DecodeSearchResponse(raw)
			if err != nil {
				t.Fatalf("golden frame no longer decodes: %v", err)
			}
			if want := goldenDeflatedSearchResponse(); !reflect.DeepEqual(got, want) {
				t.Errorf("decoded frame disagrees with expected value:\n got: %#v\nwant: %#v", got, want)
			}
		},
	},
	{
		file: "search_response_dictionary.frame.bin",
		encode: func() []byte {
			return wire.Encoding{Dict: goldenDictionary(), Attach: true}.SearchResponse(goldenDeflatedSearchResponse())
		},
		check: func(t *testing.T, raw []byte) {
			if raw[7] != 0x07 {
				t.Fatalf("the dictionary fixture carries flags %#x, want chunked, named and attached", raw[7])
			}
			got, err := wire.DecodeSearchResponse(raw)
			if err != nil {
				t.Fatalf("golden frame no longer decodes: %v", err)
			}
			if want := goldenDeflatedSearchResponse(); !reflect.DeepEqual(got, want) {
				t.Errorf("decoded frame disagrees with expected value:\n got: %#v\nwant: %#v", got, want)
			}
		},
	},
	{
		file:   "sharded_search_response.frame.bin",
		encode: func() []byte { return wire.Encoding{}.ShardedSearchResponse(goldenShardedSearchResponse()) },
		check: func(t *testing.T, raw []byte) {
			got, err := wire.Decoding{}.ShardedSearchResponse(raw)
			if err != nil {
				t.Fatalf("golden frame no longer decodes: %v", err)
			}
			if want := goldenShardedSearchResponse(); !reflect.DeepEqual(got, want) {
				t.Errorf("decoded frame disagrees with expected value:\n got: %#v\nwant: %#v", got, want)
			}
		},
	},
	{
		file: "manifest_response.frame.bin",
		encode: func() []byte {
			return wire.EncodeManifestResponse(&ManifestResponse{Format: FormatATCX, Export: []byte("ATCX-export-bytes")})
		},
		check: func(t *testing.T, raw []byte) {
			got, err := wire.DecodeManifestResponse(raw)
			if err != nil {
				t.Fatalf("golden frame no longer decodes: %v", err)
			}
			want := &ManifestResponse{Format: FormatATCX, Export: []byte("ATCX-export-bytes")}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("decoded frame disagrees with expected value:\n got: %#v\nwant: %#v", got, want)
			}
		},
	},
	{
		file:   "search_response_capped.frame.bin",
		encode: func() []byte { return wire.EncodeSearchResponse(goldenCappedSearchResponse()) },
		check: func(t *testing.T, raw []byte) {
			got, err := wire.DecodeSearchResponse(raw)
			if err != nil {
				t.Fatalf("golden frame no longer decodes: %v", err)
			}
			if want := goldenCappedSearchResponse(); !reflect.DeepEqual(got, want) {
				t.Errorf("decoded frame disagrees with expected value:\n got: %#v\nwant: %#v", got, want)
			}
			if v, err := vo.Decode(got.VO); err != nil || v.CapDepth != 8 {
				t.Fatalf("the capped fixture's VO: %+v (%v), want cap depth 8", v, err)
			}
		},
	},
	{
		file:   "manifest_response_capped.frame.bin",
		encode: func() []byte { return wire.EncodeManifestResponse(goldenCappedManifestResponse()) },
		check: func(t *testing.T, raw []byte) {
			got, err := wire.DecodeManifestResponse(raw)
			if err != nil {
				t.Fatalf("golden frame no longer decodes: %v", err)
			}
			if want := goldenCappedManifestResponse(); !reflect.DeepEqual(got, want) {
				t.Errorf("decoded frame disagrees with expected value:\n got: %#v\nwant: %#v", got, want)
			}
		},
	},
}

// goldenCappedSearchResponse is goldenSearchResponse with a real VO cut at
// depth 8: one term proof, and content and dictionary proofs whose digests
// below the cut are all that is left.
func goldenCappedSearchResponse() *SearchResponse {
	resp := goldenSearchResponse()
	v := &vo.VO{
		Algo: uint8(core.AlgoTNRA), Scheme: uint8(core.SchemeCMHT), Generation: 7, CapDepth: 8,
		Terms: []vo.TermProof{{TermID: 3, FT: 40, Name: "merkle", KScore: 2, KProof: 2,
			Docs: []uint32{7, 2}, Freqs: []float32{0.5, 0.25}}},
		ContentProof: &vo.ContentProof{Digests: [][]byte{bytes.Repeat([]byte{0xc1}, 16)}},
		DictProof:    &vo.DictProof{M: 1479, Digests: [][]byte{bytes.Repeat([]byte{0xd1}, 16), bytes.Repeat([]byte{0xd2}, 16)}},
	}
	enc, _, err := vo.Encode(v, 16)
	if err != nil {
		panic(err)
	}
	resp.VO = enc
	resp.Stats.VOBytes = len(enc)
	return resp
}

// goldenCappedManifestResponse is the manifest fixture with a cap: depth
// 8, then frontier digests.
func goldenCappedManifestResponse() *ManifestResponse {
	capBytes := []byte{8}
	for i := range 4 {
		capBytes = append(capBytes, bytes.Repeat([]byte{0xa0 + byte(i)}, 16)...)
	}
	return &ManifestResponse{Format: FormatATCX, Export: []byte("ATCX-export-bytes"), Cap: capBytes}
}

// goldenSearchResponse is the same canonical value golden_test.go pins as
// JSON, reused here so the two suites freeze one protocol surface.
func goldenSearchResponse() *SearchResponse {
	return &SearchResponse{
		Query:      "merkle tree proofs",
		R:          2,
		Algo:       AlgoTNRA,
		Scheme:     SchemeCMHT,
		Generation: 7,
		Hits: []Hit{
			{DocID: 7, Score: 3.25, Content: []byte("first document body")},
			{DocID: 2, Score: 1.5, Content: []byte("second document body")},
		},
		VO: []byte{0x01, 0x02, 0xfe, 0xff},
		Stats: SearchStats{
			QueryTerms:     3,
			EntriesRead:    120,
			EntriesPerTerm: 40,
			PctListRead:    12.5,
			BlockReads:     17,
			RandomReads:    4,
			IOMillis:       1.75,
			VOBytes:        4,
			ServerMillis:   0.5,
		},
	}
}

// goldenDeflatedSearchResponse is a canonical answer large enough to cross
// the compression threshold: three text bodies and a VO of high-entropy
// bytes, the shape of a short TNRA answer.
func goldenDeflatedSearchResponse() *SearchResponse {
	resp := goldenSearchResponse()
	resp.R = 3
	resp.Hits = nil
	for i, id := range []int{7, 2, 11} {
		var body bytes.Buffer
		for j := 0; body.Len() < 600; j++ {
			fmt.Fprintf(&body, "document %d sentence %d: merkle tree proofs authenticate the posting lists. ", id, j)
		}
		resp.Hits = append(resp.Hits, Hit{DocID: id, Score: 3.25 - float64(i), Content: body.Bytes()})
	}
	resp.VO = make([]byte, 700)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range resp.VO { // xorshift64: digests and signatures do not compress either
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		resp.VO[i] = byte(x)
	}
	resp.Stats.VOBytes = len(resp.VO)
	return resp
}

// goldenDictionary is the collection dictionary of the vocabulary the
// deflated answer's bodies are written in.
func goldenDictionary() *wire.Dictionary {
	return wire.CollectionDictionary([]string{"authenticate", "document", "lists", "merkle", "posting", "proofs", "sentence", "tree"})
}

func goldenShardedSearchResponse() *ShardedSearchResponse {
	return &ShardedSearchResponse{
		Query:      "merkle tree proofs",
		R:          2,
		Algo:       AlgoTNRA,
		Scheme:     SchemeCMHT,
		Generation: 4,
		Shards: []SearchResponse{
			{
				Query: "merkle tree proofs", R: 2, Algo: AlgoTNRA, Scheme: SchemeCMHT,
				Generation: 4,
				Hits:       []Hit{{DocID: 0, Score: 2.5, Content: []byte("shard zero hit")}},
				VO:         []byte{0x0a},
				Stats: SearchStats{
					QueryTerms: 3, EntriesRead: 10, EntriesPerTerm: 3.3333,
					PctListRead: 50, BlockReads: 3, RandomReads: 0,
					IOMillis: 0.25, VOBytes: 1, ServerMillis: 0.1,
				},
			},
			{
				Query: "merkle tree proofs", R: 2, Algo: AlgoTNRA, Scheme: SchemeCMHT,
				Generation: 2,
				Hits:       []Hit{{DocID: 1, Score: 3.75, Content: []byte("shard one hit")}},
				VO:         []byte{0x0b, 0x0c},
				Stats: SearchStats{
					QueryTerms: 3, EntriesRead: 12, EntriesPerTerm: 4,
					PctListRead: 40, BlockReads: 4, RandomReads: 1,
					IOMillis: 0.5, VOBytes: 2, ServerMillis: 0.2,
				},
			},
		},
		Merged: []MergedHit{
			{Shard: 1, DocID: 1, GlobalID: 3, Score: 3.75},
			{Shard: 0, DocID: 0, GlobalID: 0, Score: 2.5},
		},
		Stats: ShardedSearchStats{
			Shards:       2,
			EntriesRead:  22,
			VOBytes:      3,
			IOMillis:     0.5,
			ServerMillis: 0.35,
		},
	}
}

func TestGoldenBinaryFrames(t *testing.T) {
	for _, tc := range goldenFrameCases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			enc := tc.encode()
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, enc, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with UPDATE_GOLDEN=1 once): %v", err)
			}
			// Direction 1: the checked-in frame decodes to exactly the
			// expected value.
			tc.check(t, raw)
			// Direction 2: encoding the expected value reproduces the frame
			// byte for byte — the determinism the VO cache's byte-identity
			// guarantee rests on.
			if !bytes.Equal(enc, raw) {
				t.Errorf("re-encoded frame disagrees with the golden fixture\n got: %x\nwant: %x", enc, raw)
			}
		})
	}
}

// TestGoldenBinaryFramesUnderConcurrentEncoders: the encoder reuses pooled
// compressor state across requests, so the fixtures must also come out
// byte-identical while other goroutines push compressible answers through
// the same pools.
func TestGoldenBinaryFramesUnderConcurrentEncoders(t *testing.T) {
	big := goldenSearchResponse()
	big.Hits[0].Content = bytes.Repeat([]byte("compressible document body "), 400)
	wantBig := wire.EncodeSearchResponse(big)

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				// A distinct query per encode defeats the deflate memo, so
				// the pooled writers really are reused concurrently.
				busy := *big
				busy.Query = fmt.Sprintf("worker %d round %d", w, round)
				if _, err := wire.DecodeSearchResponse(wire.EncodeSearchResponse(&busy)); err != nil {
					t.Errorf("concurrent encode does not decode: %v", err)
					return
				}
				if !bytes.Equal(wire.EncodeSearchResponse(big), wantBig) {
					t.Error("compressed frame changed under concurrent encoders")
					return
				}
				for _, tc := range goldenFrameCases {
					raw, err := os.ReadFile(filepath.Join("testdata", tc.file))
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(tc.encode(), raw) {
						t.Errorf("%s: frame differs from the golden fixture under concurrent encoders", tc.file)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
