package wire

import "testing"

// FuzzDecodeFrame feeds hostile bytes to the frame decoder and, when a
// frame survives, to every message decoder. The invariants: no panic, no
// over-allocation (enforced inside the decoders by construction), and any
// payload that decodes as a message re-encodes to a decodable frame.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ATWF"))
	f.Add(EncodeSearchResponse(sampleSearchResponse()))
	f.Add(EncodeBatchSearchResponse(&BatchSearchResponse{Results: []BatchSearchResult{
		{Error: &ErrorBody{Code: "c", Message: "m"}},
	}}))
	f.Add(EncodeShardedSearchResponse(&ShardedSearchResponse{Query: "q"}))
	f.Add(EncodeManifestResponse(&ManifestResponse{Format: "atcx1", Export: []byte("blob")}))
	// A corrupted-but-complete frame: valid header, flipped payload byte.
	corrupt := EncodeSearchResponse(sampleSearchResponse())
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(corrupt)
	// Compressed frames of both provenances: a stream assembled from every
	// kind of section, and the single whole-payload stream servers before
	// the sectioned encoder sent.
	f.Add(EncodeSearchResponse(verboseSearchResponse()))
	var secs []section
	f.Add(legacyFrame(legacyDeflate(f, appendSearchResponse(nil, &secs, verboseSearchResponse()))))

	f.Fuzz(func(t *testing.T, b []byte) {
		typ, _, err := DecodeFrame(b)
		if err != nil {
			return
		}
		// The frame was intact: the raw payload must round-trip through the
		// typed decoders without panicking; re-encoding a decoded message
		// must itself decode.
		switch typ {
		case TypeSearch:
			if r, err := DecodeSearchResponse(b); err == nil {
				if _, err := DecodeSearchResponse(EncodeSearchResponse(r)); err != nil {
					t.Fatalf("re-encode failed to decode: %v", err)
				}
			}
		case TypeBatch:
			if r, err := DecodeBatchSearchResponse(b); err == nil {
				if _, err := DecodeBatchSearchResponse(EncodeBatchSearchResponse(r)); err != nil {
					t.Fatalf("re-encode failed to decode: %v", err)
				}
			}
		case TypeSharded:
			if r, err := DecodeShardedSearchResponse(b); err == nil {
				if _, err := DecodeShardedSearchResponse(EncodeShardedSearchResponse(r)); err != nil {
					t.Fatalf("re-encode failed to decode: %v", err)
				}
			}
		case TypeManifest:
			if r, err := DecodeManifestResponse(b); err == nil {
				if _, err := DecodeManifestResponse(EncodeManifestResponse(r)); err != nil {
					t.Fatalf("re-encode failed to decode: %v", err)
				}
			}
		}
	})
}
