package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"testing"
)

// FuzzDecodeFrame feeds hostile bytes to the frame decoder and, when a
// frame survives, to every message decoder. The invariants: no panic, no
// over-allocation (enforced inside the decoders by construction), any
// payload that decodes as a message re-encodes to a decodable frame, and the
// memo changes nothing: an accepted chunk list decodes to the same bytes
// with a cold memo and then a warm one, and to the concatenation of its
// chunks inflated standalone.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ATWF"))
	f.Add(EncodeSearchResponse(sampleSearchResponse()))
	f.Add(retiredBatchFrame())
	f.Add(EncodeShardedSearchResponse(&ShardedSearchResponse{Query: "q"}))
	f.Add(EncodeManifestResponse(&ManifestResponse{Format: "atcx1", Export: []byte("blob")}))
	// A corrupted-but-complete frame: valid header, flipped payload byte.
	corrupt := EncodeSearchResponse(sampleSearchResponse())
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(corrupt)
	// A chunk list with every kind of section, and the same frame with bytes
	// after one chunk's final block.
	verbose := EncodeSearchResponse(verboseSearchResponse())
	f.Add(verbose)
	f.Add(withStreamTail(f, verbose, []byte{0xde, 0xad, 0xbe, 0xef}))
	// A stream that refers back past its chunk's start: deflated against a
	// dictionary the decoder does not have.
	var buf bytes.Buffer
	fw, err := flate.NewWriterDict(&buf, flate.BestCompression, []byte("merkle tree proofs "))
	if err != nil {
		f.Fatal(err)
	}
	body := []byte("merkle tree proofs authenticate merkle tree proofs")
	fw.Write(body)
	fw.Close()
	f.Add(chunkedFrame(TypeManifest, appendChunk(nil, chunk{n: len(body), deflated: true, body: buf.Bytes()})))
	// A chunk header whose uvarint overflows 64 bits, and a stream length
	// past the end of the payload.
	f.Add(chunkedFrame(TypeSearch, append(bytes.Repeat([]byte{0xff}, 10), 0x01)))
	past := binary.AppendUvarint(nil, 100<<1|1)
	past = binary.AppendUvarint(past, 1<<20)
	f.Add(chunkedFrame(TypeSearch, append(past, 0x03, 0x00)))
	// A declared length one short of what a remembered stream inflates to:
	// the verbose frame above has just filled the memo, so this is a hit.
	f.Add(rechunk(f, verbose, func(_ int, c chunk) chunk {
		if c.deflated {
			c.n--
		}
		return c
	}))

	f.Fuzz(func(t *testing.T, b []byte) {
		typ, raw, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if binary.BigEndian.Uint16(b[6:])&flagChunked != 0 {
			inflateMemo.reset()
			_, cold, err := DecodeFrame(b)
			if err != nil {
				t.Fatalf("accepted frame fails with a cold memo: %v", err)
			}
			_, warm, err := DecodeFrame(b)
			if err != nil {
				t.Fatalf("accepted frame fails with a warm memo: %v", err)
			}
			ref, err := standalone(b[HeaderSize:])
			if err != nil {
				t.Fatalf("accepted frame's chunks do not inflate standalone: %v", err)
			}
			if !bytes.Equal(raw, cold) || !bytes.Equal(raw, warm) || !bytes.Equal(raw, ref) {
				t.Fatal("the memo changed what a frame decodes to")
			}
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
