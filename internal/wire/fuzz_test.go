package wire

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// FuzzDecodeFrame feeds hostile bytes to the frame decoder and, when a
// frame survives, to every message decoder. The invariants: no panic, no
// over-allocation (enforced inside the decoders by construction), any
// payload that decodes as a message re-encodes to a decodable frame, and the
// memo changes nothing: an accepted chunk list decodes to the same bytes
// with a cold memo and then a warm one, and to the concatenation of its
// chunks inflated standalone, each with the frame's dictionary — attached,
// or the one dictionary the decoder holds. The decoder holds bodies too, so
// frames that refer to held bodies reach the message decoders.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ATWF"))
	f.Add(EncodeSearchResponse(sampleSearchResponse()))
	f.Add(retiredBatchFrame())
	f.Add(Encoding{}.ShardedSearchResponse(&ShardedSearchResponse{Query: "q"}))
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
	backRef := appendChunk(nil, chunk{n: len(body), deflated: true, body: buf.Bytes()})
	f.Add(chunkedFrame(TypeManifest, backRef))
	// The same stream on frames that name a dictionary: attached and right;
	// named and held; attached under another dictionary's id; past the
	// window; named but neither attached nor held; attached but not named.
	dict := []byte("merkle tree proofs ")
	id, other := sha256.Sum256(dict), sha256.Sum256([]byte("another dictionary"))
	dec := Decoding{Held: []*Dictionary{NewDictionary(dict)}}
	// Frames that refer to held bodies: to one the decoder holds, in a bare
	// and a fan-out answer, stored and chunked; to one it does not; under an
	// unknown tag; from a manifest.
	sample, verbose2 := withDigests(sampleSearchResponse()), withDigests(verboseSearchResponse())
	store, sum := heldStore(sample.Hits[1].Content)
	_, dec.Bodies = store.Held()
	f.Add(Encoding{Held: sum}.SearchResponse(sample))
	f.Add(Encoding{Held: sum}.SearchResponse(verbose2))
	f.Add(Encoding{Held: sum}.ShardedSearchResponse(&ShardedSearchResponse{Query: "q",
		Shards: []SearchResponse{*verbose2, *sample}, Merged: []MergedHit{{Shard: 1, DocID: 7}}}))
	f.Add(frameOf(TypeSearch, flagHeldRefs, taggedAnswer(hitRef, digestOf([]byte("not held")))))
	f.Add(frameOf(TypeSearch, flagHeldRefs, taggedAnswer(7, sample.Hits[1].Digest)))
	f.Add(frameOf(TypeManifest, flagHeldRefs, []byte("manifest")))
	f.Add(dictFrame(TypeManifest, flagDictNamed|flagDictAttached, id, dict, backRef))
	f.Add(dictFrame(TypeManifest, flagDictNamed, id, nil, backRef))
	f.Add(dictFrame(TypeManifest, flagDictNamed|flagDictAttached, other, dict, backRef))
	long := make([]byte, MaxDictionaryBytes+1)
	f.Add(dictFrame(TypeManifest, flagDictNamed|flagDictAttached, sha256.Sum256(long), long, backRef))
	f.Add(dictFrame(TypeManifest, flagDictNamed, other, nil, backRef))
	f.Add(dictFrame(TypeManifest, flagDictAttached, id, dict, backRef))
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
		typ, raw, err := dec.Frame(b)
		if err != nil {
			return
		}
		if flags := binary.BigEndian.Uint16(b[6:]); flags&flagChunked != 0 {
			payload, preset := b[HeaderSize:], []byte(nil)
			if flags&flagDictNamed != 0 {
				d, rest, err := dec.dictionary(payload, flags&flagDictAttached != 0)
				if err != nil {
					t.Fatalf("accepted frame's dictionary does not resolve: %v", err)
				}
				payload, preset = rest, d.b
			}
			inflateMemo.reset()
			_, cold, err := dec.Frame(b)
			if err != nil {
				t.Fatalf("accepted frame fails with a cold memo: %v", err)
			}
			_, warm, err := dec.Frame(b)
			if err != nil {
				t.Fatalf("accepted frame fails with a warm memo: %v", err)
			}
			ref, err := standalone(payload, preset)
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
			if r, err := dec.SearchResponse(b); err == nil {
				if _, err := DecodeSearchResponse(EncodeSearchResponse(r)); err != nil {
					t.Fatalf("re-encode failed to decode: %v", err)
				}
			}
		case TypeSharded:
			if r, err := dec.ShardedSearchResponse(b); err == nil {
				if _, err := (Decoding{}).ShardedSearchResponse(Encoding{}.ShardedSearchResponse(r)); err != nil {
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
