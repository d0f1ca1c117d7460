package shard

import (
	"bytes"
	"testing"
)

// FuzzDecodeSetManifest feeds hostile bytes to the set-manifest and doc-map
// decoders. Both arrive in a client export from an untrusted channel and
// are hashed or signature-checked as received, so neither decoder may
// panic, and an accepted input must re-encode to the same bytes.
func FuzzDecodeSetManifest(f *testing.F) {
	digest := func(v byte) []byte { return bytes.Repeat([]byte{v}, 16) }
	static := &SetManifest{
		K: 2, Partitioner: HashContent, GlobalN: 5, HashSize: 16,
		ShardDocs:       []uint32{3, 2},
		ManifestDigests: [][]byte{digest(1), digest(2)},
		DocMapDigests:   [][]byte{digest(3), digest(4)},
	}
	live := *static
	live.Partitioner = RoundRobin
	live.Generation = 4
	f.Add(static.Encode())
	f.Add(live.Encode())
	f.Add(EncodeDocMap([]uint32{0, 2, 4}))
	f.Add(EncodeDocMap(nil))
	f.Add([]byte(setManifestDomain))
	f.Fuzz(func(t *testing.T, b []byte) {
		if m, err := DecodeSetManifest(b); err == nil {
			if enc := m.Encode(); !bytes.Equal(enc, b) {
				t.Fatalf("accepted a non-canonical set manifest:\n got %x\nre-encodes %x", b, enc)
			}
		}
		if dm, err := DecodeDocMap(b); err == nil {
			if enc := EncodeDocMap(dm); !bytes.Equal(enc, b) {
				t.Fatalf("accepted a non-canonical doc map:\n got %x\nre-encodes %x", b, enc)
			}
		}
	})
}
