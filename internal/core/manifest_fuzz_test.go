package core

import (
	"bytes"
	"os"
	"testing"
)

// FuzzDecodeManifest feeds hostile bytes to the manifest decoder. A client
// verifies the owner's signature over the bytes it received and then
// decodes them, so the decoder must never panic, and an accepted input must
// be the canonical encoding of what it decoded to: re-encoding gives the
// same bytes back, or two encodings would carry one signature.
func FuzzDecodeManifest(f *testing.F) {
	dict := sampleManifest()
	dict.DictMode = true
	dict.VocabProofsEnabled = true
	dict.NameDictRoot = make([]byte, 16)
	dict.DictRoots = [4][]byte{3: make([]byte, 16)}
	dict.Variants = VariantOf(KindTNRACMHT)
	boosted := sampleManifest()
	boosted.Boosted, boosted.Beta, boosted.AMax = true, 0.5, 1
	boosted.AuthorityRoot = make([]byte, 16)
	boosted.Generation = 9
	future := treeManifest(4)
	future.Extensions = []Extension{{Tag: 2, Value: []byte("later")}, {Tag: 0x7FFF}}
	for _, m := range []*Manifest{sampleManifest(), tombstonedManifest(), dict, boosted, treeManifest(0), future} {
		f.Add(m.Encode())
	}
	if raw, err := os.ReadFile("testdata/manifest-tnra-cmht.bin"); err == nil {
		f.Add(raw)
	}
	f.Add([]byte("authtext/manifest/v1"))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeManifest(b)
		if err != nil {
			return
		}
		if enc := m.Encode(); !bytes.Equal(enc, b) {
			t.Fatalf("accepted a non-canonical manifest:\n got %x\nre-encodes %x", b, enc)
		}
	})
}
