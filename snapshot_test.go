package authtext

import (
	"bytes"
	"testing"
)

func snapshotTestDocs() []Document {
	texts := []string{
		"professional users require integrity assurance from paid content services",
		"a merkle hash tree authenticates messages by signing the root digest",
		"threshold algorithms pop the entry with the highest term score",
		"the verification object contains digests to recompute the signed root",
		"sorted access maintains lower and upper bounds for candidate documents",
		"signatures generated with the private key verify with the public key",
		"the frequency ordered inverted index stores impact entries",
		"an audit trail archives verification objects for every decision",
	}
	docs := make([]Document, len(texts))
	for i, s := range texts {
		docs[i] = Document{Content: []byte(s)}
	}
	return docs
}

// TestSnapshotRoundTrip is the acceptance path: build → WriteSnapshot →
// OpenSnapshot must serve TRA and TNRA queries under both schemes whose
// VOs verify against a Client created from the ORIGINAL in-memory owner,
// and the published verification material must be byte-identical across
// the round trip.
func TestSnapshotRoundTrip(t *testing.T) {
	owner, err := NewOwner(snapshotTestDocs())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := owner.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snapServer, snapClient, err := OpenSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	origExport, err := owner.ExportClient()
	if err != nil {
		t.Fatal(err)
	}
	snapExport, err := snapClient.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(origExport, snapExport) {
		t.Error("manifest + signature + key changed across the snapshot round trip")
	}

	origClient := owner.Client()
	query := "merkle tree root"
	for _, algo := range []Algorithm{TRA, TNRA} {
		for _, scheme := range []Scheme{MHT, ChainMHT} {
			res, err := snapServer.Search(query, 3, algo, scheme)
			if err != nil {
				t.Fatalf("%s-%s: %v", algo, scheme, err)
			}
			if len(res.Hits) == 0 {
				t.Fatalf("%s-%s: no hits", algo, scheme)
			}
			if err := origClient.Verify(query, 3, res); err != nil {
				t.Errorf("%s-%s: original owner's client rejected snapshot server: %v", algo, scheme, err)
			}
			if err := snapClient.Verify(query, 3, res); err != nil {
				t.Errorf("%s-%s: snapshot client rejected snapshot server: %v", algo, scheme, err)
			}
		}
	}

	// Unknown-term queries exercise the vocabulary proofs after reopen.
	res, err := snapServer.Search("merkle xylophone", 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := origClient.Verify("merkle xylophone", 3, res); err != nil {
		t.Errorf("vocab proof after reopen: %v", err)
	}
}

// TestSnapshotFlippedByteRejected flips single bytes across the artifact:
// every flip must either fail to open (checksums) or — if it were to open —
// produce responses the client rejects. With per-section CRCs the first arm
// triggers for raw flips; the consistent-adversary arm is exercised in
// internal/snapshot's tamper tests.
func TestSnapshotFlippedByteRejected(t *testing.T) {
	owner, err := NewOwner(snapshotTestDocs())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := owner.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	client := owner.Client()
	for _, off := range []int{9, len(snap) / 5, len(snap) / 3, len(snap) / 2, len(snap) - 2} {
		bad := append([]byte(nil), snap...)
		bad[off] ^= 0x01
		server, _, err := OpenSnapshot(bytes.NewReader(bad))
		if err != nil {
			continue // rejected at open: acceptable arm one
		}
		res, err := server.Search("merkle tree", 3, TNRA, ChainMHT)
		if err != nil {
			continue
		}
		if err := client.Verify("merkle tree", 3, res); err == nil {
			t.Errorf("byte flip at %d survived open AND verification", off)
		}
	}
}

// TestOpenSnapshotGarbage makes sure hostile non-snapshots error cleanly.
func TestOpenSnapshotGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("x"), []byte("ATSN"), bytes.Repeat([]byte{0xff}, 4096)} {
		if _, _, err := OpenSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("garbage input %q accepted", data[:min(len(data), 8)])
		}
	}
}
