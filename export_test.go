package authtext

import (
	"testing"
)

func TestExportImportClient(t *testing.T) {
	o := owner(t)
	blob, err := o.ExportClient()
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClientFromExport(blob)
	if err != nil {
		t.Fatal(err)
	}
	server := o.Server()
	res, err := server.Search("patent examiner", 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Verify("patent examiner", 3, res); err != nil {
		t.Fatalf("imported client rejected a valid result: %v", err)
	}
	// And it still detects tampering.
	if len(res.Hits) > 0 {
		res.Hits[0].Score += 1
		if err := client.Verify("patent examiner", 3, res); err == nil {
			t.Fatal("imported client accepted a tampered result")
		}
	}
}

func TestExportRejectsFastSigner(t *testing.T) {
	o, err := NewOwner(newsDocs(), WithFastSigner([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.ExportClient(); err == nil {
		t.Fatal("fast-signer collection exported")
	}
}

func TestImportRejectsTamperedExport(t *testing.T) {
	o := owner(t)
	blob, err := o.ExportClient()
	if err != nil {
		t.Fatal(err)
	}
	for _, offset := range []int{0, 6, len(blob) / 2, len(blob) - 3} {
		bad := append([]byte{}, blob...)
		bad[offset] ^= 0x40
		if _, err := NewClientFromExport(bad); err == nil {
			t.Fatalf("tampered export (offset %d) accepted", offset)
		}
	}
	if _, err := NewClientFromExport(blob[:10]); err == nil {
		t.Fatal("truncated export accepted")
	}
	if _, err := NewClientFromExport(append(blob, 0)); err == nil {
		t.Fatal("padded export accepted")
	}
}

func TestManifestDecodeRoundTripViaExport(t *testing.T) {
	o := owner(t)
	m, _ := o.v.col.Manifest()
	blob, err := o.ExportClient()
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClientFromExport(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := client.manifest
	if got.N != m.N || got.M != m.M || got.HashSize != m.HashSize ||
		got.BlockSize != m.BlockSize || got.DictMode != m.DictMode ||
		got.VocabProofsEnabled != m.VocabProofsEnabled {
		t.Fatalf("manifest fields lost in round trip:\n in: %+v\nout: %+v", m, got)
	}
	if string(got.DocHashRoot) != string(m.DocHashRoot) {
		t.Fatal("doc hash root lost")
	}
	if string(got.NameDictRoot) != string(m.NameDictRoot) {
		t.Fatal("name dict root lost")
	}
}
