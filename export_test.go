package authtext

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"authtext/internal/core"
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

// TestVariantSubsetExportGolden pins the ATCX blob of a TNRA-CMHT-only
// owner: an RSA-signed manifest carrying the variant mask, as a client
// bootstraps from it. The fixture decodes, verifies, lists exactly that
// variant, and re-exports byte-identically. Regenerate with UPDATE_GOLDEN=1
// only alongside a deliberate export or manifest format change.
func TestVariantSubsetExportGolden(t *testing.T) {
	const golden = "testdata/atcx-tnra-cmht.bin"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		o, err := NewOwner(newsDocs(), WithVariants(Variant{TNRA, ChainMHT}))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := o.ExportClient()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClientFromExport(raw)
	if err != nil {
		t.Fatal(err)
	}
	if set := client.variantSet(); set != core.VariantOf(core.KindTNRACMHT) {
		t.Fatalf("variants %v, want tnra-cmht", set)
	}
	if again, err := client.Export(); err != nil || !bytes.Equal(again, raw) {
		t.Fatalf("re-export differs (err %v)", err)
	}
	if err := client.checkVariant(TRA, ChainMHT); !errors.Is(err, ErrVariantNotBuilt) || IsTampered(err) {
		t.Fatalf("TRA-CMHT against the golden manifest: %v", err)
	}
}
