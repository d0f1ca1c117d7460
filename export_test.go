package authtext

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"authtext/internal/core"
	"authtext/internal/engine"
	"authtext/internal/live"
	"authtext/internal/shard"
)

// WithFastSigner replaces RSA with a keyed-hash signer of identical
// signature size. Builds become orders of magnitude faster but signatures
// are only verifiable by holders of the key — benchmarking only.
func WithFastSigner(key []byte) Option {
	return func(o *options) { o.fastSignerKey = key; o.signerOverridden = true }
}

// WithSingletonTerms keeps terms that occur in only one document (the paper
// removes them, §4.1), so the tests' tiny corpora stay indexable.
func WithSingletonTerms() Option { return func(o *options) { o.keepSingletons = true } }

// NewListModeOwnerForTest builds docs as owners were built before dictionary
// mode became the only one: one signature per inverted list and no
// vocabulary proofs — bare for 0 shards, else a round-robin shard set. Its
// snapshots and exports are what an older build left behind; tests write
// them and reopen them, as a server or client meets an old artifact.
func NewListModeOwnerForTest(docs []Document, shards int, opts ...Option) (*Owner, error) {
	cfg, idocs, err := prepareBuild(docs, opts)
	if err != nil {
		return nil, err
	}
	cfg.DictMode, cfg.VocabProofs = false, false
	if shards == 0 {
		col, err := engine.BuildCollection(idocs, cfg)
		if err != nil {
			return nil, err
		}
		return &Owner{v: served{col: col}}, nil
	}
	set, err := shard.Build(idocs, shard.Config{Engine: cfg, Shards: shards})
	if err != nil {
		return nil, err
	}
	return &Owner{v: served{set: set}}, nil
}

// NewListModeLiveOwnerForTest is NewListModeOwnerForTest for a live owner,
// bare for 0 shards: an owner still running an older build, whose snapshot
// directories upgraded replicas open and reload.
func NewListModeLiveOwnerForTest(docs []Document, shards int, opts ...Option) (*LiveOwner, []DocHandle, error) {
	cfg, idocs, err := prepareBuild(docs, opts)
	if err != nil {
		return nil, nil, err
	}
	cfg.DictMode, cfg.VocabProofs = false, false
	var (
		lc      *live.Collection
		handles []uint64
	)
	if shards == 0 {
		lc, handles, err = live.New(idocs, cfg)
	} else {
		lc, handles, err = live.NewSharded(idocs, cfg, shards)
	}
	if err != nil {
		return nil, nil, err
	}
	return &LiveOwner{lc: lc}, docHandles(handles), nil
}

func TestExportImportClient(t *testing.T) {
	o := owner(t)
	blob, err := o.Client().Export()
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
	if _, err := o.Client().Export(); err == nil {
		t.Fatal("fast-signer collection exported")
	}
}

func TestImportRejectsTamperedExport(t *testing.T) {
	o := owner(t)
	blob, err := o.Client().Export()
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
	blob, err := o.Client().Export()
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
// list-mode owner: an RSA-signed manifest carrying the variant mask, as a
// client bootstraps from it. It is the root suite's check that an export an
// older build wrote (per-list signatures, no vocabulary proofs) still
// bootstraps a client. The fixture decodes, verifies, keeps that mode, lists
// exactly that variant, and re-exports byte-identically. Regenerate with
// UPDATE_GOLDEN=1 only alongside a deliberate export or manifest format
// change; regeneration builds in list mode, so the fixture keeps its mode.
func TestVariantSubsetExportGolden(t *testing.T) {
	const golden = "testdata/atcx-tnra-cmht.bin"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		o, err := NewListModeOwnerForTest(newsDocs(), 0, WithVariants(Variant{TNRA, ChainMHT}))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := o.Client().Export()
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
	if m := client.manifest; m.DictMode || m.VocabProofsEnabled {
		t.Fatalf("the fixture is no longer list mode: DictMode %v, VocabProofsEnabled %v", m.DictMode, m.VocabProofsEnabled)
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
