package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"authtext/internal/core"
	"authtext/internal/corpus"
	"authtext/internal/engine"
	"authtext/internal/sig"
)

func writeSnapshotFile(t testing.TB, snap []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "col.snap")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMappedMatchesOpen: the mapped open serves the same collection as
// Open — same manifest, same signature, and byte-identical verification
// objects for the same query. Where the bytes live is the only difference,
// not a second code path with its own semantics.
func TestMappedMatchesOpen(t *testing.T) {
	col := buildCollection(t, nil)
	snap := encode(t, col)
	path := writeSnapshotFile(t, snap)

	copied, err := Open(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if err := m.Wait(); err != nil {
		t.Fatalf("background validation failed on an intact snapshot: %v", err)
	}

	wantM, wantSig := copied.Manifest()
	gotM, gotSig := m.Collection().Manifest()
	if !bytes.Equal(wantM.Encode(), gotM.Encode()) {
		t.Fatal("mapped open decoded a different manifest")
	}
	if !bytes.Equal(wantSig, gotSig) {
		t.Fatal("mapped open decoded a different manifest signature")
	}

	tokens := queryTokens(copied)
	for _, algo := range []core.Algo{core.AlgoTRA, core.AlgoTNRA} {
		for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
			if err := searchAndVerify(t, m.Collection(), tokens, algo, scheme); err != nil {
				t.Fatalf("%v/%v on the mapped collection: %v", algo, scheme, err)
			}
			_, wantVO, _, err := copied.Search(tokens, 5, algo, scheme)
			if err != nil {
				t.Fatal(err)
			}
			_, gotVO, _, err := m.Collection().Search(tokens, 5, algo, scheme)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantVO, gotVO) {
				t.Fatalf("%v/%v: mapped VO differs from Open's", algo, scheme)
			}
		}
	}
}

// TestMappedRefcounting pins the lifetime contract: Retain succeeds
// while a reference is held, the pages (and the mapped-bytes gauge)
// survive until the last Release, and Retain after the final release
// reports the mapping gone instead of resurrecting it.
func TestMappedRefcounting(t *testing.T) {
	col := buildCollection(t, nil)
	path := writeSnapshotFile(t, encode(t, col))

	base := MappedBytes()
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(); err != nil { // background hold released after this
		t.Fatal(err)
	}
	if m.osMap && MappedBytes() <= base {
		t.Fatal("mapped-bytes gauge did not grow on open")
	}
	if !m.Retain() {
		t.Fatal("Retain failed while the opener's reference is live")
	}
	m.Release() // drop the retain
	m.Release() // drop the opener's reference — last one, unmaps
	if m.Retain() {
		t.Fatal("Retain succeeded after the last release")
	}
	if got := MappedBytes(); got != base {
		t.Fatalf("mapped-bytes gauge did not return to baseline: %d != %d", got, base)
	}
}

// TestMappedSmallSectionCorruptionFailsOpen: sections below
// deferredCRCMin keep their open-path CRC — a flipped manifest byte
// must fail OpenMapped itself, before any collection exists.
func TestMappedSmallSectionCorruptionFailsOpen(t *testing.T) {
	col := buildCollection(t, nil)
	snap := encode(t, col)
	start, end, _ := sectionRange(t, snap, secManifest)
	if end-start >= deferredCRCMin {
		t.Fatalf("manifest section unexpectedly large (%d bytes); pick a smaller one", end-start)
	}
	bad := tamper(t, snap, secManifest, 3, false)
	path := writeSnapshotFile(t, bad)
	if m, err := OpenMapped(path); err == nil {
		m.Release()
		t.Fatal("corrupted small section opened successfully")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// A small-profile snapshot whose store section crosses the deferred-CRC
// threshold, shared across the deferred-validation tests (building it
// is the expensive part).
var deferredFixture struct {
	once sync.Once
	snap []byte
	err  error
}

func deferredSnapshot(t *testing.T) []byte {
	t.Helper()
	deferredFixture.once.Do(func() {
		signer, err := sig.NewHMACSigner([]byte("mapped-deferred"), 128)
		if err != nil {
			deferredFixture.err = err
			return
		}
		col, err := engine.BuildCollection(corpus.Generate(corpus.Small()), engine.DefaultConfig(signer))
		if err != nil {
			deferredFixture.err = err
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, col); err != nil {
			deferredFixture.err = err
			return
		}
		deferredFixture.snap = buf.Bytes()
	})
	if deferredFixture.err != nil {
		t.Fatal(deferredFixture.err)
	}
	return deferredFixture.snap
}

// TestMappedDeferredCorruptionPoisons: a flipped bit in a bulk section
// (validated off the open path) must not open a healthy-looking server —
// the background scan reports it via Wait and poisons the device, so
// reads after detection fail too.
func TestMappedDeferredCorruptionPoisons(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a small-profile collection")
	}
	snap := deferredSnapshot(t)
	start, end, _ := sectionRange(t, snap, secStore)
	if end-start < deferredCRCMin {
		t.Fatalf("store section only %d bytes — below the deferred threshold; grow the corpus", end-start)
	}
	bad := tamper(t, snap, secStore, (end-start)/2, false)
	path := writeSnapshotFile(t, bad)

	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("deferred-section corruption failed the open inline: %v", err)
	}
	defer m.Release()
	if err := m.Wait(); err == nil {
		t.Fatal("background validation passed a corrupted store section")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("unexpected verdict: %v", err)
	}
	// The device is poisoned: searches fail instead of serving reads
	// from a file known to be corrupt.
	tokens := queryTokens(m.Collection())
	if _, _, _, err := m.Collection().Search(tokens, 5, core.AlgoTNRA, core.SchemeCMHT); err == nil {
		t.Fatal("search succeeded on a poisoned device")
	}
}

// TestMappedDeferredIntactValidates is the control: the same
// small-profile snapshot, unmodified, opens mapped, validates clean and
// serves verifiable results.
func TestMappedDeferredIntactValidates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a small-profile collection")
	}
	snap := deferredSnapshot(t)
	path := writeSnapshotFile(t, snap)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if err := m.Wait(); err != nil {
		t.Fatalf("background validation failed on an intact snapshot: %v", err)
	}
	if err := searchAndVerify(t, m.Collection(), queryTokens(m.Collection()), core.AlgoTNRA, core.SchemeCMHT); err != nil {
		t.Fatal(err)
	}
}
