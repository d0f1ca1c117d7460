package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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
// not a second code path with its own semantics. The document bodies a
// search returns are heap copies: they read back after Close.
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
	defer m.Close()

	wantM, wantSig := copied.Manifest()
	gotM, gotSig := m.Collection().Manifest()
	if !bytes.Equal(wantM.Encode(), gotM.Encode()) {
		t.Fatal("mapped open decoded a different manifest")
	}
	if !bytes.Equal(wantSig, gotSig) {
		t.Fatal("mapped open decoded a different manifest signature")
	}

	tokens := queryTokens(copied)
	var held *engine.Result
	for _, algo := range []core.Algo{core.AlgoTRA, core.AlgoTNRA} {
		for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
			if err := searchAndVerify(t, m.Collection(), tokens, algo, scheme); err != nil {
				t.Fatalf("%v/%v on the mapped collection: %v", algo, scheme, err)
			}
			_, wantVO, _, err := copied.Search(tokens, 5, algo, scheme)
			if err != nil {
				t.Fatal(err)
			}
			res, gotVO, _, err := m.Collection().Search(tokens, 5, algo, scheme)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantVO, gotVO) {
				t.Fatalf("%v/%v: mapped VO differs from Open's", algo, scheme)
			}
			held = res
		}
	}
	if len(held.Contents) == 0 {
		t.Fatal("the held answer has no documents")
	}
	m.Close()
	for d, body := range held.Contents {
		if !bytes.Equal(body, copied.Index().Content[d]) {
			t.Fatalf("document %d reads back differently after Close", d)
		}
	}
}

// waitMappedBytes runs the collector until the mapped-bytes gauge reads
// want, failing the test if it has not within a few seconds.
func waitMappedBytes(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for MappedBytes() != want {
		if time.Now().After(deadline) {
			t.Fatalf("mapped-bytes gauge reads %d, want %d", MappedBytes(), want)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestMappedRefcounting pins the lifetime rule: a mapping lives exactly as
// long as a collection decoded from it is reachable. The gauge holds, and
// the collection serves, while only the collection is held; it returns to
// baseline once the collection is collected, and at Close — after which the
// finalizer must not unmap a second time. (The name predates the rule: a
// mapping used to be reference-counted.)
func TestMappedRefcounting(t *testing.T) {
	col := buildCollection(t, nil)
	path := writeSnapshotFile(t, encode(t, col))
	tokens := queryTokens(col)

	base := MappedBytes()
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if !m.mp.osMap {
		t.Skip("no OS mapping on this platform")
	}
	size := m.SizeBytes()
	if MappedBytes() != base+size {
		t.Fatalf("gauge %d after mapping %d bytes over %d", MappedBytes(), size, base)
	}
	held := m.Collection()
	m = nil
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if MappedBytes() != base+size {
		t.Fatal("the mapping was released while its collection was reachable")
	}
	if err := searchAndVerify(t, held, tokens, core.AlgoTRA, core.SchemeCMHT); err != nil {
		t.Fatal(err)
	}
	held = nil
	waitMappedBytes(t, base)

	m, err = OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close()
	if MappedBytes() != base {
		t.Fatalf("gauge %d after Close, want %d", MappedBytes(), base)
	}
	m = nil
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if MappedBytes() != base {
		t.Fatalf("the finalizer unmapped a closed mapping again: gauge %d, want %d", MappedBytes(), base)
	}
}

// TestMappedSmallSectionCorruptionFailsOpen: a flipped manifest byte must
// fail OpenMapped itself, before any collection exists.
func TestMappedSmallSectionCorruptionFailsOpen(t *testing.T) {
	col := buildCollection(t, nil)
	bad := tamper(t, encode(t, col), secManifest, 3, false)
	path := writeSnapshotFile(t, bad)
	base := MappedBytes()
	if m, err := OpenMapped(path); err == nil {
		m.Close()
		t.Fatal("corrupted small section opened successfully")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("unexpected error: %v", err)
	}
	if MappedBytes() != base {
		t.Fatal("a failed open left its file mapped")
	}
}

// bulkSection is the size from which older builds checked a mapped
// section's CRC in the background, after the open had returned.
const bulkSection = 1 << 20

// A small-profile snapshot whose store section is larger than bulkSection,
// shared by the bulk-section tests (building it is the expensive part).
var bulkFixture struct {
	once sync.Once
	snap []byte
	err  error
}

func bulkSnapshot(t *testing.T) []byte {
	t.Helper()
	bulkFixture.once.Do(func() {
		signer, err := sig.NewHMACSigner([]byte("mapped-deferred"), 128)
		if err != nil {
			bulkFixture.err = err
			return
		}
		col, err := engine.BuildCollection(corpus.Generate(corpus.Small()), engine.DefaultConfig(signer))
		if err != nil {
			bulkFixture.err = err
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, col); err != nil {
			bulkFixture.err = err
			return
		}
		bulkFixture.snap = buf.Bytes()
	})
	if bulkFixture.err != nil {
		t.Fatal(bulkFixture.err)
	}
	return bulkFixture.snap
}

// TestMappedDeferredCorruptionPoisons: a flipped bit in a bulk section
// fails OpenMapped itself with the checksum error, exactly as it fails
// Open; no collection over the corrupted file ever serves. (The name
// predates the one CRC schedule, when a bulk section was checked after the
// open returned and a mismatch poisoned the device.)
func TestMappedDeferredCorruptionPoisons(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a small-profile collection")
	}
	snap := bulkSnapshot(t)
	start, end, _ := sectionRange(t, snap, secStore)
	if end-start < bulkSection {
		t.Fatalf("store section only %d bytes — not a bulk section; grow the corpus", end-start)
	}
	bad := tamper(t, snap, secStore, (end-start)/2, false)
	path := writeSnapshotFile(t, bad)

	base := MappedBytes()
	m, err := OpenMapped(path)
	if err == nil {
		m.Close()
		t.Fatal("a corrupted store section opened mapped")
	}
	if !strings.Contains(err.Error(), "section 4 fails its checksum") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, heapErr := Open(bytes.NewReader(bad)); heapErr == nil || heapErr.Error() != err.Error() {
		t.Fatalf("Open reports %v, OpenMapped %v", heapErr, err)
	}
	if MappedBytes() != base {
		t.Fatal("a failed open left its file mapped")
	}
}

// TestMappedDeferredIntactValidates is the control: the same
// small-profile snapshot, unmodified, opens mapped and serves verifiable
// results.
func TestMappedDeferredIntactValidates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a small-profile collection")
	}
	m, err := OpenMapped(writeSnapshotFile(t, bulkSnapshot(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := searchAndVerify(t, m.Collection(), queryTokens(m.Collection()), core.AlgoTNRA, core.SchemeCMHT); err != nil {
		t.Fatal(err)
	}
}
