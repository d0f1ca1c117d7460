package authtext

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Facade-level mapped-open suite: OpenSnapshotMapped, the sharded
// directory variant and the mapped LiveReplica must be drop-in
// replacements for the unmapped opens — same answers, same verification
// verdicts — with the lifetime rules (Close, pinned servers across
// generation swaps) actually holding.

func writeOwnerSnapshot(t *testing.T, o *Owner) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "col.atsn")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMappedSnapshotServesIdentically: the mapped open answers exactly
// like the unmapped open — byte-identical VOs — and its answers verify
// against both its own client and the original owner's.
func TestMappedSnapshotServesIdentically(t *testing.T) {
	owner, err := NewOwner(snapshotTestDocs(), WithVocabularyProofs())
	if err != nil {
		t.Fatal(err)
	}
	path := writeOwnerSnapshot(t, owner)

	copyServer, _, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if err := ms.Validate(); err != nil {
		t.Fatalf("background validation failed on an intact snapshot: %v", err)
	}
	if ms.SizeBytes() == 0 {
		t.Fatal("mapped snapshot reports zero size")
	}

	query := "merkle tree root"
	origClient := owner.Client()
	for _, algo := range []Algorithm{TRA, TNRA} {
		for _, scheme := range []Scheme{MHT, ChainMHT} {
			want, err := copyServer.Search(query, 3, algo, scheme)
			if err != nil {
				t.Fatalf("%s-%s: unmapped server: %v", algo, scheme, err)
			}
			got, err := ms.Server().Search(query, 3, algo, scheme)
			if err != nil {
				t.Fatalf("%s-%s: mapped server: %v", algo, scheme, err)
			}
			if !bytes.Equal(want.VO, got.VO) {
				t.Fatalf("%s-%s: mapped VO differs from the unmapped open's", algo, scheme)
			}
			if err := ms.Client().Verify(query, 3, got); err != nil {
				t.Errorf("%s-%s: mapped client rejected mapped server: %v", algo, scheme, err)
			}
			if err := origClient.Verify(query, 3, got); err != nil {
				t.Errorf("%s-%s: original owner's client rejected mapped server: %v", algo, scheme, err)
			}
		}
	}
}

// TestShardedSnapshotDirMapped: the mapped sharded open performs the
// same signed-set cross-checks and serves verifiable merged results.
func TestShardedSnapshotDirMapped(t *testing.T) {
	owner, err := NewShardedOwner(shardedTestDocs(), 3,
		WithFastSigner([]byte("sharded-mapped")), WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := owner.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}

	ms, err := OpenSnapshotMapped(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if err := ms.Validate(); err != nil {
		t.Fatalf("background validation failed on an intact directory: %v", err)
	}
	res, err := ms.Server().Search(shardedQuery, 5, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Client().Verify(shardedQuery, 5, res); err != nil {
		t.Fatalf("mapped sharded answer failed verification: %v", err)
	}
	if err := owner.Client().Verify(shardedQuery, 5, res); err != nil {
		t.Fatalf("owner's client rejected the mapped sharded answer: %v", err)
	}

	// A swapped shard file must fail the mapped open's cross-checks just
	// like the unmapped open's.
	if err := os.Rename(filepath.Join(dir, shardSnapshotName(0)),
		filepath.Join(dir, shardSnapshotName(0)+".bak")); err != nil {
		t.Fatal(err)
	}
	if bad, err := OpenSnapshotMapped(dir); err == nil {
		bad.Close()
		t.Fatal("mapped open accepted a directory missing a shard")
	}
}

// TestLiveReplicaMappedSwap: a mapped replica hot-swaps generations, a
// Server() pinned before the swap keeps answering its own generation
// (its pages stay mapped until the handle is collected), and the
// post-swap replica serves the new generation.
func TestLiveReplicaMappedSwap(t *testing.T) {
	dir := t.TempDir()
	owner, _, err := NewLiveOwner(liveDocs(0, 12), WithFastSigner([]byte("live-mapped")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	replica, err := OpenLiveSnapshotDirMapped(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if replica.Generation() != 1 {
		t.Fatalf("replica generation = %d", replica.Generation())
	}

	pinned := replica.Server()
	client1 := replica.Client()
	res1, err := pinned.Search(liveQuery, 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := client1.Verify(liveQuery, 3, res1); err != nil {
		t.Fatalf("generation-1 answer failed verification: %v", err)
	}

	// Publish generation 2 and swap.
	if _, _, err := owner.Update(liveDocs(12, 2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	swapped, err := replica.Reload()
	if err != nil || !swapped {
		t.Fatalf("reload = (%v, %v), want swap", swapped, err)
	}
	if replica.Generation() != 2 {
		t.Fatalf("replica generation after reload = %d", replica.Generation())
	}

	// The superseded generation's mapping must survive for the pinned
	// handle: it still answers, and its answers still verify against the
	// generation-1 client — even after GC runs (nothing may have unmapped
	// the pages under the reader).
	runtime.GC()
	res1b, err := pinned.Search(liveQuery, 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatalf("pinned generation-1 server failed after swap: %v", err)
	}
	if err := client1.Verify(liveQuery, 3, res1b); err != nil {
		t.Fatalf("pinned generation-1 answer failed verification after swap: %v", err)
	}
	if !bytes.Equal(res1.VO, res1b.VO) {
		t.Fatal("pinned server's answers changed across the swap")
	}

	res2, err := replica.Server().Search(liveQuery, 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Client().Verify(liveQuery, 3, res2); err != nil {
		t.Fatalf("generation-2 answer failed verification: %v", err)
	}
	if res2.Generation != 2 {
		t.Fatalf("generation-2 server answered with generation %d", res2.Generation)
	}
}
