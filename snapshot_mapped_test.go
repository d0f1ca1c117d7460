package authtext

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// Facade-level mapped-open suite: the lifetime rules of OpenSnapshotMapped,
// its sharded directory variant and the mapped LiveReplica (Close, pinned
// servers across generation swaps). That the mapped opens answer exactly
// like the copying ones is the shape matrix's mapped shapes.

// TestShardedSnapshotDirMapped: the mapped sharded open performs the same
// signed-set cross-checks as the copying one. (That it answers like the
// copying open is the shape matrix's static-mapped-sharded shape.)
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
	ms.Close()

	// A missing shard file must fail the mapped open's cross-checks just
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

// TestMappedReplicaHandlerPinKeepsPages: the server a handler pins on a
// mapped replica, with the handler's cache, is the one holding the page
// reference — no copy of it that could outlive its finalizer — so a
// request in flight across a swap keeps its generation's pages mapped.
func TestMappedReplicaHandlerPinKeepsPages(t *testing.T) {
	dir := t.TempDir()
	owner, _, err := NewLiveOwner(liveDocs(0, 12), WithFastSigner([]byte("mapped-pin")))
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
	client1 := replica.Client()
	b := &backend{src: replica, opts: handlerOptions{cache: NewVOCache(1 << 20)}}
	srv := b.pin()

	if _, _, err := owner.Update(liveDocs(12, 2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	if swapped, err := replica.Reload(); err != nil || !swapped {
		t.Fatalf("reload = (%v, %v), want swap", swapped, err)
	}
	// Give every unreachable pin's finalizer the chance to run.
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	res, err := srv.Search(liveQuery, 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := client1.Verify(liveQuery, 3, res); err != nil {
		t.Fatalf("the pinned generation-1 answer failed verification after the swap: %v", err)
	}
}
