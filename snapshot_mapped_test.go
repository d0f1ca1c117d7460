package authtext

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"authtext/internal/corpus"
	"authtext/internal/snapshot"
)

// Facade-level mapped-open suite: the integrity and lifetime rules of
// OpenSnapshotMapped, its sharded directory variant and the mapped
// LiveReplica (corrupted generations, pinned servers and held answers across
// generation swaps). That the mapped opens answer exactly like the copying
// ones is the shape matrix's mapped shapes.

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
// mapped replica, with the handler's cache, keeps its generation's pages
// mapped for as long as it is reachable, so a request in flight across a
// swap still reads them.
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
	// Give every unreachable mapping's finalizer the chance to run.
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

// settledMappedBytes runs the collector until the mapped-bytes gauge stops
// moving — mappings other tests dropped are unmapped by then — and returns
// it.
func settledMappedBytes() int64 {
	last := snapshot.MappedBytes()
	for stable := 0; stable < 3; {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		if now := snapshot.MappedBytes(); now != last {
			last, stable = now, 0
		} else {
			stable++
		}
	}
	return last
}

// TestMappedReplicaAnswerOutlivesGeneration: an answer taken from a mapped
// replica is the caller's for as long as it holds it. Its server is dropped
// and the replica swaps forward; once the gauge shows the old generation
// unmapped, every hit's content still reads back as its document.
func TestMappedReplicaAnswerOutlivesGeneration(t *testing.T) {
	dir := t.TempDir()
	docs := liveDocs(0, 12)
	owner, _, err := NewLiveOwner(docs, WithFastSigner([]byte("mapped-answer")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	base := settledMappedBytes()
	replica, err := OpenLiveSnapshotDirMapped(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if snapshot.MappedBytes() == base {
		t.Skip("no OS mapping on this platform")
	}
	res, err := replica.Server().Search(liveQuery, 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Client().Verify(liveQuery, 3, res); err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits to hold")
	}

	if _, _, err := owner.Update(liveDocs(12, 2), nil); err != nil {
		t.Fatal(err)
	}
	path, err := owner.WriteSnapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if swapped, err := replica.Reload(); err != nil || !swapped {
		t.Fatalf("reload = (%v, %v), want swap", swapped, err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for snapshot.MappedBytes() != base+info.Size() {
		if time.Now().After(deadline) {
			t.Fatalf("generation 1 stayed mapped: gauge %d, generation 2 alone is %d", snapshot.MappedBytes(), base+info.Size())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	for _, h := range res.Hits {
		if !bytes.Equal(h.Content, docs[h.GlobalID].Content) {
			t.Fatalf("hit %d reads back %q after its generation unmapped", h.GlobalID, h.Content)
		}
	}
}

// corruptStoreSection flips one byte in the middle of the block-store
// section (id 4) of the ATSN file at path, leaving its CRC stale, and
// returns the section's size.
func corruptStoreSection(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 8; off+16 <= len(b); {
		id, length := binary.BigEndian.Uint16(b[off:]), int(binary.BigEndian.Uint64(b[off+8:]))
		if id == 4 {
			b[off+16+length/2] ^= 0x40
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return length
		}
		off += 16 + length
	}
	t.Fatalf("%s has no store section", path)
	return 0
}

// TestReplicaRefusesCorruptedGeneration: a generation whose bulk section
// fails its checksum is refused by Reload with the plain checksum error, on
// heap and mapped replicas of a bare collection and of a shard set alike.
// The replica stays on the generation it serves, its answers keep
// verifying, and nothing about the refusal looks like tampering.
func TestReplicaRefusesCorruptedGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds small-profile collections")
	}
	var docs []Document
	for _, d := range corpus.Generate(corpus.Small()) {
		docs = append(docs, Document{Content: d.Content})
	}
	tnra := WithVariants(Variant{TNRA, ChainMHT})
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var owner *LiveOwner
			var err error
			if shards == 0 {
				owner, _, err = NewLiveOwner(docs, WithFastSigner([]byte("corrupt-gen")), tnra)
			} else {
				owner, _, err = NewLiveShardedOwner(docs, shards, WithFastSigner([]byte("corrupt-gen")), tnra)
			}
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if _, err := owner.WriteSnapshotDir(dir); err != nil {
				t.Fatal(err)
			}
			replicas := map[string]*LiveReplica{}
			for name, open := range map[string]func(string) (*LiveReplica, error){
				"heap": OpenLiveSnapshotDir, "mapped": OpenLiveSnapshotDirMapped,
			} {
				if replicas[name], err = open(dir); err != nil {
					t.Fatal(err)
				}
				defer replicas[name].Close()
			}

			if _, _, err := owner.AddDocuments(docs[:1]); err != nil {
				t.Fatal(err)
			}
			path, err := owner.WriteSnapshotDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if shards > 0 {
				path = filepath.Join(path, shardSnapshotName(0))
			}
			if size := corruptStoreSection(t, path); size <= 1<<20 {
				t.Fatalf("store section is %d bytes: not a bulk section", size)
			}

			query := strings.Join(strings.Fields(string(docs[0].Content))[:3], " ")
			for name, replica := range replicas {
				swapped, err := replica.Reload()
				if swapped || err == nil || !strings.Contains(err.Error(), "section 4 fails its checksum") {
					t.Fatalf("%s: reload = (%v, %v), want the checksum error", name, swapped, err)
				}
				if IsTampered(err) {
					t.Fatalf("%s: a corrupted snapshot classified as tampering: %v", name, err)
				}
				if g := replica.Generation(); g != 1 {
					t.Fatalf("%s: serving generation %d after the refusal", name, g)
				}
				res, err := replica.Server().Search(query, 10, TNRA, ChainMHT)
				if err == nil {
					err = replica.Client().Verify(query, 10, res)
				}
				if err != nil || IsTampered(err) || len(res.Hits) == 0 {
					t.Fatalf("%s: generation 1 stopped answering: %v", name, err)
				}
			}
		})
	}
}
