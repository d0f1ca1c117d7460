package authtext

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"authtext/internal/core"
	"authtext/internal/vo"
)

// Live-collection suite: generation swaps are atomic (searches observe
// whole generations, never a torn mix), and every update-shaped tampering vector — rollback, stale
// answers, removed documents reappearing, mixed-generation shard sets —
// classifies via IsTampered / ErrStaleGeneration.

// liveVocab is closed so that updates do not shift dictionary term IDs
// (which would change every list-mode list's signed message).
var liveVocab = []string{
	"merkle", "tree", "signature", "verification", "inverted", "index",
	"threshold", "algorithm", "random", "access", "digest", "root",
	"chain", "block", "proof", "query", "result", "server", "client", "owner",
}

// liveDoc builds the document at absolute position pos.
func liveDoc(pos int) Document {
	var b []byte
	for j := 0; j < 8; j++ {
		b = append(b, liveVocab[(pos+j)%len(liveVocab)]...)
		b = append(b, ' ')
	}
	for j := 0; j <= pos%5; j++ {
		b = append(b, liveVocab[(pos*7)%len(liveVocab)]...)
		b = append(b, ' ')
	}
	return Document{Content: b}
}

func liveDocs(start, n int) []Document {
	docs := make([]Document, n)
	for i := range docs {
		docs[i] = liveDoc(start + i)
	}
	return docs
}

const liveQuery = "merkle digest proof"

func liveSearchVerify(t *testing.T, srv *Server, c *Client, algo Algorithm, scheme Scheme) *SearchResult {
	t.Helper()
	res, err := srv.Search(liveQuery, 3, algo, scheme)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(liveQuery, 3, res); err != nil {
		t.Fatalf("honest live result failed verification: %v", err)
	}
	return res
}

func TestLiveUpdateVerifyAndRollback(t *testing.T) {
	owner, handles, err := NewLiveOwner(liveDocs(0, 16), WithFastSigner([]byte("live-root")))
	if err != nil {
		t.Fatal(err)
	}
	srv := owner.Server()
	client := owner.Client()
	if got := client.Generation(); got != 1 {
		t.Fatalf("client generation = %d, want 1", got)
	}
	liveSearchVerify(t, srv, client, TNRA, ChainMHT)

	// Keep generation 1's manifest and a generation-1 answer (for both
	// algorithms) around: they become the rollback/replay material.
	gen1Manifest, gen1Sig := owner.ManifestUpdate()
	oldTRA, err := srv.Search(liveQuery, 3, TRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	oldTNRA, err := srv.Search(liveQuery, 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}

	// Publish generation 2: remove one document, add two.
	added, rep, err := owner.Update(liveDocs(16, 2), []DocHandle{handles[0]})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 2 || owner.Generation() != 2 || len(added) != 2 {
		t.Fatalf("update report %+v, added %v", rep, added)
	}
	// The server pinned before the update keeps answering generation 1; a
	// fresh one serves generation 2.
	if res := mustSearch(t, srv, liveQuery); res.Generation != 1 {
		t.Fatalf("pinned server answered generation %d, want 1", res.Generation)
	}
	srv = owner.Server()

	// The old client (still at generation 1) advances with the owner's
	// signed manifest and then verifies generation-2 answers.
	m2, s2 := owner.ManifestUpdate()
	if err := client.Advance(m2, s2); err != nil {
		t.Fatalf("advance to generation 2: %v", err)
	}
	res2 := liveSearchVerify(t, srv, client, TRA, ChainMHT)
	if res2.Generation != 2 {
		t.Fatalf("result generation = %d, want 2", res2.Generation)
	}

	// Rollback: re-presenting generation 1's manifest is tampering.
	err = client.Advance(gen1Manifest, gen1Sig)
	if !errors.Is(err, ErrStaleGeneration) || !IsTampered(err) {
		t.Fatalf("manifest rollback classified as %v", err)
	}

	// Replay: generation-1 answers (including the removed document's
	// hits) against the advanced client are stale for TRA and TNRA alike.
	for name, old := range map[string]*SearchResult{"TRA": oldTRA, "TNRA": oldTNRA} {
		err := client.Verify(liveQuery, 3, old)
		if !errors.Is(err, ErrStaleGeneration) || !IsTampered(err) {
			t.Fatalf("%s replay of generation 1 classified as %v", name, err)
		}
	}

	// A LYING server that rewrites the VO's generation stamp to match the
	// current manifest still fails verification: the rest of the proof
	// material speaks for the old state.
	for name, old := range map[string]*SearchResult{"TRA": oldTRA, "TNRA": oldTNRA} {
		decoded, err := vo.Decode(old.VO)
		if err != nil {
			t.Fatal(err)
		}
		decoded.Generation = 2
		forged, _, err := vo.Encode(decoded, 16)
		if err != nil {
			t.Fatal(err)
		}
		res := &SearchResult{Hits: old.Hits, VO: forged, Generation: 2}
		err = client.Verify(liveQuery, 3, res)
		if err == nil {
			t.Fatalf("%s: forged generation stamp accepted", name)
		}
		if !IsTampered(err) || errors.Is(err, ErrStaleGeneration) {
			t.Fatalf("%s: forged stamp classified as %v (code %v)", name, err, core.CodeOf(err))
		}
	}

	// Unrelated clients bootstrapping fresh at the current generation are
	// unaffected by any of this.
	liveSearchVerify(t, srv, owner.Client(), TNRA, MHT)
}

func TestLiveEquivocationRejected(t *testing.T) {
	// Two different corpora published under the same generation number:
	// a client that accepted one must not accept the other.
	ownerA, _, err := NewLiveOwner(liveDocs(0, 10), WithFastSigner([]byte("equivocate")))
	if err != nil {
		t.Fatal(err)
	}
	ownerB, _, err := NewLiveOwner(liveDocs(5, 10), WithFastSigner([]byte("equivocate")))
	if err != nil {
		t.Fatal(err)
	}
	client := ownerA.Client()
	if err := client.Verify(liveQuery, 3, mustSearch(t, ownerA.Server(), liveQuery)); err != nil {
		t.Fatal(err)
	}
	mB, sB := ownerB.ManifestUpdate()
	err = client.Advance(mB, sB)
	if !errors.Is(err, ErrStaleGeneration) || !IsTampered(err) {
		t.Fatalf("equivocating generation-1 manifest classified as %v", err)
	}
}

func mustSearch(t *testing.T, srv *Server, q string) *SearchResult {
	t.Helper()
	res, err := srv.Search(q, 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLiveConcurrentSearchHammer is the acceptance-criterion hammer: a
// live owner keeps answering verified queries, on a server pinned per
// query, while updates land. Every
// answer verifies against its own generation's manifest — a torn mix of
// two generations would fail with a non-stale tampering code, which the
// test treats as fatal. Honest races (an answer from generation g
// verified after the client advanced past g) classify as stale and are
// retried, never misreported as any other violation.
func TestLiveConcurrentSearchHammer(t *testing.T) {
	const (
		searchers  = 4
		updates    = 8
		docsPerGen = 2
	)
	owner, handles, err := NewLiveOwner(liveDocs(0, 24), WithFastSigner([]byte("hammer")))
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg       sync.WaitGroup
		done     atomic.Bool
		verified atomic.Int64
		retried  atomic.Int64
	)
	errc := make(chan error, searchers+1)
	for w := 0; w < searchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := owner.Client()
			lastGen := uint64(0)
			// Keep hammering for a minimum number of iterations even after
			// the updater finishes, so fast updates still overlap searches.
			for i := 0; i < 50 || !done.Load(); i++ {
				res, err := owner.Server().Search(liveQuery, 3, TNRA, ChainMHT)
				if err != nil {
					errc <- fmt.Errorf("searcher %d: %v", w, err)
					return
				}
				if res.Generation < lastGen {
					errc <- fmt.Errorf("searcher %d: generation went backward %d -> %d", w, lastGen, res.Generation)
					return
				}
				lastGen = res.Generation
				if res.Generation > client.Generation() {
					if err := client.Advance(owner.ManifestUpdate()); err != nil && !errors.Is(err, ErrStaleGeneration) {
						errc <- fmt.Errorf("searcher %d: advance: %v", w, err)
						return
					}
				}
				switch err := client.Verify(liveQuery, 3, res); {
				case err == nil:
					verified.Add(1)
				case errors.Is(err, ErrStaleGeneration):
					// Honest race: the collection moved while this answer
					// was in flight. Retry.
					retried.Add(1)
				default:
					errc <- fmt.Errorf("searcher %d: generation %d answer failed as %v", w, res.Generation, err)
					return
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		next := 24
		for u := 0; u < updates; u++ {
			add := liveDocs(next, docsPerGen)
			next += docsPerGen
			newHandles, _, err := owner.Update(add, handles[:1])
			if err != nil {
				errc <- fmt.Errorf("update %d: %v", u, err)
				return
			}
			handles = append(handles[1:], newHandles...)
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if owner.Generation() != uint64(1+updates) {
		t.Fatalf("final generation %d, want %d", owner.Generation(), 1+updates)
	}
	if verified.Load() == 0 {
		t.Fatal("hammer verified no answers")
	}
	t.Logf("hammer: %d verified, %d stale-retried across %d generations", verified.Load(), retried.Load(), owner.Generation())
}

func TestLiveShardedMixedGenerationRejected(t *testing.T) {
	owner, _, err := NewLiveShardedOwner(liveDocs(0, 32), 4, WithFastSigner([]byte("live-shards")))
	if err != nil {
		t.Fatal(err)
	}
	client := owner.Client() // generation 1
	old, err := owner.Server().Search(liveQuery, 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Verify(liveQuery, 3, old); err != nil {
		t.Fatal(err)
	}
	export1, err := owner.Client().Export()
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := owner.Update(liveDocs(32, 3), nil); err != nil {
		t.Fatal(err)
	}
	if owner.Generation() != 2 {
		t.Fatalf("generation = %d", owner.Generation())
	}
	export2, err := owner.Client().Export()
	if err != nil {
		t.Fatal(err)
	}
	if err := client.AdvanceExport(export2); err != nil {
		t.Fatalf("advance to set generation 2: %v", err)
	}
	// The rebuilt shard clients pin the set client's key.
	for i, sc := range client.set.shards {
		if sc.verifier != client.verifier {
			t.Fatalf("shard client %d pins a key of its own after AdvanceExport", i)
		}
	}
	liveSearchVerify(t, owner.Server(), client, TRA, ChainMHT)
	fresh, err := owner.Server().Search(liveQuery, 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Verify(liveQuery, 3, fresh); err != nil {
		t.Fatalf("generation-2 sharded answer failed: %v", err)
	}

	// Mixed-generation answer: swap one rebuilt shard's response for its
	// generation-1 predecessor. The client must reject it as tampering.
	rebuilt := -1
	for i, sr := range fresh.PerShard {
		if sr.Generation == 2 && old.PerShard[i].Generation == 1 {
			rebuilt = i
			break
		}
	}
	if rebuilt < 0 {
		t.Fatal("no shard was rebuilt at generation 2; widen the update batch")
	}
	mixed := *fresh
	mixed.PerShard = append([]*SearchResult(nil), fresh.PerShard...)
	mixed.PerShard[rebuilt] = old.PerShard[rebuilt]
	err = client.Verify(liveQuery, 3, &mixed)
	if err == nil {
		t.Fatal("mixed-generation sharded answer accepted")
	}
	if !IsTampered(err) {
		t.Fatalf("mixed-generation answer classified as non-tampering: %v", err)
	}

	// Whole-set rollback to generation 1 is tampering.
	err = client.AdvanceExport(export1)
	if !errors.Is(err, ErrStaleGeneration) || !IsTampered(err) {
		t.Fatalf("set rollback classified as %v", err)
	}
}

// TestLiveSnapshotDirAndReplica and its sharded twin cover the
// per-generation snapshot layout end to end: persist, open a replica,
// reload forward (and idle), restart from disk, refuse a rollback on disk
// and a generation renamed against its manifest.
func TestLiveSnapshotDirAndReplica(t *testing.T)        { liveSnapshotDirAndReplica(t, 0) }
func TestLiveShardedSnapshotDirAndReplica(t *testing.T) { liveSnapshotDirAndReplica(t, 3) }

func liveSnapshotDirAndReplica(t *testing.T, shards int) {
	sharded := shards > 0
	build := NewLiveOwner
	if sharded {
		build = func(docs []Document, opts ...Option) (*LiveOwner, []DocHandle, error) {
			return NewLiveShardedOwner(docs, shards, opts...)
		}
	}
	owner, handles, err := build(liveDocs(0, 40), WithFastSigner([]byte("live-snap")))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := owner.WriteSnapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != genName(1, sharded) {
		t.Fatalf("generation 1 written to %q", path)
	}
	if layout, err := liveDirLayout(dir); !IsLiveSnapshotDir(dir) || err != nil || layout != sharded {
		t.Fatalf("directory misdetected: sharded=%v err=%v", layout, err)
	}
	replica, err := OpenLiveSnapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if replica.Generation() != 1 {
		t.Fatalf("replica opened at generation %d", replica.Generation())
	}

	// PersistGenerations makes every future generation land on disk from
	// inside the update critical section; Reload picks it up.
	if _, err := owner.PersistGenerations(dir, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := owner.Update(liveDocs(40, 2), handles[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, genName(2, sharded))); err != nil {
		t.Fatalf("generation 2 snapshot not persisted by the publish hook: %v", err)
	}
	if swapped, err := replica.Reload(); err != nil || !swapped || replica.Generation() != 2 {
		t.Fatalf("reload = (%v, %v) at generation %d, want a swap to 2", swapped, err, replica.Generation())
	}
	if swapped, err := replica.Reload(); err != nil || swapped {
		t.Fatalf("idle reload = (%v, %v)", swapped, err)
	}
	res, err := replica.Server().Search(liveQuery, 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Client().Verify(liveQuery, 3, res); err != nil {
		t.Fatalf("replica answer failed verification: %v", err)
	}

	// Restart: a fresh open resumes at the latest generation on disk.
	if restarted, err := OpenLiveSnapshotDir(dir); err != nil || restarted.Generation() != 2 {
		t.Fatalf("restart opened generation %v (err %v), want 2", restarted, err)
	}

	// Rollback on disk is refused: with generation 2 gone, the serving
	// replica will not fall back to generation 1.
	if err := os.RemoveAll(filepath.Join(dir, genName(2, sharded))); err != nil {
		t.Fatal(err)
	}
	if _, err := replica.Reload(); err == nil {
		t.Fatal("reload accepted a rolled-back snapshot directory")
	}

	// Name-vs-manifest cross-check: a renamed generation is rejected at open.
	if err := os.Rename(filepath.Join(dir, genName(1, sharded)), filepath.Join(dir, genName(7, sharded))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLiveSnapshotDir(dir); err == nil {
		t.Fatal("renamed generation accepted")
	}
}

// TestReplicaServerIsPrivate: every Server() call hands out a server of the
// caller's own, so a cache attached to one is never consulted by another.
func TestReplicaServerIsPrivate(t *testing.T) {
	dir := t.TempDir()
	owner, _, err := NewLiveOwner(liveDocs(0, 12), WithFastSigner([]byte("live-private")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Run("plain", func(t *testing.T) {
		replica, err := OpenLiveSnapshotDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		a, b := replica.Server(), replica.Server()
		cache := NewVOCache(1 << 20)
		a.SetVOCache(cache)
		if _, err := b.Search(liveQuery, 3, TNRA, ChainMHT); err != nil {
			t.Fatal(err)
		}
		if st := cache.Stats(); st.Hits+st.Misses != 0 {
			t.Fatalf("a search on one Server() looked up the cache set on another: %+v", st)
		}
	})
}

// corruptStoreSection flips one byte in the middle of the block-store
// section (id 4) of the ATSN file at path, leaving its CRC stale.
func corruptStoreSection(t *testing.T, path string) {
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
			return
		}
		off += 16 + length
	}
	t.Fatalf("%s has no store section", path)
}

// TestReplicaRefusesCorruptedGeneration: a generation whose store section
// fails its checksum is refused by Reload with the plain checksum error, on
// replicas of a bare collection and of a shard set alike. The replica stays
// on the generation it serves, its answers keep verifying, and nothing
// about the refusal looks like tampering.
func TestReplicaRefusesCorruptedGeneration(t *testing.T) {
	docs := liveDocs(0, 40)
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
			replica, err := OpenLiveSnapshotDir(dir)
			if err != nil {
				t.Fatal(err)
			}

			if _, _, err := owner.Update(liveDocs(40, 1), nil); err != nil {
				t.Fatal(err)
			}
			path, err := owner.WriteSnapshotDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if shards > 0 {
				path = filepath.Join(path, shardSnapshotName(0))
			}
			corruptStoreSection(t, path)

			swapped, err := replica.Reload()
			if swapped || err == nil || !strings.Contains(err.Error(), "section 4 fails its checksum") {
				t.Fatalf("reload = (%v, %v), want the checksum error", swapped, err)
			}
			if IsTampered(err) {
				t.Fatalf("a corrupted snapshot classified as tampering: %v", err)
			}
			if g := replica.Generation(); g != 1 {
				t.Fatalf("serving generation %d after the refusal", g)
			}
			res, err := replica.Server().Search(liveQuery, 10, TNRA, ChainMHT)
			if err == nil {
				err = replica.Client().Verify(liveQuery, 10, res)
			}
			if err != nil || len(res.Hits) == 0 {
				t.Fatalf("generation 1 stopped answering: %v", err)
			}
		})
	}
}

// TestLiveSnapshotLayoutStable pins the per-generation layout: the file
// naming scheme is load-bearing (replicas pick the lexicographically
// greatest name), and a snapshot whose signed manifest disagrees with its
// filename must be rejected.
func TestLiveSnapshotLayoutStable(t *testing.T) {
	if got := genName(1, false); got != "gen-000000000001.atsn" {
		t.Fatalf("layout changed: generation 1 file is %q", got)
	}
	if got := genName(987654321012, false); got != "gen-987654321012.atsn" {
		t.Fatalf("layout changed: %q", got)
	}
	for name, want := range map[string]uint64{
		"gen-000000000007.atsn": 7,
		"gen-999999999999.atsn": 999999999999,
	} {
		got, ok := parseGenName(name, false)
		if !ok || got != want {
			t.Fatalf("parse(%q) = (%d, %v), want %d", name, got, ok, want)
		}
	}
	for _, bad := range []string{
		"gen-0000000001.atsn",    // wrong width
		"gen-000000000000.atsn",  // generation 0 never exists
		"gen-00000000000a.atsn",  // non-numeric
		"generation-1.atsn",      // foreign prefix
		"gen-000000000001.atsnx", // foreign suffix
	} {
		if _, ok := parseGenName(bad, false); ok {
			t.Fatalf("foreign name %q parsed as a generation snapshot", bad)
		}
	}

	// Manifest-vs-filename cross-check: renaming a generation file to
	// claim a different generation is detected at open.
	dir := t.TempDir()
	owner, _, err := NewLiveOwner(liveDocs(0, 10), WithFastSigner([]byte("layout")))
	if err != nil {
		t.Fatal(err)
	}
	path, err := owner.WriteSnapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	forged := filepath.Join(dir, genName(9, false))
	if err := os.Rename(path, forged); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLiveSnapshotDir(dir); err == nil {
		t.Fatal("renamed generation snapshot accepted")
	}
}

// TestLiveCompaction drives dead slots past the live count: the reports of
// a removal batch and a replace batch count the tombstoned slots, and every
// algorithm × scheme verifies over them in list mode; then the compaction
// rebuild drops the tombstones, the slot space shrinks to the live
// documents, and the collection keeps verifying and updating afterwards.
func TestLiveCompaction(t *testing.T) {
	owner, handles, err := NewListModeLiveOwnerForTest(liveDocs(0, 40), 0, WithFastSigner([]byte("compact")))
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := owner.Update(nil, handles[:15]) // dead 15 < live 25
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compacted || rep.TombstonedSlots != 15 || rep.Documents != 25 || rep.Removed != 15 {
		t.Fatalf("removal batch report = %+v", rep)
	}
	_, rep, err = owner.Update(liveDocs(40, 5), handles[15:20]) // dead 20 < live 25
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compacted || rep.TombstonedSlots != 20 || rep.Documents != 25 || rep.Added != 5 || rep.Removed != 5 {
		t.Fatalf("replace batch report = %+v", rep)
	}
	client := owner.Client()
	for _, algo := range []Algorithm{TRA, TNRA} {
		for _, scheme := range []Scheme{MHT, ChainMHT} {
			liveSearchVerify(t, owner.Server(), client, algo, scheme)
		}
	}

	_, rep2, err := owner.Update(nil, handles[20:26]) // dead 26 > live 19
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Compacted || rep2.TombstonedSlots != 0 || rep2.Documents != 19 {
		t.Fatalf("compaction report = %+v", rep2)
	}
	m, _ := owner.lc.Current().Manifest()
	if int(m.N) != 19 || len(m.Tombstones) != 0 {
		t.Fatalf("compacted manifest: n=%d tombstones=%d bytes", m.N, len(m.Tombstones))
	}
	if got := len(owner.Handles()); got != 19 {
		t.Fatalf("handles after compaction = %d, want 19", got)
	}
	if err := client.Advance(owner.ManifestUpdate()); err != nil {
		t.Fatal(err)
	}
	liveSearchVerify(t, owner.Server(), client, TRA, ChainMHT)
	liveSearchVerify(t, owner.Server(), client, TNRA, MHT)

	// The compacted ID space is the new baseline: the next update appends
	// to it without compacting again.
	_, rep3, err := owner.Update(liveDocs(50, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Compacted || rep3.TombstonedSlots != 0 || rep3.Documents != 20 {
		t.Fatalf("post-compaction report = %+v", rep3)
	}
	if err := client.Advance(owner.ManifestUpdate()); err != nil {
		t.Fatal(err)
	}
	liveSearchVerify(t, owner.Server(), client, TNRA, ChainMHT)
}

// TestLiveShardedRejectsRoundRobin: no live set places round-robin, which
// would tie placement to global position that removals reshuffle. It is
// hash-placed when built and stays so after an update appends documents.
func TestLiveShardedRejectsRoundRobin(t *testing.T) {
	docs := liveDocs(0, 12)
	owner, _, err := NewLiveShardedOwner(docs, 3, WithFastSigner([]byte("rr")))
	if err != nil {
		t.Fatal(err)
	}
	checkHashPlaced(t, owner, docs)
	more := liveDocs(12, 5)
	if _, _, err := owner.Update(more, nil); err != nil {
		t.Fatal(err)
	}
	checkHashPlaced(t, owner, append(docs, more...))
}

// TestLiveShardedUpdateCountsTheSetManifest: a shard-set update that
// rebuilds one shard signs that shard's manifest and the set manifest, and
// the report counts both.
func TestLiveShardedUpdateCountsTheSetManifest(t *testing.T) {
	owner, _, err := NewLiveShardedOwner(liveDocs(0, 32), 4, WithFastSigner([]byte("set-count")))
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := owner.Update(liveDocs(32, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShardsReused != 3 || rep.SignaturesSigned != 2 {
		t.Fatalf("1-document update carried %d of 4 shards over and signed %d messages, want 3 and 2", rep.ShardsReused, rep.SignaturesSigned)
	}
}

// TestCompactionNeverRefusesABatch: compaction is the owner's own policy,
// so it must never turn an accepted batch into a refusal. In this sequence
// the last removal leaves one shard more dead slots than live documents,
// and its survivors share no term: compacted, their index would keep none
// (singleton terms are dropped). That shard stays tombstoned for this
// generation — it indexes the same documents as the one before — while the
// shards that can compact do, in dictionary mode and in list mode alike.
func TestCompactionNeverRefusesABatch(t *testing.T) {
	builds := map[string]func([]Document) (*LiveOwner, []DocHandle, error){
		"dictionary": func(docs []Document) (*LiveOwner, []DocHandle, error) {
			return NewLiveShardedOwner(docs, 4, WithFastSigner([]byte("compact-refusal")))
		},
		"list": func(docs []Document) (*LiveOwner, []DocHandle, error) {
			return NewListModeLiveOwnerForTest(docs, 4, WithFastSigner([]byte("compact-refusal")))
		},
	}
	for mode, build := range builds {
		t.Run(mode, func(t *testing.T) {
			owner, handles, err := build(liveDocs(0, 40))
			if err != nil {
				t.Fatal(err)
			}
			client := owner.Client()
			if _, _, err := owner.Update(liveDocs(40, 3), nil); err != nil {
				t.Fatal(err)
			}
			if _, _, err := owner.Update(nil, handles[0:5]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := owner.Update(liveDocs(43, 2), handles[5:8]); err != nil {
				t.Fatal(err)
			}
			_, rep, err := owner.Update(nil, handles[8:30])
			if err != nil {
				t.Fatalf("an honest removal batch was refused: %v", err)
			}
			if rep.Generation != 5 || rep.Documents != 15 || rep.Removed != 22 {
				t.Fatalf("removal report = %+v", rep)
			}
			// Every shard with more dead slots than live documents compacted
			// but one, which still carries all its dead slots.
			dead, tombstoned := 0, 0
			for _, sc := range owner.Client().set.shards {
				n, liveN := int(sc.manifest.N), sc.manifest.LiveDocs()
				if n > liveN {
					tombstoned++
					if n-liveN <= liveN {
						t.Fatalf("a shard with %d dead slots and %d live documents", n-liveN, liveN)
					}
				}
				dead += n - liveN
			}
			if !rep.Compacted || tombstoned != 1 || rep.TombstonedSlots != dead || dead == 0 {
				t.Fatalf("report = %+v; %d shards carry %d dead slots", rep, tombstoned, dead)
			}
			export, err := owner.Client().Export()
			if err != nil {
				t.Fatal(err)
			}
			if err := client.AdvanceExport(export); err != nil {
				t.Fatal(err)
			}
			for _, algo := range []Algorithm{TRA, TNRA} {
				liveSearchVerify(t, owner.Server(), client, algo, ChainMHT)
			}
		})
	}
}
