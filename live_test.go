package authtext

import (
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
// whole generations, never a torn mix), signatures are reused across
// updates, and every update-shaped tampering vector — rollback, stale
// answers, removed documents reappearing, mixed-generation shard sets —
// classifies via IsTampered / ErrStaleGeneration.

// liveVocab is closed so that updates do not shift dictionary term IDs
// (which would disable signature reuse; see internal/live).
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

func liveSearchVerify(t *testing.T, srv *LiveServer, c *Client, algo Algorithm, scheme Scheme) *SearchResult {
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
	if srv.Generation() != 2 {
		t.Fatalf("server generation = %d, want 2", srv.Generation())
	}

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

func mustSearch(t *testing.T, srv *LiveServer, q string) *SearchResult {
	t.Helper()
	res, err := srv.Search(q, 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLiveConcurrentSearchHammer is the acceptance-criterion hammer: a
// live server keeps answering verified queries while updates land. Every
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
	srv := owner.Server()

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
				res, err := srv.Search(liveQuery, 3, TNRA, ChainMHT)
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
	owner, _, err := NewLiveShardedOwner(liveDocs(0, 32), 4,
		WithFastSigner([]byte("live-shards")), WithShardPartitioner(PartitionHash))
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
	export1, err := owner.ExportClient()
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := owner.Update(liveDocs(32, 3), nil); err != nil {
		t.Fatal(err)
	}
	if owner.Generation() != 2 {
		t.Fatalf("generation = %d", owner.Generation())
	}
	export2, err := owner.ExportClient()
	if err != nil {
		t.Fatal(err)
	}
	if err := client.AdvanceExport(export2); err != nil {
		t.Fatalf("advance to set generation 2: %v", err)
	}
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

func TestLiveSnapshotDirAndReplica(t *testing.T) {
	dir := t.TempDir()
	owner, _, err := NewLiveOwner(liveDocs(0, 12), WithFastSigner([]byte("live-snap")))
	if err != nil {
		t.Fatal(err)
	}
	path1, err := owner.WriteSnapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path1) != "gen-000000000001.atsn" {
		t.Fatalf("generation-1 snapshot named %s", filepath.Base(path1))
	}
	replica, err := OpenLiveSnapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if replica.Generation() != 1 {
		t.Fatalf("replica generation = %d", replica.Generation())
	}
	res, err := replica.Server().Search(liveQuery, 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Client().Verify(liveQuery, 3, res); err != nil {
		t.Fatalf("replica answer failed verification: %v", err)
	}

	// PersistGenerations makes every future generation land on disk from
	// inside the update critical section; generation 2 needs no explicit
	// WriteSnapshotDir call.
	if _, err := owner.PersistGenerations(dir, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := owner.Update(liveDocs(12, 1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, genName(2, false))); err != nil {
		t.Fatalf("generation 2 snapshot not persisted by the publish hook: %v", err)
	}
	swapped, err := replica.Reload()
	if err != nil || !swapped {
		t.Fatalf("reload = (%v, %v), want swap", swapped, err)
	}
	if replica.Generation() != 2 {
		t.Fatalf("replica generation after reload = %d", replica.Generation())
	}
	if swapped, err := replica.Reload(); err != nil || swapped {
		t.Fatalf("idle reload = (%v, %v)", swapped, err)
	}

	// Rolling the directory back under a running replica fails Reload.
	if err := os.Remove(filepath.Join(dir, genName(2, false))); err != nil {
		t.Fatal(err)
	}
	if _, err := replica.Reload(); err == nil {
		t.Fatal("rolled-back snapshot directory accepted")
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

// TestLiveRemovalReuseRegression pins the economics the tombstone model
// exists for: a removal-heavy batch re-signs (almost) nothing, because
// removed documents keep their slots — postings stay in the signed lists,
// records stay signed — and only the manifest changes. Before stable IDs
// this regime renumbered every surviving document and reused 0%.
func TestLiveRemovalReuseRegression(t *testing.T) {
	owner, handles, err := NewLiveOwner(liveDocs(0, 40), WithFastSigner([]byte("reuse-reg")))
	if err != nil {
		t.Fatal(err)
	}
	reuse := func(rep *UpdateReport) float64 {
		return float64(rep.SignaturesReused) / float64(rep.SignaturesSigned+rep.SignaturesReused)
	}

	// Removal-heavy batch: 15 of 40 documents gone at the cost of one
	// fresh signature (the manifest).
	_, rep, err := owner.Update(nil, handles[:15])
	if err != nil {
		t.Fatal(err)
	}
	if rep.TombstonedSlots != 15 || rep.Documents != 25 || rep.Removed != 15 {
		t.Fatalf("removal batch report = %+v", rep)
	}
	if rep.SignaturesSigned != 1 {
		t.Fatalf("removal-heavy batch signed %d structures, want 1 (the manifest)", rep.SignaturesSigned)
	}
	if r := reuse(rep); r < 0.6 {
		t.Fatalf("removal-heavy batch reused %.1f%% of signatures, want >= 60%%", 100*r)
	}

	// Replace batch: removals plus same-size additions — costs what the
	// additions cost, nothing for the removals. The 20-word toy vocabulary
	// makes any addition touch most term lists, so the floor here is loose;
	// the realistic >= 60% floor for this regime is enforced on a Zipfian
	// corpus by internal/live's TestReuseEconomicsOnZipfianCorpus.
	_, rep2, err := owner.Update(liveDocs(40, 5), handles[15:20])
	if err != nil {
		t.Fatal(err)
	}
	if rep2.TombstonedSlots != 20 || rep2.Documents != 25 {
		t.Fatalf("replace batch report = %+v", rep2)
	}
	if r := reuse(rep2); r < 0.5 {
		t.Fatalf("replace batch reused %.1f%% of signatures, want >= 50%%", 100*r)
	}

	client := owner.Client()
	for _, algo := range []Algorithm{TRA, TNRA} {
		for _, scheme := range []Scheme{MHT, ChainMHT} {
			liveSearchVerify(t, owner.Server(), client, algo, scheme)
		}
	}
}

// TestLiveCompaction drives dead slots past the live count and checks the
// compaction rebuild: tombstones drop, the slot space shrinks to the live
// documents, and the collection keeps verifying (and reusing signatures)
// afterwards.
func TestLiveCompaction(t *testing.T) {
	owner, handles, err := NewLiveOwner(liveDocs(0, 40), WithFastSigner([]byte("compact")))
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := owner.Update(nil, handles[:15]) // dead 15 < live 25
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compacted || rep.TombstonedSlots != 15 {
		t.Fatalf("pre-compaction report = %+v", rep)
	}
	_, rep2, err := owner.Update(nil, handles[15:26]) // dead 26 > live 14
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Compacted || rep2.TombstonedSlots != 0 || rep2.Documents != 14 {
		t.Fatalf("compaction report = %+v", rep2)
	}
	m, _ := owner.lc.Current().Manifest()
	if int(m.N) != 14 || len(m.Tombstones) != 0 {
		t.Fatalf("compacted manifest: n=%d tombstones=%d bytes", m.N, len(m.Tombstones))
	}
	if got := len(owner.Handles()); got != 14 {
		t.Fatalf("handles after compaction = %d, want 14", got)
	}
	client := owner.Client()
	liveSearchVerify(t, owner.Server(), client, TRA, ChainMHT)
	liveSearchVerify(t, owner.Server(), client, TNRA, MHT)

	// The compacted ID space is the new stable baseline: the next update
	// reuses signatures against it.
	_, rep3, err := owner.Update(liveDocs(50, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.SignaturesReused == 0 {
		t.Fatalf("no reuse after compaction: %+v", rep3)
	}
}

// TestLiveShardedSnapshotDirAndReplica covers the per-generation sharded
// snapshot layout end to end: persist, restart from disk, reload forward,
// refuse rollback.
func TestLiveShardedSnapshotDirAndReplica(t *testing.T) {
	owner, handles, err := NewLiveShardedOwner(liveDocs(0, 40), 3, WithFastSigner([]byte("shard-snap")))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := owner.PersistGenerations(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != genName(1, true) {
		t.Fatalf("generation 1 written to %q", path)
	}
	if !IsLiveSnapshotDir(dir) {
		t.Fatal("IsLiveSnapshotDir = false on a freshly written directory")
	}
	if sharded, err := liveDirLayout(dir); err != nil || !sharded {
		t.Fatalf("sharded generation directory misdetected as a single-collection one (err %v)", err)
	}
	if _, err := OpenLiveSnapshotDirMapped(dir); err == nil {
		t.Fatal("a directory of shard-set generations opened as a mapped replica")
	}

	replica, err := OpenLiveSnapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if replica.Generation() != 1 {
		t.Fatalf("replica opened at generation %d", replica.Generation())
	}

	// An accepted update persists generation 2 from inside the publish
	// hook; Reload picks it up.
	if _, _, err := owner.Update(liveDocs(40, 2), handles[:1]); err != nil {
		t.Fatal(err)
	}
	swapped, err := replica.Reload()
	if err != nil || !swapped {
		t.Fatalf("reload after update: swapped=%v err=%v", swapped, err)
	}
	if replica.Generation() != 2 {
		t.Fatalf("replica at generation %d after reload, want 2", replica.Generation())
	}
	res, err := replica.Server().Search(liveQuery, 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Client().Verify(liveQuery, 3, res); err != nil {
		t.Fatalf("replica answer failed verification: %v", err)
	}

	// Restart: a fresh open resumes at the latest generation on disk.
	replica2, err := OpenLiveSnapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if replica2.Generation() != 2 {
		t.Fatalf("restart opened generation %d, want 2", replica2.Generation())
	}

	// Rollback on disk is refused: with generation 2 gone, the serving
	// replica will not fall back to generation 1.
	if err := os.RemoveAll(filepath.Join(dir, genName(2, true))); err != nil {
		t.Fatal(err)
	}
	if _, err := replica.Reload(); err == nil {
		t.Fatal("reload accepted a rolled-back snapshot directory")
	}

	// Name-vs-manifest cross-check: a renamed generation directory is
	// rejected at open.
	if err := os.Rename(filepath.Join(dir, genName(1, true)), filepath.Join(dir, genName(7, true))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLiveSnapshotDir(dir); err == nil {
		t.Fatal("renamed generation directory accepted")
	}
}

// TestLiveShardedRejectsRoundRobin pins the partitioner guard: round-robin
// placement depends on global document position, which removals would
// reshuffle, so live sharded sets refuse it with an actionable error.
func TestLiveShardedRejectsRoundRobin(t *testing.T) {
	_, _, err := NewLiveShardedOwner(liveDocs(0, 12), 3,
		WithFastSigner([]byte("rr")), WithShardPartitioner(PartitionRoundRobin))
	if err == nil {
		t.Fatal("round-robin partitioner accepted on a live sharded set")
	}
	if !strings.Contains(err.Error(), "hash partitioner") {
		t.Fatalf("rejection does not point at the hash partitioner: %v", err)
	}
	// The default (no partitioner option) is hash and works.
	if _, _, err := NewLiveShardedOwner(liveDocs(0, 12), 3, WithFastSigner([]byte("rr2"))); err != nil {
		t.Fatalf("default partitioner failed: %v", err)
	}
}

// TestSignatureMemoSurvivesGenerationBumps: a client's verified-signature
// memo belongs to its pinned key, not to a generation. The signatures the
// owner's caching signer carried into the next generation are memo hits
// after Advance; on a sharded client every shard client shares the one memo,
// before and after AdvanceExport rebuilds them.
func TestSignatureMemoSurvivesGenerationBumps(t *testing.T) {
	owner, _, err := NewLiveOwner(liveDocs(0, 16))
	if err != nil {
		t.Fatal(err)
	}
	client := owner.Client()
	liveSearchVerify(t, owner.Server(), client, TRA, ChainMHT)
	cold, hits := client.verifier.TakeCounts()
	if cold == 0 || hits != 0 {
		t.Fatalf("first answer: %d verified, %d memo hits", cold, hits)
	}
	if _, rep, err := owner.AddDocuments(liveDocs(16, 1)); err != nil || rep.SignaturesReused == 0 {
		t.Fatalf("append reused no signatures: %+v, err %v", rep, err)
	}
	if err := client.Advance(owner.ManifestUpdate()); err != nil {
		t.Fatal(err)
	}
	liveSearchVerify(t, owner.Server(), client, TRA, ChainMHT)
	verified, hits := client.verifier.TakeCounts()
	// Advance verified the new manifest: at least that one is a real check.
	if hits == 0 || verified == 0 || verified >= cold {
		t.Fatalf("after the generation bump: %d verified, %d memo hits (cold answer verified %d)", verified, hits, cold)
	}

	sharded, _, err := NewLiveShardedOwner(liveDocs(0, 32), 4, WithShardPartitioner(PartitionHash))
	if err != nil {
		t.Fatal(err)
	}
	sc := sharded.Client()
	sharedMemo := func() {
		t.Helper()
		for i, shard := range sc.set.shards {
			if shard.verifier != sc.verifier {
				t.Fatalf("shard client %d has a memo of its own", i)
			}
		}
	}
	sharedMemo()
	memo := sc.verifier
	if _, _, err := sharded.AddDocuments(liveDocs(32, 3)); err != nil {
		t.Fatal(err)
	}
	export, err := sharded.ExportClient()
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.AdvanceExport(export); err != nil {
		t.Fatal(err)
	}
	if sc.verifier != memo {
		t.Fatal("AdvanceExport replaced the memo")
	}
	sharedMemo()
	res, err := sharded.Server().Search(liveQuery, 3, TRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Verify(liveQuery, 3, res); err != nil {
		t.Fatal(err)
	}
}
