package authtext

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// Crash safety of snapshot publishes: a publish interrupted at any step —
// temp written (and, as after a power cut, only partly on disk), temp
// synced but not yet renamed, renamed but parent directory not yet synced —
// leaves a per-generation directory from which a replica either keeps
// serving the old generation or opens the COMPLETE new one. It never opens a
// torn generation, and the interrupted publish can simply be retried. What
// the interrupted publish left behind is the WRITER's to clean up: a replica
// opening the directory ignores it and leaves it alone, and the owner that
// reopens the directory as its writer (PersistGenerations) removes it.

// publishTarget is one live deployment writing generations into dir and a
// replica following it.
type publishTarget struct {
	write func() (string, error)
	// reopen is the restarted owner taking the directory over as its writer.
	reopen func() (string, error)
	// openReplica opens one more replica on the directory.
	openReplica func() error
	advance     func() error
	reload      func() (bool, error)
	generation  func() uint64
	// verified runs one search on the replica and verifies it with the
	// replica's own client.
	verified func() error
}

func singlePublishTarget(t *testing.T, dir string) publishTarget {
	owner, _, err := NewLiveOwner(liveDocs(0, 12), WithFastSigner([]byte("publish")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	rep, err := OpenLiveSnapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return publishTarget{
		write:       func() (string, error) { return owner.WriteSnapshotDir(dir) },
		reopen:      func() (string, error) { return owner.PersistGenerations(dir, nil) },
		openReplica: func() error { _, err := OpenLiveSnapshotDir(dir); return err },
		advance:     func() error { _, _, err := owner.Update(liveDocs(12, 2), nil); return err },
		reload:      rep.Reload,
		generation:  rep.Generation,
		verified: func() error {
			res, err := rep.Server().Search(liveQuery, 3, TNRA, ChainMHT)
			if err != nil {
				return err
			}
			return rep.Client().Verify(liveQuery, 3, res)
		},
	}
}

func shardedPublishTarget(t *testing.T, dir string) publishTarget {
	owner, _, err := NewLiveShardedOwner(liveDocs(0, 16), 2, WithFastSigner([]byte("publish")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	rep, err := OpenLiveSnapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return publishTarget{
		write:       func() (string, error) { return owner.WriteSnapshotDir(dir) },
		reopen:      func() (string, error) { return owner.PersistGenerations(dir, nil) },
		openReplica: func() error { _, err := OpenLiveSnapshotDir(dir); return err },
		advance:     func() error { _, _, err := owner.Update(liveDocs(16, 2), nil); return err },
		reload:      rep.Reload,
		generation:  rep.Generation,
		verified: func() error {
			res, err := rep.Server().Search(liveQuery, 3, TNRA, ChainMHT)
			if err != nil {
				return err
			}
			return rep.Client().Verify(liveQuery, 3, res)
		},
	}
}

func TestPublishInterruptedNeverTearsAGeneration(t *testing.T) {
	targets := map[string]func(*testing.T, string) publishTarget{
		"single": singlePublishTarget, "sharded": shardedPublishTarget,
	}
	// nested: the crash hits a shard file's own publish inside the temp
	// generation directory (sharded only).
	cases := []struct {
		step    string
		nested  bool
		wantGen uint64
	}{
		{"temp-written", false, 1},
		{"pre-rename", false, 1},
		{"post-rename", false, 2},
		{"temp-written", true, 1},
		{"post-rename", true, 1},
	}
	for name, build := range targets {
		for _, tc := range cases {
			if tc.nested && name != "sharded" {
				continue
			}
			label := name + "/" + tc.step
			if tc.nested {
				label += "-of-a-shard-file"
			}
			t.Run(label, func(t *testing.T) {
				dir := t.TempDir()
				target := build(t, dir)
				if err := target.advance(); err != nil {
					t.Fatal(err)
				}
				publishCrash = func(step, tmp string) bool {
					if step != tc.step || (filepath.Dir(tmp) != dir) != tc.nested {
						return false
					}
					if step == "temp-written" {
						tearFile(t, tmp) // the page cache died with the machine
					}
					return true
				}
				defer func() { publishCrash = nil }()
				if _, err := target.write(); !errors.Is(err, errPublishCrashed) {
					t.Fatalf("publish survived its crash: %v", err)
				}
				publishCrash = nil

				// The replica follows the directory exactly as far as a
				// complete generation exists.
				swapped, err := target.reload()
				if err != nil {
					t.Fatalf("reload after the crash: %v", err)
				}
				if swapped != (tc.wantGen == 2) || target.generation() != tc.wantGen {
					t.Fatalf("swapped=%v to generation %d, want generation %d", swapped, target.generation(), tc.wantGen)
				}
				if err := target.verified(); err != nil {
					t.Fatalf("generation %d does not verify after the crash: %v", tc.wantGen, err)
				}

				// Every crash but the one after the top-level rename strands the
				// publish's temp sibling. Replicas are not the ones to remove it:
				// to a reader it could be a publish in flight.
				leftovers := func() []string {
					found, err := filepath.Glob(filepath.Join(dir, publishTempPattern))
					if err != nil {
						t.Fatal(err)
					}
					return found
				}
				stranded := leftovers()
				if want := tc.step != "post-rename" || tc.nested; (len(stranded) == 1) != want || len(stranded) > 1 {
					t.Fatalf("temp siblings after the crash: %v", stranded)
				}
				if err := target.openReplica(); err != nil {
					t.Fatalf("replica open beside the leftovers: %v", err)
				}
				if now := leftovers(); len(now) != len(stranded) {
					t.Fatalf("a replica open changed the writer's leftovers: %v, were %v", now, stranded)
				}

				// The restarted owner reopens the directory as its writer: the
				// leftovers go, the publish is retried, and the replica arrives.
				if _, err := target.reopen(); err != nil {
					t.Fatalf("retried publish: %v", err)
				}
				if now := leftovers(); len(now) != 0 {
					t.Fatalf("the reopened writer left temp siblings behind: %v", now)
				}
				if _, err := target.reload(); err != nil || target.generation() != 2 {
					t.Fatalf("after the retry: generation %d, err %v", target.generation(), err)
				}
				if err := target.verified(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// tearFile halves a file — or, for a directory, its first shard file.
func tearFile(t *testing.T, path string) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.IsDir() {
		path = filepath.Join(path, shardSnapshotName(0))
		if info, err = os.Stat(path); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
}
