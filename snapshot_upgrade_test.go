package authtext

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"authtext/internal/snapshot"
	"authtext/internal/store"
)

// rewriteAsV1 rewrites the snapshot file at path in place in format v1, as
// builds before the packed device wrote it: the store section holds the
// device block-granular, each extent at its start block, and every list
// extent is padded to whole blocks.
func rewriteAsV1(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	be := binary.BigEndian
	if v := be.Uint16(b[4:]); v != snapshot.Version {
		t.Fatalf("%s is format v%d", path, v)
	}
	var payloads [][]byte
	for off := 8; off < len(b); {
		n := int(be.Uint64(b[off+8:]))
		payloads = append(payloads, b[off+16:off+16+n])
		off += 16 + n
	}
	storeSec, layout := payloads[3], bytes.Clone(payloads[4])
	blockSize := int64(be.Uint32(storeSec))
	packed := storeSec[store.ParamsEncodedSize+8:]

	// The layout section is four u32-counted tables — plain lists, TRA
	// chains, TNRA chains, documents — of ⟨u64 start, u32 blocks, u64
	// length⟩. In start order, the payloads follow each other in packed.
	type extent struct {
		at                    int // of the entry in layout
		start, blocks, length int64
		list                  bool
	}
	var exts []extent
	var blocks int64
	for r, table := 0, 0; table < 4; table++ {
		n := int(be.Uint32(layout[r:]))
		r += 4
		for ; n > 0; n-- {
			e := extent{at: r, start: int64(be.Uint64(layout[r:])), blocks: int64(be.Uint32(layout[r+8:])),
				length: int64(be.Uint64(layout[r+12:])), list: table < 3}
			exts = append(exts, e)
			blocks += e.blocks
			r += 20
		}
	}
	slices.SortFunc(exts, func(a, b extent) int { return cmp.Compare(a.start, b.start) })
	padded := make([]byte, blocks*blockSize)
	var off int64
	for _, e := range exts {
		copy(padded[e.start*blockSize:], packed[off:off+e.length])
		off += e.length
		if e.list {
			be.PutUint64(layout[e.at+12:], uint64(e.blocks*blockSize))
		}
	}
	payloads[3] = be.AppendUint64(bytes.Clone(storeSec[:store.ParamsEncodedSize]), uint64(len(padded)))
	payloads[3] = append(payloads[3], padded...)
	payloads[4] = layout

	out := be.AppendUint16([]byte("ATSN"), 1)
	out = be.AppendUint16(out, uint16(len(payloads)))
	for i, p := range payloads {
		out = be.AppendUint16(out, uint16(i+1))
		out = be.AppendUint16(out, 0)
		out = be.AppendUint32(out, crc32.ChecksumIEEE(p))
		out = be.AppendUint64(out, uint64(len(p)))
		out = append(out, p...)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// snapshotFiles returns the snapshot files of a generation path: the file
// itself, or a shard set's shard files.
func snapshotFiles(t *testing.T, path string) []string {
	t.Helper()
	if !isShardDir(path) {
		return []string{path}
	}
	files, err := filepath.Glob(filepath.Join(path, "shard-*.atsn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no shard files (%v)", path, err)
	}
	return files
}

// formatVersion reads the format version off a snapshot file's header.
func formatVersion(t *testing.T, path string) uint16 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil || len(b) < 8 {
		t.Fatalf("%s: %v", path, err)
	}
	return binary.BigEndian.Uint16(b[4:])
}

// TestReplicaCrossesFromV1ToV2 is the rolling-upgrade rule on a snapshot
// directory: generations older builds wrote in format v1 and the v2 ones
// this build writes after them share one directory. A replica started on a
// v1 generation serves verified answers, swaps forward to the v2 generation
// like to any other, and nothing a remote client sees on the way is
// tampering; a replica started afresh opens the v2 newest. A v1 generation
// answers with the bytes its v2 rewrite does.
func TestReplicaCrossesFromV1ToV2(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(map[bool]string{false: "bare", true: "sharded"}[shards > 0], func(t *testing.T) {
			var owner *LiveOwner
			var err error
			if shards == 0 {
				owner, _, err = NewLiveOwner(liveDocs(0, 40))
			} else {
				owner, _, err = NewLiveShardedOwner(liveDocs(0, 40), shards)
			}
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			publish := func(v1 bool) []string {
				path, err := owner.WriteSnapshotDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				files := snapshotFiles(t, path)
				if v1 {
					for _, f := range files {
						rewriteAsV1(t, f)
					}
				}
				return files
			}
			update := func() {
				if _, _, err := owner.Update(liveDocs(40+int(owner.Generation()), 1), nil); err != nil {
					t.Fatal(err)
				}
			}

			gen1 := publish(true)
			replica, err := OpenLiveSnapshotDir(dir)
			if err != nil {
				t.Fatalf("a v1 generation does not open: %v", err)
			}
			handler, err := replica.HTTPHandler()
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(handler)
			defer ts.Close()
			rc, err := NewRemoteClient(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			ask := func(want uint64) {
				t.Helper()
				for _, algo := range []Algorithm{TRA, TNRA} {
					for _, scheme := range []Scheme{MHT, ChainMHT} {
						res, err := rc.Search(context.Background(), liveQuery, 5, algo, scheme)
						if IsTampered(err) {
							t.Fatalf("generation %d %s-%s: an honest answer classified as tampering: %v", want, algo, scheme, err)
						}
						if err != nil || len(res.Hits) == 0 {
							t.Fatalf("generation %d %s-%s: %v", want, algo, scheme, err)
						}
					}
				}
				if g := rc.Generation(); g != want {
					t.Fatalf("the remote client is at generation %d, want %d", g, want)
				}
			}
			ask(1)

			update()
			publish(true)
			if swapped, err := replica.Reload(); err != nil || !swapped {
				t.Fatalf("reload to v1 generation 2 = (%v, %v)", swapped, err)
			}
			ask(2)

			update()
			gen3 := publish(false)
			if swapped, err := replica.Reload(); err != nil || !swapped {
				t.Fatalf("reload to v2 generation 3 = (%v, %v)", swapped, err)
			}
			ask(3)
			for _, f := range gen1 {
				if v := formatVersion(t, f); v != 1 {
					t.Fatalf("%s is format v%d, want the v1 generation", f, v)
				}
			}
			for _, f := range gen3 {
				if v := formatVersion(t, f); v != snapshot.Version {
					t.Fatalf("%s is format v%d, want v%d", f, v, snapshot.Version)
				}
			}

			restarted, err := OpenLiveSnapshotDir(dir)
			if err != nil || restarted.Generation() != 3 {
				t.Fatalf("restart opened generation %v (%v), want 3", restarted, err)
			}
			// The newest generation, rewritten as v1, answers byte for byte
			// as it does as v2.
			v2, err := restarted.Server().Search(liveQuery, 5, TRA, ChainMHT)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range gen3 {
				rewriteAsV1(t, f)
			}
			downgraded, err := OpenLiveSnapshotDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			v1, err := downgraded.Server().Search(liveQuery, 5, TRA, ChainMHT)
			if err != nil || !bytes.Equal(v1.VO, v2.VO) {
				t.Fatalf("generation 3 answers otherwise from v1 (%v)", err)
			}
			if err := downgraded.Client().Verify(liveQuery, 5, v1); err != nil {
				t.Fatal(err)
			}
		})
	}
}
