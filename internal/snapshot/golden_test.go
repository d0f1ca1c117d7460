package snapshot

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"authtext/internal/core"
	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/sig"
)

// Golden container regression suite: testdata/golden-v1.atsn is an ATSN
// snapshot written by the format-v1 writer over a small fixed corpus with
// a fixed HMAC key, and testdata/golden-v2.atsn the same collection written
// by the format-v2 writer. Any change that makes the current decoder unable
// to open artifacts written by earlier builds — new mandatory sections,
// reordered sections, changed header widths, changed payload codecs —
// fails these tests loudly. The v1 file is frozen: no writer emits v1 any
// more. Regenerate the v2 file with UPDATE_GOLDEN=1 only alongside a
// deliberate, documented format version bump.

const (
	goldenSnapshot   = "testdata/golden-v1.atsn"
	goldenSnapshotV2 = "testdata/golden-v2.atsn"
)

func goldenCollection(t testing.TB) *engine.Collection {
	t.Helper()
	signer, err := sig.NewHMACSigner([]byte("golden-fixture-key"), 128)
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"a merkle hash tree authenticates messages by signing the root digest",
		"threshold algorithms pop the entry with the highest term score",
		"the verification object contains digests to recompute the signed root",
		"sorted access maintains lower and upper bounds for candidate documents",
		"signatures generated with the private key verify with the public key",
		"the frequency ordered inverted index stores impact entries",
		"an audit trail archives verification objects for every decision",
		"random access fetches term frequencies from the document record",
	}
	docs := make([]index.Document, len(texts))
	for i, s := range texts {
		docs[i] = index.Document{Content: []byte(s)}
	}
	cfg := engine.DefaultConfig(signer)
	cfg.VocabProofs = true
	col, err := engine.BuildCollection(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func TestGoldenSnapshotOpens(t *testing.T) {
	raw, err := os.ReadFile(goldenSnapshot)
	if err != nil {
		t.Fatalf("missing golden fixture (run with UPDATE_GOLDEN=1 once): %v", err)
	}

	col, err := Open(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("the current decoder no longer opens a v1 snapshot written by an earlier build: %v", err)
	}
	idx := col.Index()
	if idx.N != 8 {
		t.Fatalf("golden collection has %d documents, want 8", idx.N)
	}
	m, _ := col.Manifest()
	if !m.VocabProofsEnabled || m.DictMode {
		t.Fatalf("golden manifest flags changed: %+v", m)
	}

	// The reopened collection must still serve verifiable answers for every
	// algorithm/scheme combination.
	tokens := []string{"merkle", "root", "digests"}
	for _, algo := range []core.Algo{core.AlgoTRA, core.AlgoTNRA} {
		for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
			res, vo, _, err := col.Search(tokens, 3, algo, scheme)
			if err != nil {
				t.Fatalf("%v-%v: %v", algo, scheme, err)
			}
			if _, err := col.VerifyResult(tokens, 3, res, vo); err != nil {
				t.Errorf("%v-%v: golden snapshot answer failed verification: %v", algo, scheme, err)
			}
		}
	}
}

// TestGoldenSnapshotHeaderStable pins the container framing itself: magic,
// version, section count, section ids and order. A writer-side format
// change shows up here even though the golden file still opens.
func TestGoldenSnapshotHeaderStable(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var buf bytes.Buffer
		if err := Write(&buf, goldenCollection(t)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSnapshotV2, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenSnapshotV2)
	if err != nil {
		t.Fatalf("missing golden fixture (run with UPDATE_GOLDEN=1 once): %v", err)
	}
	if string(raw[:4]) != "ATSN" {
		t.Fatalf("magic = %q", raw[:4])
	}
	if v := binary.BigEndian.Uint16(raw[4:]); v != 2 {
		t.Fatalf("golden file claims version %d; regenerate it only with a deliberate format bump", v)
	}
	if n := binary.BigEndian.Uint16(raw[6:]); n != 7 {
		t.Fatalf("section count = %d, want 7", n)
	}
	wantIDs := []uint16{1, 2, 3, 4, 5, 6, 7}
	off := 8
	for _, want := range wantIDs {
		if off+16 > len(raw) {
			t.Fatalf("truncated before section %d", want)
		}
		if id := binary.BigEndian.Uint16(raw[off:]); id != want {
			t.Fatalf("section id %d, want %d", id, want)
		}
		off += 16 + int(binary.BigEndian.Uint64(raw[off+8:]))
	}
	if off != len(raw) {
		t.Fatalf("%d trailing bytes after last section", len(raw)-off)
	}

	// The CURRENT writer must still emit the same framing for the same
	// collection (payload bytes may differ only in the stats section,
	// whose build time is wall-clock).
	var buf bytes.Buffer
	if err := Write(&buf, goldenCollection(t)); err != nil {
		t.Fatal(err)
	}
	fresh := buf.Bytes()
	if !bytes.Equal(fresh[:8], raw[:8]) {
		t.Errorf("current writer header %x disagrees with golden %x", fresh[:8], raw[:8])
	}
	for _, id := range wantIDs[:6] { // all sections except stats are deterministic
		fs, fe, _ := sectionRange(t, fresh, id)
		gs, ge, _ := sectionRange(t, raw, id)
		if !bytes.Equal(fresh[fs:fe], raw[gs:ge]) {
			t.Errorf("current writer produces different bytes for section %d", id)
		}
	}
}

// TestV1SnapshotsServeLikeV2: a v1 artifact — the frozen golden, and the
// dictionary-mode artifact whose documents are signed one by one — opens,
// rewrites as v2 and reopens to a collection that answers every algorithm
// and scheme with the same VO bytes. The golden, repacked at open and
// rewritten, is the v2 golden, byte for byte in every deterministic section:
// packing a v1 device is the same as building packed.
func TestV1SnapshotsServeLikeV2(t *testing.T) {
	for _, path := range []string{goldenSnapshot, "../../testdata/dict-all-doc-signatures.atsn"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.BigEndian.Uint16(raw[4:]); v != 1 {
			t.Fatalf("%s is format v%d, want the v1 artifact", path, v)
		}
		v1, err := Open(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, v1); err != nil {
			t.Fatal(err)
		}
		rewritten := buf.Bytes()
		if len(rewritten) >= len(raw) {
			t.Errorf("%s: v2 rewrite is %d bytes, the v1 file %d", path, len(rewritten), len(raw))
		}
		v2, err := Open(bytes.NewReader(rewritten))
		if err != nil {
			t.Fatalf("%s rewritten as v2: %v", path, err)
		}
		idx := v1.Index()
		tokens := []string{idx.Name(0), idx.Name(index.TermID(idx.M() / 2)), idx.Name(index.TermID(idx.M() - 1)), "absent"}
		for _, algo := range []core.Algo{core.AlgoTRA, core.AlgoTNRA} {
			for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
				res, vo1, st1, err := v1.Search(tokens, 3, algo, scheme)
				if err != nil {
					t.Fatalf("%s %v-%v: %v", path, algo, scheme, err)
				}
				if _, err := v1.VerifyResult(tokens, 3, res, vo1); err != nil {
					t.Fatalf("%s %v-%v: v1 answer fails verification: %v", path, algo, scheme, err)
				}
				_, vo2, st2, err := v2.Search(tokens, 3, algo, scheme)
				if err != nil || !bytes.Equal(vo1, vo2) {
					t.Fatalf("%s %v-%v: v1 and its v2 rewrite answer differently (%v)", path, algo, scheme, err)
				}
				if st1.IO != st2.IO {
					t.Fatalf("%s %v-%v: I/O charged %+v from v1, %+v from v2", path, algo, scheme, st1.IO, st2.IO)
				}
			}
		}
		if path != goldenSnapshot {
			continue
		}
		golden, err := os.ReadFile(goldenSnapshotV2)
		if err != nil {
			t.Fatal(err)
		}
		for id := uint16(1); id <= 6; id++ {
			rs, re, _ := sectionRange(t, rewritten, id)
			gs, ge, _ := sectionRange(t, golden, id)
			if !bytes.Equal(rewritten[rs:re], golden[gs:ge]) {
				t.Errorf("section %d of the repacked v1 golden differs from the v2 golden's", id)
			}
		}
	}
}

// TestSectionsReportsTheFraming: Sections names every section of a
// snapshot with its payload length, from the headers alone, and refuses
// what is not a snapshot.
func TestSectionsReportsTheFraming(t *testing.T) {
	raw, err := os.ReadFile(goldenSnapshotV2)
	if err != nil {
		t.Fatal(err)
	}
	sections, err := Sections(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	total := 8
	for i, s := range sections {
		start, end, _ := sectionRange(t, raw, sectionOrder[i])
		if s.Name != sectionNames[i] || s.Bytes != int64(end-start) {
			t.Fatalf("section %d reported as %+v, %d bytes", sectionOrder[i], s, end-start)
		}
		total += 16 + int(s.Bytes)
	}
	if len(sections) != 7 || total != len(raw) {
		t.Fatalf("%d sections covering %d of %d bytes", len(sections), total, len(raw))
	}
	for _, bad := range [][]byte{raw[:6], []byte("NOTASNAPSHOT"), raw[:len(raw)/2]} {
		if _, err := Sections(bytes.NewReader(bad)); err == nil {
			t.Fatalf("Sections accepted %d bytes that are no snapshot", len(bad))
		}
	}
}
