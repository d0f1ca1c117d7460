package index

import (
	"bytes"
	"reflect"
	"testing"
)

func codecTestIndex(t *testing.T) *Index {
	t.Helper()
	texts := []string{
		"the quick brown fox jumps over the lazy dog",
		"the quick red fox runs past the sleeping dog",
		"a lazy dog dreams of a quick brown fox",
		"red foxes and brown dogs share the meadow",
	}
	docs := make([]Document, len(texts))
	for i, s := range texts {
		docs[i] = Document{Content: []byte(s)}
	}
	x, err := Build(docs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestCodecRoundTrip(t *testing.T) {
	x := codecTestIndex(t)
	enc := x.AppendBinary(nil)
	got, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != x.N || got.M() != x.M() || got.AvgLen != x.AvgLen || got.Okapi != x.Okapi {
		t.Fatalf("header mismatch: %d/%d/%v vs %d/%d/%v", got.N, got.M(), got.AvgLen, x.N, x.M(), x.AvgLen)
	}
	if !reflect.DeepEqual(got.Terms, x.Terms) {
		t.Error("dictionary mismatch")
	}
	if !reflect.DeepEqual(got.Lists, x.Lists) {
		t.Error("inverted lists mismatch")
	}
	if !reflect.DeepEqual(got.DocTerm, x.DocTerm) {
		t.Error("document vectors mismatch")
	}
	if !reflect.DeepEqual(got.DocLen, x.DocLen) {
		t.Error("document lengths mismatch")
	}
	if !reflect.DeepEqual(got.Content, x.Content) {
		t.Error("content mismatch")
	}
	for i := range x.Terms {
		name := x.Terms[i].Name
		wantID, _ := x.Lookup(name)
		gotID, ok := got.Lookup(name)
		if !ok || gotID != wantID {
			t.Errorf("lookup %q: got (%v,%v), want %v", name, gotID, ok, wantID)
		}
	}
	// Canonical: re-encoding reproduces the bytes.
	if !bytes.Equal(got.AppendBinary(nil), enc) {
		t.Error("re-encoding differs")
	}
}

// The decoded index shares the input buffer: document content aliases
// it instead of copying it.
func TestCodecSharedDecodeAliasesContent(t *testing.T) {
	x := codecTestIndex(t)
	enc := x.AppendBinary(nil)
	got, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Content, x.Content) {
		t.Error("content mismatch")
	}
	// Content is a window into enc, not a copy: flipping the underlying
	// byte shows through, and the window's capacity ends with the document.
	d0 := got.Content[0]
	if len(d0) == 0 || cap(d0) != len(d0) {
		t.Fatalf("document 0 content: len %d, cap %d", len(d0), cap(d0))
	}
	off := bytes.Index(enc, d0)
	if off < 0 {
		t.Fatal("document 0 content not found in encoding")
	}
	enc[off] ^= 0xff
	if d0[0] == x.Content[0][0] {
		t.Error("decode copied content instead of aliasing it")
	}
}

func TestCodecRejectsHostileInput(t *testing.T) {
	x := codecTestIndex(t)
	enc := x.AppendBinary(nil)

	for _, n := range []int{0, 3, 4, 20, 35, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeBinary(enc[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := DecodeBinary(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// Inflated document count must not allocate past the payload.
	bad := append([]byte(nil), enc...)
	bad[0], bad[1], bad[2], bad[3] = 0x7f, 0xff, 0xff, 0xff
	if _, err := DecodeBinary(bad); err == nil {
		t.Error("inflated document count accepted")
	}
	// Inflated term count.
	bad = append([]byte(nil), enc...)
	bad[28], bad[29], bad[30], bad[31] = 0x7f, 0xff, 0xff, 0xff
	if _, err := DecodeBinary(bad); err == nil {
		t.Error("inflated term count accepted")
	}
}
