package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"authtext"
	"authtext/internal/demo"
)

func TestSnippet(t *testing.T) {
	if got := snippet([]byte("hello   world"), 20); got != "hello world" {
		t.Fatalf("snippet = %q", got)
	}
	long := strings.Repeat("word ", 30)
	got := snippet([]byte(long), 20)
	if len(got) > 24 || !strings.HasSuffix(got, "…") {
		t.Fatalf("long snippet = %q", got)
	}
}

func TestLoadDocsDemo(t *testing.T) {
	docs, names, err := demo.Load("")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(demo.Texts()) || len(names) != len(docs) {
		t.Fatalf("demo corpus: %d docs, %d names", len(docs), len(names))
	}
}

func TestLoadDocsDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []struct{ name, body string }{
		{"b.txt", "second document about braking"},
		{"a.txt", "first document about patents"},
		{"ignored.md", "not indexed"},
	} {
		if err := os.WriteFile(filepath.Join(dir, f.name), []byte(f.body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	docs, names, err := demo.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("%d docs, want 2 (.md skipped)", len(docs))
	}
	// Sorted by filename.
	if names[0] != "a.txt" || names[1] != "b.txt" {
		t.Fatalf("names = %v", names)
	}
	if !strings.Contains(string(docs[0].Content), "patents") {
		t.Fatal("content mismatch")
	}
}

func TestLoadDocsEmptyDirectory(t *testing.T) {
	if _, _, err := demo.Load(t.TempDir()); err == nil {
		t.Fatal("empty directory accepted")
	}
}

// All usage validation happens in parseFlags, before anything is indexed
// or signed.
func TestParseFlagsValidation(t *testing.T) {
	bad := [][]string{
		{"-no-such-flag"},
		{"-serve", ":0"}, // serving over HTTP is authserved's
		{"-remote", "http://x", "-dir", "docs"},
		{"-snapshot", "x.snap", "-dir", "docs"},
		{"-snapshot", "x.snap", "-remote", "http://x"},
		{"-build"},                            // missing -o
		{"-o", "x.snap"},                      // -o without -build
		{"-build", "-o", "x", "-remote", "u"}, // build excludes remote
		{"-algo", "bogus"},
		{"-scheme", "bogus"},
		{"-r", "0"},
		{"-shards", "-1"},
		{"-shards", "2", "-snapshot", "x"},
		{"-shards", "2", "-remote", "http://x"},
		{"stray"},
	}
	for _, args := range bad {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	if _, err := parseFlags([]string{"-help"}); err != flag.ErrHelp {
		t.Errorf("-help: got %v, want flag.ErrHelp", err)
	}
	cfg, err := parseFlags([]string{"-build", "-o", "c.snap", "-algo", "TRA", "-scheme", "MHT"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.build || cfg.out != "c.snap" || cfg.algo != authtext.TRA || cfg.scheme != authtext.MHT {
		t.Fatalf("cfg = %+v", cfg)
	}
}

// -build -shards N -o DIR writes a sharded snapshot directory that both
// authsearch and authserved can reopen and serve.
func TestBuildShardedSnapshotDirRoundTrip(t *testing.T) {
	docs, _, err := demo.Load("")
	if err != nil {
		t.Fatal(err)
	}
	owner, err := authtext.NewShardedOwner(docs, 3, authtext.WithVocabularyProofs())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "shards")
	if err := owner.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	server, client, err := authtext.OpenSnapshotFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if server.Shards() != 3 {
		t.Fatalf("written directory reopened as %d shards", server.Shards())
	}
	res, err := server.Search("search results", 3, authtext.TNRA, authtext.ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no merged hits")
	}
	if err := client.Verify("search results", 3, res); err != nil {
		t.Fatalf("sharded snapshot server failed verification: %v", err)
	}
	if err := owner.Client().Verify("search results", 3, res); err != nil {
		t.Fatalf("original sharded client rejected snapshot server: %v", err)
	}
}

// The owner-role -build mode and the reopening modes must round-trip
// through a real file on disk.
func TestBuildThenOpenSnapshotFile(t *testing.T) {
	docs, _, err := demo.Load("")
	if err != nil {
		t.Fatal(err)
	}
	owner, err := authtext.NewOwner(docs, authtext.WithVocabularyProofs())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "demo.snap")
	if err := writeSnapshot(owner, path); err != nil {
		t.Fatal(err)
	}

	server, client, err := authtext.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := server.Search("merkle tree", 3, authtext.TNRA, authtext.ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Verify("merkle tree", 3, res); err != nil {
		t.Fatalf("snapshot-opened server failed verification: %v", err)
	}
	// The original owner's client accepts the same responses.
	if err := owner.Client().Verify("merkle tree", 3, res); err != nil {
		t.Fatalf("original client rejected snapshot server: %v", err)
	}
}
