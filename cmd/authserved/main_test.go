package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"authtext"
	"authtext/internal/core"
	"authtext/internal/demo"
	"authtext/internal/httpapi"
	"authtext/internal/obs"
)

// writeTexts writes a corpus directory of .txt files, name → body.
func writeTexts(t *testing.T, texts map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range texts {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func writeCorpus(t *testing.T) string {
	t.Helper()
	return writeTexts(t, map[string]string{
		"a.txt": "the merkle tree authenticates the inverted index",
		"b.txt": "the inverted index stores impact entries by frequency",
		"c.txt": "clients verify the tree root against the owner signature",
	})
}

// The daemon's handler must serve a collection a RemoteClient can
// bootstrap from and verify against — the same end-to-end path `authserved
// -dir ...` exposes on a real socket.
func TestBuildHandlerServesVerifiableCollection(t *testing.T) {
	dir := writeCorpus(t)
	logger := discardLogger()
	handler, err := buildHandler(config{dir: dir, vocab: true, quiet: true}, logger)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := authtext.NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rc.Search(context.Background(), "inverted index", 2, authtext.TNRA, authtext.ChainMHT)
	if err != nil {
		t.Fatalf("remote search against daemon handler failed: %v", err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits")
	}

	health, err := http.Get(srv.URL + httpapi.PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	defer health.Body.Close()
	var h httpapi.Health
	if err := json.NewDecoder(health.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Documents != 3 || h.QueriesServed != 1 {
		t.Fatalf("health = %+v", h)
	}

	// Without -variants the daemon builds TNRA-CMHT only: healthz says so,
	// and the verifying client refuses TRA from the signed manifest — a
	// refusal, never tampering.
	if len(h.Variants) != 1 || h.Variants[0] != "tnra-cmht" {
		t.Fatalf("healthz variants = %v, want [tnra-cmht]", h.Variants)
	}
	_, err = rc.Search(context.Background(), "inverted index", 2, authtext.TRA, authtext.ChainMHT)
	if !errors.Is(err, authtext.ErrVariantNotBuilt) || authtext.IsTampered(err) {
		t.Fatalf("TRA against the default build: %v, want ErrVariantNotBuilt", err)
	}
}

// servedManifest decodes the manifest inside the ATCX blob a daemon serves.
func servedManifest(t *testing.T, url string) *core.Manifest {
	t.Helper()
	resp, err := http.Get(url + httpapi.PathManifest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m httpapi.ManifestResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	// ATCX: magic, then the manifest behind a u16 length.
	b := m.Export
	if len(b) < 6 || string(b[:4]) != "ATCX" {
		t.Fatalf("manifest export is not an ATCX blob: %q", b[:min(len(b), 4)])
	}
	end := 6 + int(binary.BigEndian.Uint16(b[4:]))
	if end > len(b) {
		t.Fatalf("ATCX manifest chunk of %d bytes overruns the %d-byte blob", end-6, len(b))
	}
	manifest, err := core.DecodeManifest(b[6:end])
	if err != nil {
		t.Fatal(err)
	}
	return manifest
}

// The daemon builds in dictionary mode with no flag asking for it: the
// signed manifest says so, a TNRA-CMHT build signs the manifest alone — at
// boot and for every live generation, vocabulary growth included — and a
// TRA variant adds one signature per document record, N + 1 in all.
func TestBuildHandlerSignsOncePerGeneration(t *testing.T) {
	dir := writeCorpus(t) // 3 documents
	for args, want := range map[string]int{"": 1, "-variants tra-cmht": 3 + 1} {
		cfg, err := parseFlags(append([]string{"-dir", dir, "-quiet"}, strings.Fields(args)...))
		if err != nil {
			t.Fatal(err)
		}
		var logs bytes.Buffer
		handler, err := buildHandler(cfg, slog.New(slog.NewJSONHandler(&logs, nil)))
		if err != nil {
			t.Fatal(err)
		}
		signed := -1
		for _, line := range strings.Split(logs.String(), "\n") {
			var rec struct {
				Msg        string `json:"msg"`
				Signatures int    `json:"signatures"`
			}
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "built collection" {
				signed = rec.Signatures
			}
		}
		if signed != want {
			t.Errorf("%q: the build signed %d messages, want %d", args, signed, want)
		}
		srv := httptest.NewServer(handler)
		if !servedManifest(t, srv.URL).DictMode {
			t.Errorf("%q: the served manifest is not in dictionary mode", args)
		}
		srv.Close()
	}

	cfg, err := parseFlags([]string{"-dir", dir, "-quiet", "-live"})
	if err != nil {
		t.Fatal(err)
	}
	handler, err := buildHandler(cfg, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	// Two documents of new words: they survive singleton removal and grow
	// the vocabulary, which list mode paid for by re-signing every list.
	fresh := []byte("zebra giraffe okapi ledger")
	body, _ := json.Marshal(&httpapi.UpdateRequest{Add: []httpapi.UpdateDocument{{Content: fresh}, {Content: fresh}}})
	resp, err := http.Post(srv.URL+httpapi.PathAdminUpdate, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var up httpapi.UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d, err %v", resp.StatusCode, err)
	}
	if up.Generation != 2 || up.SignaturesSigned != 1 {
		t.Fatalf("update published generation %d with %d signatures, want generation 2 with 1 (the manifest)",
			up.Generation, up.SignaturesSigned)
	}
	if m := servedManifest(t, srv.URL); !m.DictMode || m.Generation != 2 {
		t.Fatalf("live manifest: dictionary mode %v, generation %d", m.DictMode, m.Generation)
	}
}

// A daemon booted with -cache-mb serves verifiable answers from its VO
// cache and reports the counters on healthz.
func TestBuildHandlerWithCache(t *testing.T) {
	dir := writeCorpus(t)
	logger := discardLogger()
	handler, err := buildHandler(config{dir: dir, vocab: true, quiet: true, cacheMB: 16}, logger)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := authtext.NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rc.Search(context.Background(), "inverted index", 2, authtext.TNRA, authtext.ChainMHT); err != nil {
			t.Fatalf("search %d failed: %v", i, err)
		}
	}
	health, err := http.Get(srv.URL + httpapi.PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	defer health.Body.Close()
	var h httpapi.Health
	if err := json.NewDecoder(health.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Cache == nil {
		t.Fatalf("healthz missing cache block: %+v", h)
	}
	if h.Cache.Hits != 2 || h.Cache.Misses != 1 || h.Cache.CapacityBytes != 16<<20 {
		t.Fatalf("cache counters = %+v", *h.Cache)
	}
}

func TestBuildHandlerDemoCorpus(t *testing.T) {
	cfg, err := parseFlags([]string{"-quiet", "-variants", "all"})
	if err != nil {
		t.Fatal(err)
	}
	handler, err := buildHandler(cfg, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := authtext.NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Search(context.Background(), "merkle tree", 3, authtext.TRA, authtext.MHT); err != nil {
		t.Fatalf("demo corpus search failed: %v", err)
	}
	// All four built: healthz names no variant set.
	if h, err := rc.Health(context.Background()); err != nil || h.Variants != nil {
		t.Fatalf("healthz variants %v (err %v), want none for the full set", h.Variants, err)
	}
}

// A daemon booted from a snapshot must serve the identical protocol: the
// remote client bootstraps from /v1/manifest and verifies answers, without
// the daemon ever holding a signer.
func TestBuildHandlerFromSnapshot(t *testing.T) {
	docs, _, err := demo.Load("")
	if err != nil {
		t.Fatal(err)
	}
	owner, err := authtext.NewOwner(docs, authtext.WithVocabularyProofs())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "demo.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	handler, err := buildHandler(config{snapshot: path, quiet: true}, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := authtext.NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rc.Search(context.Background(), "merkle tree", 3, authtext.TNRA, authtext.ChainMHT)
	if err != nil {
		t.Fatalf("remote search against snapshot-booted daemon failed: %v", err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits")
	}
}

// writeShardCorpus is a corpus big enough that every shard keeps shared
// terms after per-shard singleton removal.
func writeShardCorpus(t *testing.T) string {
	t.Helper()
	return writeTexts(t, map[string]string{
		"a.txt": "the merkle tree authenticates the inverted index",
		"b.txt": "the inverted index stores impact entries by frequency",
		"c.txt": "clients verify the tree root against the owner signature",
		"d.txt": "the inverted index drives the merkle tree verification",
		"e.txt": "entries of the inverted index carry a frequency and a signature",
		"f.txt": "the owner publishes the merkle tree root for verification",
	})
}

// A daemon started with -shards must serve the sharded protocol with
// parallel fan-out, verifiable by a RemoteClient.
func TestBuildHandlerSharded(t *testing.T) {
	dir := writeShardCorpus(t)
	handler, err := buildHandler(config{dir: dir, shards: 3, vocab: true, quiet: true}, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := authtext.NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rc.Search(context.Background(), "inverted index", 2, authtext.TNRA, authtext.ChainMHT)
	if err != nil {
		t.Fatalf("sharded remote search against daemon handler failed: %v", err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no merged hits")
	}
	health, err := rc.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if health.Shards != 3 || health.Documents != 6 {
		t.Fatalf("health = %+v", health)
	}
}

// A daemon pointed at a sharded snapshot directory must detect it and
// serve the sharded protocol without a signer.
func TestBuildHandlerFromShardedSnapshot(t *testing.T) {
	docs, _, err := demo.Load("")
	if err != nil {
		t.Fatal(err)
	}
	owner, err := authtext.NewShardedOwner(docs, 2, authtext.WithVocabularyProofs())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "shards")
	if err := owner.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}

	handler, err := buildHandler(config{snapshot: dir, quiet: true}, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := authtext.NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	// "search results" stays frequent in both shards of the demo corpus;
	// "merkle" would be singleton-removed per shard.
	res, err := rc.Search(context.Background(), "search results", 3, authtext.TRA, authtext.ChainMHT)
	if err != nil {
		t.Fatalf("remote search against sharded snapshot daemon failed: %v", err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no merged hits")
	}
}

// Flag parsing (and -help) must complete before any collection is built:
// parseFlags performs every usage check and touches no documents.
func TestParseFlagsBeforeBuild(t *testing.T) {
	if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if _, err := parseFlags([]string{"-help"}); err != flag.ErrHelp {
		t.Errorf("-help: got %v, want flag.ErrHelp", err)
	}
	if _, err := parseFlags([]string{"-snapshot", "x.snap", "-dir", "docs"}); err == nil {
		t.Error("-snapshot with -dir accepted")
	}
	if _, err := parseFlags([]string{"-addr", ""}); err == nil {
		t.Error("empty -addr accepted")
	}
	if _, err := parseFlags([]string{"-snapshot", filepath.Join(t.TempDir(), "missing.snap")}); err == nil {
		t.Error("missing snapshot file accepted")
	}
	if _, err := parseFlags([]string{"stray"}); err == nil {
		t.Error("stray positional argument accepted")
	}
	if _, err := parseFlags([]string{"-shards", "-1"}); err == nil {
		t.Error("negative -shards accepted")
	}
	if _, err := parseFlags([]string{"-cache-mb", "-1"}); err == nil {
		t.Error("negative -cache-mb accepted")
	}
	if cfg, err := parseFlags([]string{"-cache-mb", "64"}); err != nil || cfg.cacheMB != 64 {
		t.Errorf("-cache-mb 64: cfg=%+v err=%v", cfg, err)
	}
	if _, err := parseFlags([]string{"-shards", "2", "-snapshot", "x"}); err == nil {
		t.Error("-shards with -snapshot accepted")
	}
	if cfg, err := parseFlags([]string{"-shards", "4"}); err != nil || cfg.shards != 4 {
		t.Errorf("-shards 4: cfg=%+v err=%v", cfg, err)
	}
	cfg, err := parseFlags([]string{"-addr", ":0", "-quiet"})
	if err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if cfg.addr != ":0" || !cfg.quiet || !cfg.vocab {
		t.Fatalf("cfg = %+v", cfg)
	}
}

// -variants is parsed with every other flag: a bad set is a usage error
// before anything is built, and it is refused where the daemon builds
// nothing (a snapshot carries its own signed set; a front end serves none).
func TestParseFlagsVariants(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "x.atsn")
	if err := os.WriteFile(snap, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]string{
		{"-variants", "tra-btree"},
		{"-variants", ""},
		{"-variants", "tnra-cmht,,tra-mht"},
		{"-variants", "tnra-cmht,tnra-cmht"},
		{"-variants", "all", "-snapshot", snap},
		{"-variants", "tnra-cmht", "-fleet", "http://r1:8470"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	for flags, want := range map[string]string{
		"":                  "[]", // nil: buildHandler applies defaultVariants
		"all":               "[tra-mht tra-cmht tnra-mht tnra-cmht]",
		"TRA-CMHT,tnra-mht": "[tra-cmht tnra-mht]",
	} {
		args := []string{"-variants", flags}
		if flags == "" {
			args = nil
		}
		cfg, err := parseFlags(args)
		if got := fmt.Sprint(cfg.variants); err != nil || got != want {
			t.Fatalf("%q: variants %s, err %v; want %s", args, got, err, want)
		}
	}
	// Without -variants a snapshot boot is fine: it just has nothing to set.
	if _, err := parseFlags([]string{"-snapshot", snap}); err != nil {
		t.Fatal(err)
	}
}

// TestVariantsRefusalExitsTwo runs the real main on the two refused
// combinations: a usage error, exit status 2, before anything is opened.
func TestVariantsRefusalExitsTwo(t *testing.T) {
	if args := os.Getenv("AUTHSERVED_TEST_ARGS"); args != "" {
		os.Args = append([]string{"authserved"}, strings.Fields(args)...)
		main() // exits
		return
	}
	snap := filepath.Join(t.TempDir(), "x.atsn")
	if err := os.WriteFile(snap, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range []string{"-snapshot " + snap + " -variants all", "-fleet http://r1:8470 -variants tnra-cmht"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestVariantsRefusalExitsTwo$")
		cmd.Env = append(os.Environ(), "AUTHSERVED_TEST_ARGS="+args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), "-variants") {
			t.Errorf("authserved %s: %v, stderr %q; want exit status 2 naming -variants", args, err, stderr.String())
		}
	}
}

func discardLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

// The observability flags validate like every other flag: before any
// build work, with clear usage errors.
func TestParseFlagsObservability(t *testing.T) {
	if _, err := parseFlags([]string{"-log-format", "xml"}); err == nil {
		t.Error("-log-format xml accepted")
	}
	if _, err := parseFlags([]string{"-log-level", "loud"}); err == nil {
		t.Error("-log-level loud accepted")
	}
	if _, err := parseFlags([]string{"-addr", ":8470", "-pprof-addr", ":8470"}); err == nil {
		t.Error("-pprof-addr colliding with -addr accepted")
	}
	// Collision detection compares ports, not flag spellings: ":8470" and
	// "0.0.0.0:8470" bind the same socket.
	if _, err := parseFlags([]string{"-addr", ":8470", "-pprof-addr", "0.0.0.0:8470"}); err == nil {
		t.Error("-pprof-addr 0.0.0.0:8470 colliding with -addr :8470 accepted")
	}
	if _, err := parseFlags([]string{"-addr", "localhost:8470", "-pprof-addr", "[::]:8470"}); err == nil {
		t.Error("-pprof-addr wildcard host colliding with -addr port accepted")
	}
	// Distinct explicit hosts on one port, and kernel-assigned port 0, are
	// legitimate.
	if _, err := parseFlags([]string{"-addr", "127.0.0.1:8470", "-pprof-addr", "127.0.0.2:8470"}); err != nil {
		t.Errorf("distinct hosts on one port rejected: %v", err)
	}
	if _, err := parseFlags([]string{"-addr", ":0", "-pprof-addr", ":0"}); err != nil {
		t.Errorf("kernel-assigned ports rejected: %v", err)
	}
	cfg, err := parseFlags([]string{"-log-format", "json", "-log-level", "Debug", "-pprof-addr", ":6060"})
	if err != nil {
		t.Fatalf("valid observability flags rejected: %v", err)
	}
	if cfg.logFormat != "json" || cfg.logLevel != slog.LevelDebug || cfg.pprofAddr != ":6060" {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg, err := parseFlags(nil); err != nil || cfg.logFormat != "text" || cfg.logLevel != slog.LevelInfo || cfg.pprofAddr != "" {
		t.Fatalf("defaults: cfg=%+v err=%v", cfg, err)
	}
}

// TestMetricsEndToEnd is the CI smoke check for the whole observability
// path: boot a live daemon handler with a cache, drive searches (with a
// repeat for a cache hit) and one update batch through HTTP, then scrape
// /v1/metrics and assert the core series moved. It asserts by parsed
// value, not by grepping exposition text.
func TestMetricsEndToEnd(t *testing.T) {
	// Documents long enough that a two-hit answer crosses the frame's
	// compression threshold, so its document sections go through the memo.
	dir := writeTexts(t, map[string]string{
		"a.txt": "the merkle tree authenticates the inverted index: every list root is a leaf of the " +
			"dictionary tree, and the owner signs the manifest that commits its root, so a client that " +
			"holds the owner's public key can check any answer without trusting the server that sent it",
		"b.txt": "the inverted index stores impact entries by frequency, highest first, so the threshold " +
			"algorithm reads a short prefix of each query term's list and stops as soon as no document " +
			"outside the result can still overtake the last one it returns to the user",
		"c.txt": "clients verify the tree root against the owner signature, recompute every score from the " +
			"revealed entries, and reject an answer whose order, contents or completeness differs from " +
			"what the signed structures allow, whichever server or proxy it came through",
	})
	handler, err := buildHandler(config{dir: dir, vocab: true, quiet: true, live: true, cacheMB: 8}, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := authtext.NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ { // 1 miss + 2 cache hits
		if _, err := rc.Search(ctx, "inverted index", 2, authtext.TNRA, authtext.ChainMHT); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	update, err := json.Marshal(&httpapi.UpdateRequest{
		Add: []httpapi.UpdateDocument{{Content: []byte("a fresh merkle tree document")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	up, err := http.Post(srv.URL+httpapi.PathAdminUpdate, "application/json", bytes.NewReader(update))
	if err != nil {
		t.Fatal(err)
	}
	up.Body.Close()
	if up.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d", up.StatusCode)
	}

	resp, err := http.Get(srv.URL + httpapi.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", httpapi.PathMetrics, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	samples, err := obs.Parse(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}

	wantPositive := []struct {
		name   string
		labels []obs.Label
	}{
		{"authtext_http_requests_total", []obs.Label{obs.L("endpoint", "search"), obs.L("code", "200")}},
		{"authtext_http_request_seconds_count", []obs.Label{obs.L("endpoint", "search")}},
		{"authtext_http_response_bytes_total", []obs.Label{obs.L("endpoint", "search")}},
		{"authtext_search_stage_seconds_count", []obs.Label{obs.L("stage", "engine")}},
		{"authtext_search_stage_seconds_count", []obs.Label{obs.L("stage", "vo_encode")}},
		{"authtext_search_stage_seconds_count", []obs.Label{obs.L("stage", "cache_lookup")}},
		{"authtext_search_stage_seconds_count", []obs.Label{obs.L("stage", "wire_encode")}},
		{"authtext_engine_phase_seconds_count", []obs.Label{obs.L("phase", "index_walk")}},
		{"authtext_engine_phase_seconds_count", []obs.Label{obs.L("phase", "proof_assembly")}},
		{"authtext_searches_total", []obs.Label{obs.L("kind", "single")}},
		{"authtext_vocache_hits_total", nil},
		{"authtext_vocache_misses_total", nil},
		{"authtext_vocache_capacity_bytes", nil},
		{"authtext_live_generation", nil},
		{"authtext_live_swaps_total", nil},
		{"authtext_live_swap_seconds_count", nil},
		// The repeated answer's documents are replayed from the memo (which
		// earlier tests in this process may have filled: "deflated" can be 0).
		{"authtext_wire_sections_total", []obs.Label{obs.L("outcome", "memo_hit")}},
	}
	for _, w := range wantPositive {
		s, ok := obs.FindSample(samples, w.name, w.labels...)
		if !ok {
			t.Errorf("series %s %v missing from scrape", w.name, w.labels)
			continue
		}
		if s.Value <= 0 {
			t.Errorf("%s = %g, want > 0", s.Key(), s.Value)
		}
	}
	if s, ok := obs.FindSample(samples, "authtext_vocache_hits_total"); ok && s.Value != 2 {
		t.Errorf("cache hits = %g, want 2", s.Value)
	}

	// The two engine phases split the engine stage: same observations, and
	// their time adds up to its time.
	sum := func(name string, label obs.Label) float64 {
		s, _ := obs.FindSample(samples, name, label)
		return s.Value
	}
	engine := sum("authtext_search_stage_seconds_sum", obs.L("stage", "engine"))
	phases := sum("authtext_engine_phase_seconds_sum", obs.L("phase", "index_walk")) +
		sum("authtext_engine_phase_seconds_sum", obs.L("phase", "proof_assembly"))
	if diff := phases - engine; diff > 0.05*engine || diff < -0.05*engine {
		t.Errorf("index_walk + proof_assembly = %gs, engine stage = %gs: more than 5%% apart", phases, engine)
	}
	for _, phase := range []string{"index_walk", "proof_assembly"} {
		if n, want := sum("authtext_engine_phase_seconds_count", obs.L("phase", phase)),
			sum("authtext_search_stage_seconds_count", obs.L("stage", "engine")); n != want {
			t.Errorf("phase %s observed %g times, the engine stage %g", phase, n, want)
		}
	}
}

// The fleet flags validate before any work happens: -fleet is a serving
// shape of its own and excludes every collection-building flag.
func TestParseFlagsFleet(t *testing.T) {
	for _, bad := range [][]string{
		{"-fleet", "http://r1:8470", "-dir", "docs"},
		{"-fleet", "http://r1:8470", "-snapshot", "x.snap"},
		{"-fleet", "http://r1:8470", "-shards", "2"},
		{"-fleet", "http://r1:8470", "-live"},
		{"-fleet", "http://r1:8470", "-watch", "1s"},
		{"-fleet", "http://r1:8470", "-cache-mb", "64"},
		{"-fleet", "http://r1:8470", "-mmap"},
		{"-fleet-probe", "1s"},
		{"-fleet", "http://r1:8470", "-fleet-probe", "-1s"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
	cfg, err := parseFlags([]string{"-fleet", "http://r1:8470,http://r2:8470", "-fleet-probe", "250ms"})
	if err != nil {
		t.Fatalf("valid fleet flags rejected: %v", err)
	}
	if cfg.fleet != "http://r1:8470,http://r2:8470" || cfg.fleetProbe.String() != "250ms" {
		t.Fatalf("cfg = %+v", cfg)
	}
}

// `authserved -fleet` end to end: a front end built from the flag config
// load-balances real replicas, and a RemoteClient verifies answers
// through it exactly as against a single daemon.
func TestBuildFleetHandlerServesVerifiableFleet(t *testing.T) {
	dir := writeCorpus(t)
	logger := discardLogger()
	replica, err := buildHandler(config{dir: dir, vocab: true, quiet: true}, logger)
	if err != nil {
		t.Fatal(err)
	}
	r1 := httptest.NewServer(replica)
	defer r1.Close()
	r2 := httptest.NewServer(replica)
	defer r2.Close()

	// Spacing and a trailing comma must not confuse the URL list.
	cfg := config{fleet: r1.URL + ", " + r2.URL + ",", fleetProbe: 20 * time.Millisecond}
	handler, err := buildFleetHandler(cfg, authtext.NewMetrics(), logger)
	if err != nil {
		t.Fatal(err)
	}
	fes := httptest.NewServer(handler)
	defer fes.Close()

	rc, err := authtext.NewRemoteClient(fes.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rc.Search(context.Background(), "inverted index", 2, authtext.TNRA, authtext.ChainMHT)
	if err != nil {
		t.Fatalf("remote search through fleet front end failed: %v", err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits through the front end")
	}

	status, err := http.Get(fes.URL + "/v1/fleet/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer status.Body.Close()
	var fh struct {
		Status   string `json:"status"`
		Backends []struct {
			URL string `json:"url"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(status.Body).Decode(&fh); err != nil {
		t.Fatal(err)
	}
	if fh.Status != "ok" || len(fh.Backends) != 2 {
		t.Fatalf("fleet healthz = %+v", fh)
	}
	// The synthesized healthz reports the replicas' shape, variant set
	// included, once a probe has read it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := rc.Health(context.Background())
		if err == nil && len(h.Variants) == 1 && h.Variants[0] == "tnra-cmht" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("front-end healthz variants never matched the replicas': %+v (err %v)", h, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The sharded live routes: `-live -shards N -live-snapshots DIR` persists
// every set generation, and `-snapshot DIR -watch` on that directory opens
// a sharded replica that follows it — verifiable end to end, serving-only,
// and never memory-mapped.
func TestBuildHandlerLiveShardedSnapshotsAndWatchedReplica(t *testing.T) {
	gens := filepath.Join(t.TempDir(), "gens")
	cfg, err := parseFlags([]string{"-live", "-shards", "2", "-live-snapshots", gens, "-quiet"}) // demo corpus
	if err != nil {
		t.Fatalf("sharded -live-snapshots rejected: %v", err)
	}
	ownerHandler, err := buildHandler(cfg, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	owner := httptest.NewServer(ownerHandler)
	defer owner.Close()
	update := func(url string) int {
		t.Helper()
		body, _ := json.Marshal(httpapi.UpdateRequest{Add: []httpapi.UpdateDocument{
			{Content: []byte("authenticated search results for the search engine")}}})
		resp, err := http.Post(url+httpapi.PathAdminUpdate, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := update(owner.URL); code != http.StatusOK {
		t.Fatalf("owner update answered %d", code)
	}
	if !authtext.IsLiveSnapshotDir(gens) {
		t.Fatalf("%s holds no per-generation sharded snapshots", gens)
	}

	if _, err := buildHandler(config{snapshot: gens, mmap: true, quiet: true}, discardLogger()); err == nil {
		t.Error("-mmap accepted on a per-generation sharded snapshot directory")
	}
	rcfg, err := parseFlags([]string{"-snapshot", gens, "-watch", "5ms", "-quiet"})
	if err != nil {
		t.Fatal(err)
	}
	replicaHandler, err := buildHandler(rcfg, discardLogger())
	if err != nil {
		t.Fatalf("sharded per-generation directory not routed to a replica: %v", err)
	}
	replica := httptest.NewServer(replicaHandler)
	defer replica.Close()

	rc, err := authtext.NewRemoteClient(replica.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := rc.Search(ctx, "search results", 2, authtext.TNRA, authtext.ChainMHT)
	if err != nil || res.Generation != 2 {
		t.Fatalf("replica search: %+v, err %v", res, err)
	}
	if code := update(replica.URL); code != http.StatusForbidden {
		t.Fatalf("replica update answered %d, want 403", code)
	}

	// The owner publishes generation 3; -watch carries the replica there.
	if code := update(owner.URL); code != http.StatusOK {
		t.Fatalf("owner update answered %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := rc.Search(ctx, "search results", 2, authtext.TNRA, authtext.ChainMHT)
		if err != nil {
			t.Fatal(err)
		}
		if res.Generation == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica still at generation %d", res.Generation)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
