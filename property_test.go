package authtext_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"authtext"
)

// Property-style round-trip suite: randomized corpora (sizes, vocabulary
// overlap, singleton terms, token lengths) and randomized queries (known,
// unknown and mixed terms) must produce honest Search→Verify round trips
// across every Algorithm×Scheme combination — directly, through a snapshot
// round-trip, and sharded — whose rankings match the brute-force oracle.
// Seeds are fixed so failures reproduce.

// propVocabulary builds a vocabulary pool with controlled overlap: common
// words appear in many documents, rare words in few, and singletons in one.
func propVocabulary(rng *rand.Rand, size int) []string {
	vocab := make([]string, size)
	for i := range vocab {
		n := 3 + rng.Intn(8)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		// A numeric suffix keeps words unique even on collision.
		vocab[i] = string(b) + fmt.Sprint(i)
	}
	return vocab
}

func propCorpus(rng *rand.Rand) ([]authtext.Document, []string) {
	nDocs := 5 + rng.Intn(36)
	common := propVocabulary(rng, 5+rng.Intn(10))
	rare := propVocabulary(rng, 20+rng.Intn(30))
	docs := make([]authtext.Document, nDocs)
	for d := range docs {
		words := make([]string, 0, 30)
		wlen := 8 + rng.Intn(22)
		for w := 0; w < wlen; w++ {
			if rng.Intn(3) > 0 {
				words = append(words, common[rng.Intn(len(common))])
			} else {
				words = append(words, rare[rng.Intn(len(rare))])
			}
		}
		docs[d] = authtext.Document{Content: []byte(strings.Join(words, " "))}
	}
	return docs, append(common, rare...)
}

func propQuery(rng *rand.Rand, vocab []string) string {
	qlen := 1 + rng.Intn(4)
	words := make([]string, qlen)
	for i := range words {
		switch rng.Intn(5) {
		case 0:
			// Out-of-dictionary term ("zz" prefix never collides with the
			// generated vocabulary, which is lower-case-then-digit).
			words[i] = "zzunknown" + fmt.Sprint(rng.Intn(100))
		default:
			words[i] = vocab[rng.Intn(len(vocab))]
		}
	}
	return strings.Join(words, " ")
}

func TestPropertyHonestRoundTrip(t *testing.T) {
	algorithms := []authtext.Algorithm{authtext.TRA, authtext.TNRA}
	schemes := []authtext.Scheme{authtext.MHT, authtext.ChainMHT}
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprint("seed=", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			docs, vocab := propCorpus(rng)
			opts := []authtext.Option{authtext.WithFastSigner([]byte(fmt.Sprint("prop-", trial)))}
			if rng.Intn(2) == 0 {
				opts = append(opts, authtext.WithSingletonTerms())
			}
			owner, err := authtext.NewOwner(docs, opts...)
			if err != nil {
				// A fully singleton dictionary is a legitimate build error
				// for tiny random corpora without WithSingletonTerms.
				if strings.Contains(err.Error(), "no terms survive") {
					t.Skipf("degenerate corpus: %v", err)
				}
				t.Fatal(err)
			}
			server, client := owner.Server(), owner.Client()

			var buf bytes.Buffer
			if err := owner.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			snapPath := filepath.Join(t.TempDir(), "snap.atsn")
			if err := os.WriteFile(snapPath, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			snapServer, snapClient, err := authtext.OpenSnapshotFile(snapPath)
			if err != nil {
				t.Fatal(err)
			}

			for q := 0; q < 8; q++ {
				query := propQuery(rng, vocab)
				r := 1 + rng.Intn(12)
				for _, algo := range algorithms {
					for _, scheme := range schemes {
						res, err := server.Search(query, r, algo, scheme)
						if err != nil {
							t.Fatalf("%s-%s %q r=%d: %v", algo, scheme, query, r, err)
						}
						if err := client.Verify(query, r, res); err != nil {
							t.Errorf("%s-%s %q r=%d: honest result rejected: %v", algo, scheme, query, r, err)
						}
						if err := server.CheckRankingForTest(query, r, algo, res); err != nil {
							t.Errorf("%s-%s %q r=%d: %v", algo, scheme, query, r, err)
						}
						// The same query through the snapshot round-trip,
						// cross-verified by the original client.
						sres, err := snapServer.Search(query, r, algo, scheme)
						if err != nil {
							t.Fatalf("snapshot %s-%s %q r=%d: %v", algo, scheme, query, r, err)
						}
						if err := snapClient.Verify(query, r, sres); err != nil {
							t.Errorf("snapshot client %s-%s %q r=%d: %v", algo, scheme, query, r, err)
						}
						if err := client.Verify(query, r, sres); err != nil {
							t.Errorf("original client on snapshot result %s-%s %q r=%d: %v", algo, scheme, query, r, err)
						}
					}
				}
			}
		})
	}
}

// TestPropertyShardedRoundTrip extends the property suite to sharded
// collections: random shard counts, fully verified merged
// rankings, including through a sharded snapshot round-trip.
func TestPropertyShardedRoundTrip(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprint("seed=", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(2000 + trial)))
			docs, vocab := propCorpus(rng)
			shards := 2 + rng.Intn(3)
			opts := []authtext.Option{
				authtext.WithFastSigner([]byte(fmt.Sprint("prop-shard-", trial))),
				authtext.WithSingletonTerms(),
			}
			owner, err := authtext.NewShardedOwner(docs, shards, opts...)
			if err != nil {
				t.Fatal(err)
			}
			server, client := owner.Server(), owner.Client()

			dir := t.TempDir()
			if err := owner.WriteSnapshotDir(dir); err != nil {
				t.Fatal(err)
			}
			snapServer, snapClient, err := authtext.OpenSnapshotFile(dir)
			if err != nil {
				t.Fatal(err)
			}

			for q := 0; q < 5; q++ {
				query := propQuery(rng, vocab)
				r := 1 + rng.Intn(8)
				for _, algo := range []authtext.Algorithm{authtext.TRA, authtext.TNRA} {
					for _, scheme := range []authtext.Scheme{authtext.MHT, authtext.ChainMHT} {
						res, err := server.Search(query, r, algo, scheme)
						if err != nil {
							t.Fatalf("%s-%s %q r=%d: %v", algo, scheme, query, r, err)
						}
						if err := client.Verify(query, r, res); err != nil {
							t.Errorf("%s-%s %q r=%d: honest sharded result rejected: %v", algo, scheme, query, r, err)
						}
						if err := server.CheckRankingForTest(query, r, algo, res); err != nil {
							t.Errorf("%s-%s %q r=%d: %v", algo, scheme, query, r, err)
						}
						sres, err := snapServer.Search(query, r, algo, scheme)
						if err != nil {
							t.Fatalf("snapshot %s-%s %q r=%d: %v", algo, scheme, query, r, err)
						}
						if err := snapClient.Verify(query, r, sres); err != nil {
							t.Errorf("sharded snapshot client %s-%s %q r=%d: %v", algo, scheme, query, r, err)
						}
						if err := client.Verify(query, r, sres); err != nil {
							t.Errorf("original sharded client on snapshot result %s-%s %q r=%d: %v", algo, scheme, query, r, err)
						}
					}
				}
			}
		})
	}
}

// TestPropertyCachedZipfianStream interleaves a Zipf-skewed query stream
// with random document-update batches on a live owner whose servers,
// re-pinned after every update, serve through one VO cache. The invariant under test is the cache transparency
// claim from docs/ARCHITECTURE.md: every response — cache hit or miss,
// before or after any number of generation swaps — verifies against a
// current client, and any answer saved from a superseded generation is
// classified exactly as ErrStaleGeneration. 1000 iterations, -race
// clean.
func TestPropertyCachedZipfianStream(t *testing.T) {
	algorithms := []authtext.Algorithm{authtext.TRA, authtext.TNRA}
	schemes := []authtext.Scheme{authtext.MHT, authtext.ChainMHT}
	iterations := 1000
	if testing.Short() {
		iterations = 200
	}
	rng := rand.New(rand.NewSource(4096))
	docs, vocab := propCorpus(rng)
	owner, _, err := authtext.NewLiveOwner(docs,
		authtext.WithFastSigner([]byte("prop-cache")),
		authtext.WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	cache := authtext.NewVOCache(4 << 20)
	// Every server pinned to a generation serves through the one cache.
	pin := func() *authtext.Server {
		srv := owner.Server()
		srv.SetVOCache(cache)
		return srv
	}
	srv := pin()
	client := owner.Client()

	// A hot pool of queries replayed with Zipfian skew: the head queries
	// recur constantly (cache hits), the tail keeps missing.
	pool := make([]string, 24)
	for i := range pool {
		pool[i] = propQuery(rng, vocab)
	}
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(pool)-1))

	type saved struct {
		query string
		r     int
		res   *authtext.SearchResult
		gen   uint64
	}
	var old *saved
	generation := uint64(1)
	for i := 0; i < iterations; i++ {
		// ~10% of iterations publish an update batch, swapping the
		// generation under the cache mid-stream.
		if rng.Intn(10) == 0 {
			words := make([]string, 5+rng.Intn(10))
			for w := range words {
				words[w] = vocab[rng.Intn(len(vocab))]
			}
			_, rep, err := owner.Update([]authtext.Document{{Content: []byte(strings.Join(words, " "))}}, nil)
			if err != nil {
				t.Fatalf("iter %d update: %v", i, err)
			}
			generation = rep.Generation
			if err := client.Advance(owner.ManifestUpdate()); err != nil {
				t.Fatalf("iter %d advance: %v", i, err)
			}
			srv = pin()
		}

		query := pool[zipf.Uint64()]
		r := 1 + rng.Intn(8)
		algo := algorithms[rng.Intn(len(algorithms))]
		scheme := schemes[rng.Intn(len(schemes))]
		res, err := srv.Search(query, r, algo, scheme)
		if err != nil {
			t.Fatalf("iter %d %s-%s %q r=%d: %v", i, algo, scheme, query, r, err)
		}
		if res.Generation != generation {
			t.Fatalf("iter %d: answer generation %d, current is %d (cache leaked across a swap)", i, res.Generation, generation)
		}
		if err := client.Verify(query, r, res); err != nil {
			t.Fatalf("iter %d %s-%s %q r=%d: response rejected: %v", i, algo, scheme, query, r, err)
		}

		// A response saved earlier must still verify while its generation
		// is current, and classify as ErrStaleGeneration once superseded.
		if old != nil {
			err := client.Verify(old.query, old.r, old.res)
			switch {
			case old.gen == generation && err != nil:
				t.Fatalf("iter %d: same-generation saved answer rejected: %v", i, err)
			case old.gen != generation && !errors.Is(err, authtext.ErrStaleGeneration):
				t.Fatalf("iter %d: stale saved answer (gen %d vs %d) classified as %v", i, old.gen, generation, err)
			}
		}
		if rng.Intn(4) == 0 {
			old = &saved{query: query, r: r, res: res, gen: generation}
		}
	}
	st := cache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stream never exercised both cache paths: %+v", st)
	}
	t.Logf("cache after %d iterations: %+v (hit rate %.1f%%)", iterations, st, 100*st.HitRate())
}

// TestPropertyLiveUpdateSequence drives a live collection through a
// random add/remove/search/verify sequence: after every accepted update
// the advancing client verifies fresh answers across all
// Algorithm×Scheme combinations, and a stale answer saved from any
// earlier generation is rejected as tampering once the client advances.
func TestPropertyLiveUpdateSequence(t *testing.T) {
	algorithms := []authtext.Algorithm{authtext.TRA, authtext.TNRA}
	schemes := []authtext.Scheme{authtext.MHT, authtext.ChainMHT}
	trials := 4
	steps := 8
	if testing.Short() {
		trials, steps = 2, 4
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprint("seed=", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7000 + trial)))
			docs, vocab := propCorpus(rng)
			docAt := func() authtext.Document {
				words := make([]string, 6+rng.Intn(12))
				for i := range words {
					words[i] = vocab[rng.Intn(len(vocab))]
				}
				return authtext.Document{Content: []byte(strings.Join(words, " "))}
			}
			owner, handles, err := authtext.NewLiveOwner(docs,
				authtext.WithFastSigner([]byte(fmt.Sprint("prop-live-", trial))),
				authtext.WithSingletonTerms())
			if err != nil {
				t.Fatal(err)
			}
			client := owner.Client()
			var stale *authtext.SearchResult
			var staleQuery string

			for step := 0; step < steps; step++ {
				// Random batch: adds, removes, or both (never emptying).
				var add []authtext.Document
				var remove []authtext.DocHandle
				for n := rng.Intn(3); n >= 0; n-- {
					add = append(add, docAt())
				}
				if len(handles) > 3 {
					for n := rng.Intn(2); n >= 0 && len(handles) > 3; n-- {
						i := rng.Intn(len(handles))
						remove = append(remove, handles[i])
						handles = append(handles[:i], handles[i+1:]...)
					}
				}
				added, rep, err := owner.Update(add, remove)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				handles = append(handles, added...)
				if rep.Generation != uint64(step+2) {
					t.Fatalf("step %d published generation %d", step, rep.Generation)
				}
				if err := client.Advance(owner.ManifestUpdate()); err != nil {
					t.Fatalf("step %d advance: %v", step, err)
				}
				srv := owner.Server()

				query := propQuery(rng, vocab)
				r := 1 + rng.Intn(8)
				for _, algo := range algorithms {
					for _, scheme := range schemes {
						res, err := srv.Search(query, r, algo, scheme)
						if err != nil {
							t.Fatalf("step %d %s-%s: %v", step, algo, scheme, err)
						}
						if res.Generation != rep.Generation {
							t.Fatalf("step %d answer generation %d, want %d", step, res.Generation, rep.Generation)
						}
						if err := client.Verify(query, r, res); err != nil {
							t.Errorf("step %d %s-%s honest result rejected: %v", step, algo, scheme, err)
						}
						if err := srv.CheckRankingForTest(query, r, algo, res); err != nil {
							t.Errorf("step %d %s-%s %q r=%d: %v", step, algo, scheme, query, r, err)
						}
					}
				}
				// An answer saved from an earlier generation must be stale
				// for the advanced client.
				if stale != nil {
					err := client.Verify(staleQuery, 3, stale)
					if !errors.Is(err, authtext.ErrStaleGeneration) {
						t.Errorf("step %d: stale answer classified as %v", step, err)
					}
				}
				if rng.Intn(2) == 0 {
					staleQuery = propQuery(rng, vocab)
					if stale, err = srv.Search(staleQuery, 3, authtext.TRA, authtext.ChainMHT); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestPropertyLiveRemovalExclusion is the removal-specific property: under
// randomized interleaved add/remove sequences, a tombstoned document's
// content never appears in a verified answer — including the empty-answer
// case, where the verifier must prove the absence of a term whose only
// postings belong to dead slots — while every live document stays
// reachable through its own marker term. Each document carries a unique
// marker token so reachability is decidable from the outside.
func TestPropertyLiveRemovalExclusion(t *testing.T) {
	algorithms := []authtext.Algorithm{authtext.TRA, authtext.TNRA}
	schemes := []authtext.Scheme{authtext.MHT, authtext.ChainMHT}
	trials := 3
	steps := 6
	if testing.Short() {
		trials, steps = 2, 3
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprint("seed=", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9100 + trial)))
			filler := propVocabulary(rng, 12)
			nextMarker := 0
			makeDoc := func() (authtext.Document, string) {
				marker := fmt.Sprintf("markerxyz%d", nextMarker)
				nextMarker++
				words := []string{marker}
				for w := 4 + rng.Intn(10); w > 0; w-- {
					words = append(words, filler[rng.Intn(len(filler))])
				}
				return authtext.Document{Content: []byte(strings.Join(words, " "))}, marker
			}
			const initial = 20
			docs := make([]authtext.Document, initial)
			markers := make([]string, initial) // marker per live handle, same order
			for i := range docs {
				docs[i], markers[i] = makeDoc()
			}
			owner, handles, err := authtext.NewLiveOwner(docs,
				authtext.WithFastSigner([]byte(fmt.Sprint("prop-removal-", trial))),
				authtext.WithSingletonTerms())
			if err != nil {
				t.Fatal(err)
			}
			client := owner.Client()
			var removedMarkers []string

			for step := 0; step < steps; step++ {
				// Remove a random few, sometimes add replacements.
				var add []authtext.Document
				var addMarkers []string
				for n := rng.Intn(3); n > 0; n-- {
					d, m := makeDoc()
					add = append(add, d)
					addMarkers = append(addMarkers, m)
				}
				var remove []authtext.DocHandle
				for n := 1 + rng.Intn(3); n > 0 && len(handles) > 2; n-- {
					i := rng.Intn(len(handles))
					remove = append(remove, handles[i])
					removedMarkers = append(removedMarkers, markers[i])
					handles = append(handles[:i], handles[i+1:]...)
					markers = append(markers[:i], markers[i+1:]...)
				}
				added, rep, err := owner.Update(add, remove)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				handles = append(handles, added...)
				markers = append(markers, addMarkers...)
				if err := client.Advance(owner.ManifestUpdate()); err != nil {
					t.Fatalf("step %d advance: %v", step, err)
				}
				srv := owner.Server()
				if len(handles) != rep.Documents {
					t.Fatalf("step %d: tracking %d handles but report says %d live documents",
						step, len(handles), rep.Documents)
				}
				if got := len(owner.Handles()); got != len(handles) {
					t.Fatalf("step %d: owner tracks %d handles, test tracks %d", step, got, len(handles))
				}

				// Every removed marker must yield a verified answer free of
				// the removed document — usually an empty one, since markers
				// are unique to their document.
				for _, m := range removedMarkers {
					for _, algo := range algorithms {
						for _, scheme := range schemes {
							res, err := srv.Search(m, 2, algo, scheme)
							if err != nil {
								t.Fatalf("step %d %s-%s %q: %v", step, algo, scheme, m, err)
							}
							if err := client.Verify(m, 2, res); err != nil {
								t.Errorf("step %d %s-%s: honest answer for removed marker %q rejected: %v",
									step, algo, scheme, m, err)
							}
							if err := srv.CheckRankingForTest(m, 2, algo, res); err != nil {
								t.Errorf("step %d %s-%s %q: %v", step, algo, scheme, m, err)
							}
							for _, h := range res.Hits {
								if bytes.Contains(h.Content, []byte(m)) {
									t.Errorf("step %d %s-%s: removed document (marker %q) served as doc %d",
										step, algo, scheme, m, h.DocID)
								}
							}
						}
					}
				}

				// A random live marker must still find its document.
				if len(markers) > 0 {
					i := rng.Intn(len(markers))
					res, err := srv.Search(markers[i], 2, authtext.TNRA, authtext.ChainMHT)
					if err != nil {
						t.Fatalf("step %d live marker: %v", step, err)
					}
					if err := client.Verify(markers[i], 2, res); err != nil {
						t.Errorf("step %d: live marker %q answer rejected: %v", step, markers[i], err)
					}
					found := false
					for _, h := range res.Hits {
						if bytes.Contains(h.Content, []byte(markers[i])) {
							found = true
						}
					}
					if !found {
						t.Errorf("step %d: live document (marker %q) missing from its own query", step, markers[i])
					}
				}
			}
		})
	}
}
