package authtext

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"authtext/internal/wire"
)

// The cache suite proves the hot-query VO cache is transparent on the
// wire and powerless as an attack vector: a hit is byte-identical to the
// miss that populated it, and a poisoned entry — bit-flipped, swapped
// across queries, or replayed across generations — is rejected by client
// verification exactly like any other tampering.

func TestCacheKeyDiscriminates(t *testing.T) {
	base := cacheKey(false, []string{"night", "keeper"}, 3, TNRA, ChainMHT, 1)
	same := cacheKey(false, []string{"night", "keeper"}, 3, TNRA, ChainMHT, 1)
	if base != same {
		t.Fatal("identical parameters produced different keys")
	}
	variants := []string{
		cacheKey(true, []string{"night", "keeper"}, 3, TNRA, ChainMHT, 1),
		cacheKey(false, []string{"keeper", "night"}, 3, TNRA, ChainMHT, 1),
		cacheKey(false, []string{"night"}, 3, TNRA, ChainMHT, 1),
		cacheKey(false, []string{"night", "keeper"}, 4, TNRA, ChainMHT, 1),
		cacheKey(false, []string{"night", "keeper"}, 3, TRA, ChainMHT, 1),
		cacheKey(false, []string{"night", "keeper"}, 3, TNRA, MHT, 1),
		cacheKey(false, []string{"night", "keeper"}, 3, TNRA, ChainMHT, 2),
	}
	seen := map[string]bool{base: true}
	for i, k := range variants {
		if seen[k] {
			t.Fatalf("variant %d collided: %q", i, k)
		}
		seen[k] = true
	}
}

func TestCacheHitVerifiesLikeMiss(t *testing.T) {
	// A private owner: the test ends by failing its device.
	o, err := NewOwner(newsDocs(), WithFastSigner([]byte("cache-hit")))
	if err != nil {
		t.Fatal(err)
	}
	srv := o.Server()
	cache := NewVOCache(1 << 20)
	srv.SetVOCache(cache)
	client := o.Client()

	const q, r = "patent examiner portal", 3
	miss, err := srv.Search(q, r, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := srv.Search(q, r, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("expected one miss then one hit, got %+v", st)
	}
	if !bytes.Equal(miss.VO, hit.VO) || len(miss.Hits) != len(hit.Hits) {
		t.Fatal("cache hit differs from the miss that populated it")
	}
	if err := client.Verify(q, r, hit); err != nil {
		t.Fatalf("cached answer failed verification: %v", err)
	}
	// Different spellings normalise onto the same entry...
	if _, err := srv.Search("The PATENT examiner portal", r, TNRA, ChainMHT); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Hits; got != 2 {
		t.Fatalf("normalised respelling missed the cache: hits=%d", got)
	}
	// ...while different parameters do not.
	if _, err := srv.Search(q, r+1, TNRA, ChainMHT); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses; got != 2 {
		t.Fatalf("different r hit the wrong entry: misses=%d", got)
	}
	// What makes a hit cheap: it reads nothing from the store. With the
	// device failing every read, the cached query still answers (and
	// verifies) while an uncached one cannot.
	o.v.col.Device().Poison(errors.New("device gone"))
	hit, err = srv.Search(q, r, TNRA, ChainMHT)
	if err != nil {
		t.Fatalf("cache hit touched the store: %v", err)
	}
	if err := client.Verify(q, r, hit); err != nil {
		t.Fatalf("cached answer failed verification: %v", err)
	}
	if _, err := srv.Search("search results integrity", r, TNRA, ChainMHT); err == nil {
		t.Fatal("uncached query answered without the store")
	}
}

// TestCacheHitsUnderUpdates: an update bumps the generation, so every
// cached answer stops matching at once and the same stream can only hit
// less often — each query's first sighting after a swap is a miss again.
// The client follows the manifest channel and verifies every answer, hit
// or miss, on whichever generation served it.
func TestCacheHitsUnderUpdates(t *testing.T) {
	a, b, c := liveQuery, "inverted index digest", "threshold random access"
	stream := []string{a, b, a, a, b, c, a, b}
	for _, tc := range []struct {
		name         string
		updateBefore map[int]bool // stream positions preceded by a one-document update
		hits         int64
	}{
		{"static", nil, 5},
		{"one update", map[int]bool{4: true}, 3},
		{"update before every query", map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lo, _, err := NewLiveOwner(liveDocs(0, 16), WithFastSigner([]byte("cache-updates")))
			if err != nil {
				t.Fatal(err)
			}
			cache := NewVOCache(1 << 20)
			client := lo.Client()
			for i, q := range stream {
				if tc.updateBefore[i] {
					if _, _, err := lo.AddDocuments(liveDocs(100+i, 1)); err != nil {
						t.Fatal(err)
					}
					m, msig := lo.ManifestUpdate()
					if err := client.Advance(m, msig); err != nil {
						t.Fatal(err)
					}
				}
				// Each query pins the current generation through the one cache.
				srv := lo.Server()
				srv.SetVOCache(cache)
				res, err := srv.Search(q, 3, TNRA, ChainMHT)
				if err != nil {
					t.Fatal(err)
				}
				if err := client.Verify(q, 3, res); err != nil {
					t.Fatalf("query %d (%q) failed verification: %v", i, q, err)
				}
			}
			st := cache.Stats()
			if st.Hits != tc.hits || st.Hits+st.Misses != int64(len(stream)) {
				t.Fatalf("hits %d misses %d over %d queries, want %d hits", st.Hits, st.Misses, len(stream), tc.hits)
			}
		})
	}
}

// TestCacheCallerCannotPoisonViaResult: mutating the result a caller got
// back must not leak into what the next caller is served.
func TestCacheCallerCannotPoisonViaResult(t *testing.T) {
	o := owner(t)
	srv := o.Server()
	srv.SetVOCache(NewVOCache(1 << 20))

	const q, r = "inverted index documents", 3
	first, err := srv.Search(q, r, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Hits) < 2 {
		t.Fatalf("need ≥2 hits, got %d", len(first.Hits))
	}
	first.Hits[0], first.Hits[1] = first.Hits[1], first.Hits[0]
	first.Generation = 999

	second, err := srv.Search(q, r, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if second.Hits[0].DocID == first.Hits[0].DocID && second.Hits[1].DocID == first.Hits[1].DocID {
		t.Fatal("caller's reorder leaked into the cached answer")
	}
	if second.Generation == 999 {
		t.Fatal("caller's generation scribble leaked into the cached answer")
	}
	if err := o.Client().Verify(q, r, second); err != nil {
		t.Fatalf("cached answer failed verification after caller mutation: %v", err)
	}
}

// poisonVO flips one bit of every cached SearchResult's VO in place,
// emulating a compromised cache (memory corruption, or a server operator
// scribbling on the stored answers).
func poisonVO(c *VOCache, t *testing.T) {
	t.Helper()
	poisoned := 0
	c.c.Range(func(key string, gen uint64, val any) bool {
		if res, ok := val.(*SearchResult); ok && len(res.VO) > 0 {
			res.VO[len(res.VO)/2] ^= 0x40
			poisoned++
		}
		return true
	})
	if poisoned == 0 {
		t.Fatal("nothing to poison: cache empty")
	}
}

// TestCachePoisonedEntryRejected: a bit-flipped cached VO must fail
// client verification for both algorithms (satellite: tamper test,
// local).
func TestCachePoisonedEntryRejected(t *testing.T) {
	for _, algo := range []Algorithm{TRA, TNRA} {
		t.Run(algo.String(), func(t *testing.T) {
			o := owner(t)
			srv := o.Server()
			cache := NewVOCache(1 << 20)
			srv.SetVOCache(cache)
			client := o.Client()

			const q, r = "search results integrity", 3
			if _, err := srv.Search(q, r, algo, ChainMHT); err != nil {
				t.Fatal(err)
			}
			poisonVO(cache, t)
			res, err := srv.Search(q, r, algo, ChainMHT)
			if err != nil {
				t.Fatal(err)
			}
			if cache.Stats().Hits == 0 {
				t.Fatal("poisoned entry was not served from cache")
			}
			err = client.Verify(q, r, res)
			if err == nil {
				t.Fatal("poisoned cached VO verified")
			}
			if !IsTampered(err) {
				t.Fatalf("poisoned cached VO misclassified: %v", err)
			}
		})
	}
}

// TestCacheCrossQuerySwapRejected: serving query A's cached answer for
// query B (keys crossed inside a compromised cache) must fail B's
// verification.
func TestCacheCrossQuerySwapRejected(t *testing.T) {
	o := owner(t)
	srv := o.Server()
	cache := NewVOCache(1 << 20)
	srv.SetVOCache(cache)
	client := o.Client()

	const qa, qb, r = "patent examiner portal", "inverted index documents", 3
	if _, err := srv.Search(qa, r, TNRA, ChainMHT); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Search(qb, r, TNRA, ChainMHT); err != nil {
		t.Fatal(err)
	}
	// Swap the two stored answers through the in-place Range hook.
	var stored []*SearchResult
	cache.c.Range(func(key string, gen uint64, val any) bool {
		if res, ok := val.(*SearchResult); ok {
			stored = append(stored, res)
		}
		return true
	})
	if len(stored) != 2 {
		t.Fatalf("expected 2 cached answers, found %d", len(stored))
	}
	*stored[0], *stored[1] = *stored[1], *stored[0]

	for _, q := range []string{qa, qb} {
		res, err := srv.Search(q, r, TNRA, ChainMHT)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Verify(q, r, res); err == nil {
			t.Fatalf("%q: cross-query swapped answer verified", q)
		} else if !IsTampered(err) {
			t.Fatalf("%q: swap misclassified: %v", q, err)
		}
	}
}

// TestCacheCrossGenerationReplayRejected: replaying a previous
// generation's cached answer after an update must classify as
// ErrStaleGeneration at the client, for both algorithms.
func TestCacheCrossGenerationReplayRejected(t *testing.T) {
	for _, algo := range []Algorithm{TRA, TNRA} {
		t.Run(algo.String(), func(t *testing.T) {
			lo, _, err := NewLiveOwner(newsDocs(), WithFastSigner([]byte("cache-replay")))
			if err != nil {
				t.Fatal(err)
			}
			srv := lo.Server()
			cache := NewVOCache(1 << 20)
			srv.SetVOCache(cache)
			client := lo.Client()

			const q, r = "patent examiner portal", 3
			stale, err := srv.Search(q, r, algo, ChainMHT)
			if err != nil {
				t.Fatal(err)
			}
			staleCopy := *stale
			staleCopy.Hits = append([]Hit(nil), stale.Hits...)

			if _, _, err := lo.AddDocuments([]Document{{Content: []byte("a fresh document about the patent examiner")}}); err != nil {
				t.Fatal(err)
			}
			m, msig := lo.ManifestUpdate()
			if err := client.Advance(m, msig); err != nil {
				t.Fatal(err)
			}
			srv = lo.Server()
			srv.SetVOCache(cache)
			// Prime the new generation's entry, then overwrite it with the old
			// generation's answer — a rollback inside the cache.
			if _, err := srv.Search(q, r, algo, ChainMHT); err != nil {
				t.Fatal(err)
			}
			replaced := false
			cache.c.Range(func(key string, gen uint64, val any) bool {
				if res, ok := val.(*SearchResult); ok && res.Generation > staleCopy.Generation {
					*res = staleCopy
					replaced = true
				}
				return true
			})
			if !replaced {
				t.Fatal("no current-generation entry to roll back")
			}
			res, err := srv.Search(q, r, algo, ChainMHT)
			if err != nil {
				t.Fatal(err)
			}
			err = client.Verify(q, r, res)
			if err == nil {
				t.Fatal("stale-generation cached answer verified against the advanced client")
			}
			if !errors.Is(err, ErrStaleGeneration) {
				t.Fatalf("stale replay misclassified (want ErrStaleGeneration): %v", err)
			}
		})
	}
}

// TestCacheHTTPPoisonRejectedByRemoteClient: the tamper test over a real
// HTTP boundary — a RemoteClient must reject responses served from a
// poisoned cache, for both algorithms (satellite: tamper test, HTTP).
func TestCacheHTTPPoisonRejectedByRemoteClient(t *testing.T) {
	o := owner(t)
	export, err := o.ExportClient()
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{TRA, TNRA} {
		t.Run(algo.String(), func(t *testing.T) {
			cache := NewVOCache(1 << 20)
			handler := NewHTTPHandler(o.Server(), export, WithVOCache(cache))
			hs := httptest.NewServer(handler)
			defer hs.Close()

			rc, err := NewRemoteClient(hs.URL)
			if err != nil {
				t.Fatal(err)
			}
			const q, r = "search results integrity", 3
			if _, err := rc.Search(context.Background(), q, r, algo, ChainMHT); err != nil {
				t.Fatalf("honest cached serve failed: %v", err)
			}
			poisonVO(cache, t)
			_, err = rc.Search(context.Background(), q, r, algo, ChainMHT)
			if err == nil {
				t.Fatal("remote client accepted a response from a poisoned cache")
			}
		})
	}
}

// searchBody POSTs one /v1/search request and returns the raw response
// body.
func searchBody(t *testing.T, handler http.Handler, q string, r int) []byte {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"query": q, "r": r})
	req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("search: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// searchBodyBinary is searchBody with binary-frame negotiation: it sets
// the Accept header and asserts the server actually answered with a
// frame.
func searchBodyBinary(t *testing.T, handler http.Handler, q string, r int) []byte {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"query": q, "r": r})
	req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
	req.Header.Set("Accept", wire.ContentType)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("search: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("negotiated binary but got Content-Type %q", ct)
	}
	return rec.Body.Bytes()
}

// TestCacheHitByteIdenticalOnWire: the golden wire property — for the
// same (query, r, generation), a cache hit's HTTP response body is
// byte-for-byte the uncached response (satellite: wire fixture).
func TestCacheHitByteIdenticalOnWire(t *testing.T) {
	o := owner(t)
	export, err := o.ExportClient()
	if err != nil {
		t.Fatal(err)
	}
	uncachedHandler := NewHTTPHandler(o.Server(), export)
	cache := NewVOCache(1 << 20)
	cachedHandler := NewHTTPHandler(o.Server(), export, WithVOCache(cache))

	const q, r = "inverted index documents", 3
	uncached := searchBody(t, uncachedHandler, q, r)
	miss := searchBody(t, cachedHandler, q, r)
	hit := searchBody(t, cachedHandler, q, r)
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("expected one miss then one hit, got %+v", st)
	}
	if !bytes.Equal(miss, hit) {
		t.Fatalf("cache hit body differs from the miss:\nmiss: %s\nhit:  %s", miss, hit)
	}
	// Across handler instances only server_millis (a genuine engine
	// timing) may differ; everything the client verifies is identical.
	if got, want := dropServerMillis(t, miss), dropServerMillis(t, uncached); got != want {
		t.Fatalf("cached-path body differs from the uncached server beyond timing:\nuncached: %s\ncached:   %s", want, got)
	}

	// The same property must hold when the client negotiates binary
	// frames: the cache stores results, not encodings, and the frame
	// encoder is deterministic — so a hit replays the identical frame.
	bmiss := searchBodyBinary(t, cachedHandler, q, r)
	bhit := searchBodyBinary(t, cachedHandler, q, r)
	if !bytes.Equal(bmiss, bhit) {
		t.Fatal("binary cache hit frame differs from the frame that populated it")
	}
	// The framed answer carries the same verifiable content as the JSON
	// one (the stats' server timing aside): same hits, same VO bytes.
	var jresp wire.SearchResponse
	if err := json.Unmarshal(hit, &jresp); err != nil {
		t.Fatal(err)
	}
	bresp, err := wire.DecodeSearchResponse(bhit)
	if err != nil {
		t.Fatalf("cached binary frame failed to decode: %v", err)
	}
	if !bytes.Equal(bresp.VO, jresp.VO) {
		t.Fatal("binary and JSON cache hits carry different VO bytes")
	}
	if len(bresp.Hits) != len(jresp.Hits) {
		t.Fatalf("binary cache hit has %d hits, JSON has %d", len(bresp.Hits), len(jresp.Hits))
	}
	for i := range bresp.Hits {
		if bresp.Hits[i].DocID != jresp.Hits[i].DocID ||
			!bytes.Equal(bresp.Hits[i].Content, jresp.Hits[i].Content) {
			t.Fatalf("hit %d differs between the binary and JSON cache paths", i)
		}
	}
}

// dropServerMillis canonicalises a /v1/search body with the one
// nondeterministic field (measured engine time) removed.
func dropServerMillis(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if stats, ok := m["stats"].(map[string]any); ok {
		delete(stats, "server_millis")
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestHealthzReportsCache: /v1/healthz carries the cache counters when
// caching is on, and omits the field when off.
func TestHealthzReportsCache(t *testing.T) {
	o := owner(t)
	export, err := o.ExportClient()
	if err != nil {
		t.Fatal(err)
	}
	cache := NewVOCache(1 << 20)
	handler := NewHTTPHandler(o.Server(), export, WithVOCache(cache))
	searchBody(t, handler, "patent portal", 2)
	searchBody(t, handler, "patent portal", 2)

	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", rec.Code)
	}
	var health struct {
		Cache *struct {
			Entries       int64   `json:"entries"`
			CapacityBytes int64   `json:"capacity_bytes"`
			Hits          int64   `json:"hits"`
			Misses        int64   `json:"misses"`
			HitRate       float64 `json:"hit_rate"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Cache == nil {
		t.Fatalf("healthz missing cache stats: %s", rec.Body.String())
	}
	if health.Cache.Hits != 1 || health.Cache.Misses != 1 || health.Cache.Entries != 1 {
		t.Fatalf("healthz cache counters wrong: %+v", *health.Cache)
	}
	if health.Cache.HitRate != 0.5 {
		t.Fatalf("healthz hit_rate = %v, want 0.5", health.Cache.HitRate)
	}

	plain := NewHTTPHandler(o.Server(), export)
	rec = httptest.NewRecorder()
	plain.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if bytes.Contains(rec.Body.Bytes(), []byte(`"cache"`)) {
		t.Fatalf("uncached healthz leaked a cache field: %s", rec.Body.String())
	}
}

// TestShardedCacheHitVerifies: the fan-out cache path — a repeated
// sharded query is served from cache and still passes full sharded
// verification.
func TestShardedCacheHitVerifies(t *testing.T) {
	so, err := NewShardedOwner(newsDocs(), 3, WithFastSigner([]byte("sharded-cache")))
	if err != nil {
		t.Fatal(err)
	}
	srv := so.Server()
	cache := NewVOCache(1 << 20)
	srv.SetVOCache(cache)
	client := so.Client()

	const q, r = "patent examiner portal", 3
	miss, err := srv.Search(q, r, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := srv.Search(q, r, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("expected one miss then one hit, got %+v", st)
	}
	if len(hit.Hits) != len(miss.Hits) || len(hit.PerShard) != len(miss.PerShard) {
		t.Fatal("sharded cache hit differs from the miss")
	}
	if err := client.Verify(q, r, hit); err != nil {
		t.Fatalf("cached sharded answer failed verification: %v", err)
	}
	// A bare server sharing the cache never sees the shard set's answer to
	// the same query at the same generation (nor the other way round).
	bo, err := NewOwner(newsDocs(), WithFastSigner([]byte("sharded-cache")))
	if err != nil {
		t.Fatal(err)
	}
	bare := bo.Server()
	bare.SetVOCache(cache)
	for i := 0; i < 2; i++ {
		res, err := bare.Search(q, r, TNRA, ChainMHT)
		if err != nil {
			t.Fatal(err)
		}
		if res.PerShard != nil || bo.Client().Verify(q, r, res) != nil {
			t.Fatalf("lookup %d on the shared cache handed the bare server a foreign answer", i)
		}
		if res, err = srv.Search(q, r, TNRA, ChainMHT); err != nil || client.Verify(q, r, res) != nil {
			t.Fatalf("lookup %d on the shared cache handed the shard set a foreign answer (err %v)", i, err)
		}
	}
	// And a poisoned per-shard VO is rejected.
	cache.c.Range(func(key string, gen uint64, val any) bool {
		if res, ok := val.(*SearchResult); ok {
			for _, sr := range res.PerShard {
				if len(sr.VO) > 0 {
					sr.VO[len(sr.VO)/2] ^= 0x40
					return false
				}
			}
		}
		return true
	})
	poisoned, err := srv.Search(q, r, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Verify(q, r, poisoned); err == nil {
		t.Fatal("poisoned sharded cache entry verified")
	} else if !IsTampered(err) {
		t.Fatalf("poisoned sharded entry misclassified: %v", err)
	}
}
