package authtext

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"authtext/internal/store"
	"authtext/internal/wire"
)

// The cache suite: what a key discriminates, what a hit skips, what a
// caller cannot scribble on, and how updates and shapes share a cache. That
// a hit answers and is attacked exactly like a miss — every tamper row on
// every shape, served from a cache hit — is the shape matrix's.

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
	// A private owner: the test ends by corrupting its device.
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
	// What makes a hit cheap: it reads nothing from the store. With every
	// byte of the device flipped, the cached query still answers and
	// verifies, while an uncached one cannot produce a verifying answer.
	dev := o.v.col.Device()
	for a := store.Addr(0); int64(a) < dev.Blocks(); a++ {
		for off := 0; off < dev.BlockSize(); off++ {
			if err := dev.Corrupt(a, off, 0xff); err != nil {
				t.Fatal(err)
			}
		}
	}
	hit, err = srv.Search(q, r, TNRA, ChainMHT)
	if err != nil {
		t.Fatalf("cache hit touched the store: %v", err)
	}
	if err := client.Verify(q, r, hit); err != nil {
		t.Fatalf("cached answer failed verification: %v", err)
	}
	const uncached = "search results integrity"
	if res, err := srv.Search(uncached, r, TNRA, ChainMHT); err == nil {
		if err := client.Verify(uncached, r, res); err == nil {
			t.Fatal("an uncached query over the corrupted store verified")
		}
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
					if _, _, err := lo.Update(liveDocs(100+i, 1), nil); err != nil {
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

// TestCacheHitByteIdenticalOnWire: for the same (query, r, generation), a
// cached handler's body is the uncached server's beyond the measured engine
// time, and the framed answer carries the JSON one's hits and VO bytes. (A
// hit byte-identical to its miss, on both codecs, is the shape matrix's.)
func TestCacheHitByteIdenticalOnWire(t *testing.T) {
	o := owner(t)
	export, err := o.Client().Export()
	if err != nil {
		t.Fatal(err)
	}
	cached := NewHTTPHandler(o.Server(), export, WithVOCache(NewVOCache(1<<20)))
	const q, r = "inverted index documents", 3
	hit := searchBody(t, cached, q, r)
	if got, want := dropServerMillis(t, searchBody(t, cached, q, r)), dropServerMillis(t, searchBody(t, NewHTTPHandler(o.Server(), export), q, r)); got != want {
		t.Fatalf("cached-path body differs from the uncached server beyond timing:\nuncached: %s\ncached:   %s", want, got)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(fmt.Sprintf(`{"query":%q,"r":%d}`, q, r)))
	req.Header.Set("Accept", wire.ContentType)
	rec := httptest.NewRecorder()
	cached.ServeHTTP(rec, req)
	var jresp wire.SearchResponse
	if err := json.Unmarshal(hit, &jresp); err != nil {
		t.Fatal(err)
	}
	bresp, err := wire.DecodeSearchResponse(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("cached binary frame failed to decode: %v", err)
	}
	if !bytes.Equal(bresp.VO, jresp.VO) || len(bresp.Hits) != len(jresp.Hits) {
		t.Fatal("binary and JSON cache hits carry different answers")
	}
	for i := range bresp.Hits {
		if bresp.Hits[i].DocID != jresp.Hits[i].DocID || !bytes.Equal(bresp.Hits[i].Content, jresp.Hits[i].Content) {
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
	export, err := o.Client().Export()
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

// TestShardedCacheHitVerifies: a bare server and a shard set sharing one
// cache never see each other's answer to the same query at the same
// generation. (A shard set's hit verifying, and a tampered one failing, are
// the shape matrix's cache-hit cells.)
func TestShardedCacheHitVerifies(t *testing.T) {
	cache := NewVOCache(1 << 20)
	const q, r = "patent examiner portal", 3
	so, err := NewShardedOwner(newsDocs(), 3, WithFastSigner([]byte("sharded-cache")))
	if err != nil {
		t.Fatal(err)
	}
	bo, err := NewOwner(newsDocs(), WithFastSigner([]byte("sharded-cache")))
	if err != nil {
		t.Fatal(err)
	}
	sharded, bare := so.Server(), bo.Server()
	sharded.SetVOCache(cache)
	bare.SetVOCache(cache)
	for i := 0; i < 2; i++ {
		res, err := bare.Search(q, r, TNRA, ChainMHT)
		if err != nil {
			t.Fatal(err)
		}
		if res.PerShard != nil || bo.Client().Verify(q, r, res) != nil {
			t.Fatalf("lookup %d on the shared cache handed the bare server a foreign answer", i)
		}
		if res, err = sharded.Search(q, r, TNRA, ChainMHT); err != nil || so.Client().Verify(q, r, res) != nil {
			t.Fatalf("lookup %d on the shared cache handed the shard set a foreign answer (err %v)", i, err)
		}
	}
	if st := cache.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("shared cache: %+v, want each server's second lookup a hit", st)
	}
}
