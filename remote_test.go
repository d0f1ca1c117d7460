package authtext_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"authtext"
	"authtext/internal/core"
	"authtext/internal/httpapi"
)

// The remote integration suite proves the §3.1 trust model holds across a
// real HTTP boundary, for a bare collection and for a shard set: an honest
// authserved response verifies, and any in-transit mutation of the response
// — of any shard's answer, or of the merged ranking — by the server or a
// man-in-the-middle is rejected by the RemoteClient's local verification,
// for both TRA and TNRA.

var remoteFixture struct {
	once    sync.Once
	owner   *authtext.Owner
	handler http.Handler
	export  []byte
	err     error
}

func remoteCorpus() []authtext.Document {
	texts := []string{
		"The old night keeper keeps the keep in the town",
		"In the big old house in the big old gown",
		"The house in the town had the big old keep",
		"Where the old night keeper never did sleep",
		"The night keeper keeps the keep in the night",
		"And this is the big old sleeps dark light house",
		"A merchant sailed along the river at dawn with silk and spice",
		"The market square filled with traders selling copper and grain",
		"Fishermen mended their nets beside the harbor wall at dusk",
		"A stone bridge crossed the river near the old mill and granary",
		"Shepherds drove their flock across the valley before the storm",
		"The library kept maps and grain ledgers and letters under seal",
	}
	docs := make([]authtext.Document, len(texts))
	for i, s := range texts {
		docs[i] = authtext.Document{Content: []byte(s)}
	}
	return docs
}

func remoteEnv(t *testing.T) (http.Handler, []byte) {
	t.Helper()
	remoteFixture.once.Do(func() {
		owner, err := authtext.NewOwner(remoteCorpus())
		if err != nil {
			remoteFixture.err = err
			return
		}
		export, err := owner.ExportClient()
		if err != nil {
			remoteFixture.err = err
			return
		}
		remoteFixture.owner = owner
		remoteFixture.export = export
		remoteFixture.handler = authtext.NewHTTPHandler(owner.Server(), export)
	})
	if remoteFixture.err != nil {
		t.Fatal(remoteFixture.err)
	}
	return remoteFixture.handler, remoteFixture.export
}

var shardedRemoteFixture struct {
	once    sync.Once
	handler http.Handler
	export  []byte
	err     error
}

// shardedRemoteEnv is remoteEnv over the same corpus split into 3 shards.
func shardedRemoteEnv(t *testing.T) (http.Handler, []byte) {
	t.Helper()
	f := &shardedRemoteFixture
	f.once.Do(func() {
		owner, err := authtext.NewShardedOwner(remoteCorpus(), 3, authtext.WithSingletonTerms())
		if err != nil {
			f.err = err
			return
		}
		if f.export, f.err = owner.ExportClient(); f.err == nil {
			f.handler = authtext.NewHTTPHandler(owner.Server(), f.export)
		}
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.handler, f.export
}

const (
	remoteQuery = "night keeper keep"
	remoteR     = 3
)

func TestRemoteHonestServerVerifies(t *testing.T) {
	handler, _ := remoteEnv(t)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := authtext.NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []authtext.Algorithm{authtext.TRA, authtext.TNRA} {
		for _, scheme := range []authtext.Scheme{authtext.MHT, authtext.ChainMHT} {
			t.Run(algo.String()+"-"+scheme.String(), func(t *testing.T) {
				res, err := rc.Search(context.Background(), remoteQuery, remoteR, algo, scheme)
				if err != nil {
					t.Fatalf("verified search failed: %v", err)
				}
				if len(res.Hits) != remoteR {
					t.Fatalf("got %d hits, want %d", len(res.Hits), remoteR)
				}
				if res.Hits[0].Score <= res.Hits[len(res.Hits)-1].Score {
					t.Fatalf("scores not distinct enough for the tamper suite: %+v", res.Hits)
				}
				if len(res.Hits[0].Content) == 0 {
					t.Fatal("hit content not delivered")
				}
				if res.Stats.VOBytes == 0 || res.Stats.QueryTerms == 0 {
					t.Fatalf("stats not populated: %+v", res.Stats)
				}
			})
		}
	}
}

func TestShardedRemoteHonestServerVerifies(t *testing.T) {
	handler, _ := shardedRemoteEnv(t)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := authtext.NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	health, err := rc.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Shards != 3 {
		t.Fatalf("health.Shards = %d, want 3", health.Shards)
	}
	for _, algo := range []authtext.Algorithm{authtext.TRA, authtext.TNRA} {
		for _, scheme := range []authtext.Scheme{authtext.MHT, authtext.ChainMHT} {
			t.Run(algo.String()+"-"+scheme.String(), func(t *testing.T) {
				res, err := rc.Search(ctx, remoteQuery, remoteR, algo, scheme)
				if err != nil {
					t.Fatalf("verified sharded search failed: %v", err)
				}
				if len(res.Hits) == 0 || len(res.PerShard) != 3 {
					t.Fatalf("%d merged hits from %d shard answers", len(res.Hits), len(res.PerShard))
				}
				if len(res.Hits[0].Content) == 0 {
					t.Fatal("merged hit content not delivered")
				}
				if res.Stats.Shards != 3 || res.Stats.VOBytes == 0 || res.Stats.QueryTerms == 0 {
					t.Fatalf("stats not populated: %+v", res.Stats)
				}
			})
		}
	}
	if rc.Shards() != 3 {
		t.Fatalf("Shards() = %d after bootstrap, want 3", rc.Shards())
	}
}

func TestShardedRemoteOutOfBandExport(t *testing.T) {
	handler, export := shardedRemoteEnv(t)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := authtext.NewRemoteClient(srv.URL, authtext.WithClientExport(export))
	if err != nil {
		t.Fatal(err)
	}
	if rc.Shards() != 3 {
		t.Fatalf("Shards() = %d before any traffic, want 3", rc.Shards())
	}
	if _, err := rc.Search(context.Background(), remoteQuery, remoteR, authtext.TNRA, authtext.ChainMHT); err != nil {
		t.Fatalf("out-of-band bootstrapped search failed: %v", err)
	}
}

// tamperingProxy wraps an honest handler and mutates every search response
// body of mutate's wire form in transit — /v1/search answers for a
// *httpapi.SearchResponse mutator, /v1/shards/search answers for a
// *httpapi.ShardedSearchResponse one; all other endpoints pass through
// untouched.
func tamperingProxy[T httpapi.SearchResponse | httpapi.ShardedSearchResponse](honest http.Handler, mutate func(*T)) http.Handler {
	path := httpapi.PathSearch
	if _, sharded := any(mutate).(func(*httpapi.ShardedSearchResponse)); sharded {
		path = httpapi.PathShardSearch
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != path {
			honest.ServeHTTP(w, r)
			return
		}
		// This adversary tampers at the JSON layer; force the honest
		// server off binary frames (the framed path has its own battery
		// in remote_wire_test.go).
		r.Header.Del("Accept")
		rec := httptest.NewRecorder()
		honest.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			w.WriteHeader(rec.Code)
			_, _ = w.Write(rec.Body.Bytes())
			return
		}
		var resp T
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		mutate(&resp)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&resp)
	})
}

// remoteMutations is the in-transit tamper table: what a server or a
// man-in-the-middle can do to one answer, on either wire. A row carries the
// mutator of the wire it attacks.
var remoteMutations = []struct {
	name    string
	bare    func(*httpapi.SearchResponse)
	sharded func(*httpapi.ShardedSearchResponse)
}{
	{name: "inflate top score", bare: func(r *httpapi.SearchResponse) {
		r.Hits[0].Score *= 2
	}},
	{name: "swap ranking", bare: func(r *httpapi.SearchResponse) {
		last := len(r.Hits) - 1
		r.Hits[0], r.Hits[last] = r.Hits[last], r.Hits[0]
	}},
	{name: "drop result document", bare: func(r *httpapi.SearchResponse) {
		r.Hits = r.Hits[:len(r.Hits)-1]
	}},
	{name: "empty result", bare: func(r *httpapi.SearchResponse) {
		r.Hits = nil
	}},
	{name: "alter document content", bare: func(r *httpapi.SearchResponse) {
		r.Hits[0].Content = append([]byte("FORGED "), r.Hits[0].Content...)
	}},
	{name: "substitute document", bare: func(r *httpapi.SearchResponse) {
		r.Hits[0].DocID = r.Hits[0].DocID + 1000
	}},
	{name: "flip VO byte", bare: func(r *httpapi.SearchResponse) {
		r.VO = append([]byte(nil), r.VO...)
		r.VO[len(r.VO)/2] ^= 0x40
	}},
	{name: "truncate VO", bare: func(r *httpapi.SearchResponse) {
		r.VO = r.VO[:len(r.VO)/2]
	}},
	{name: "inflate shard score", sharded: func(r *httpapi.ShardedSearchResponse) {
		r.Shards[r.Merged[0].Shard].Hits[0].Score += 1
	}},
	{name: "forge shard content", sharded: func(r *httpapi.ShardedSearchResponse) {
		r.Shards[r.Merged[0].Shard].Hits[0].Content = []byte("forged")
	}},
	{name: "corrupt shard vo", sharded: func(r *httpapi.ShardedSearchResponse) {
		s := r.Merged[0].Shard
		r.Shards[s].VO[len(r.Shards[s].VO)/2] ^= 1
	}},
	{name: "drop a shard", sharded: func(r *httpapi.ShardedSearchResponse) {
		r.Shards = r.Shards[:len(r.Shards)-1]
	}},
	{name: "reorder merge", sharded: func(r *httpapi.ShardedSearchResponse) {
		r.Merged[0], r.Merged[1] = r.Merged[1], r.Merged[0]
	}},
	{name: "truncate merge", sharded: func(r *httpapi.ShardedSearchResponse) {
		r.Merged = r.Merged[1:]
	}},
	{name: "rewrite global id", sharded: func(r *httpapi.ShardedSearchResponse) {
		r.Merged[0].GlobalID++
	}},
	{name: "cite an absent shard", sharded: func(r *httpapi.ShardedSearchResponse) {
		r.Merged[0].Shard = len(r.Shards)
	}},
}

// runRemoteTamperBattery tries every remoteMutations row of one wire against
// a cold client and against one whose signature memo the honest answer to
// the same query has warmed: having seen the honest signatures must not
// change what tampering looks like.
func runRemoteTamperBattery(t *testing.T, handler http.Handler, sharded bool) {
	for _, algo := range []authtext.Algorithm{authtext.TRA, authtext.TNRA} {
		for _, m := range remoteMutations {
			if (m.sharded != nil) != sharded {
				continue
			}
			t.Run(algo.String()+"/"+m.name, func(t *testing.T) {
				var codes [2]core.VerifyCode
				for i, warm := range []bool{false, true} {
					var armed atomic.Bool
					proxy := tamperingProxy(handler, func(r *httpapi.SearchResponse) {
						if armed.Load() {
							m.bare(r)
						}
					})
					if sharded {
						proxy = tamperingProxy(handler, func(r *httpapi.ShardedSearchResponse) {
							if armed.Load() {
								m.sharded(r)
							}
						})
					}
					srv := httptest.NewServer(proxy)
					defer srv.Close()
					rc, err := authtext.NewRemoteClient(srv.URL)
					if err != nil {
						t.Fatal(err)
					}
					if warm {
						if _, err := rc.Search(context.Background(), remoteQuery, remoteR, algo, authtext.ChainMHT); err != nil {
							t.Fatalf("honest warm-up: %v", err)
						}
					}
					armed.Store(true)
					res, err := rc.Search(context.Background(), remoteQuery, remoteR, algo, authtext.ChainMHT)
					if err == nil {
						t.Fatalf("warm=%v: tampered response (%s) verified", warm, m.name)
					}
					if !authtext.IsTampered(err) {
						t.Fatalf("warm=%v: rejection not classified as tampering: %v", warm, err)
					}
					if res != nil {
						t.Fatalf("warm=%v: tampered result was returned alongside the error", warm)
					}
					codes[i] = core.CodeOf(err)
				}
				if codes[0] != codes[1] {
					t.Fatalf("classified %v by a cold client, %v by a warm one", codes[0], codes[1])
				}
			})
		}
	}
}

func TestRemoteTamperingDetected(t *testing.T) {
	handler, _ := remoteEnv(t)
	runRemoteTamperBattery(t, handler, false)
}

// TestShardedRemoteTamperingRejected is the same battery's sharded rows:
// in-transit mutations of any shard's answer or of the merged ranking.
func TestShardedRemoteTamperingRejected(t *testing.T) {
	handler, _ := shardedRemoteEnv(t)
	runRemoteTamperBattery(t, handler, true)
}

// TestRemoteManifestFetchedOnce: bootstrapping a bare collection costs one
// manifest request and never touches the sharded endpoints; a shard set costs
// the one plain request that answers "this server is sharded" plus its own.
// Later searches fetch nothing.
func TestRemoteManifestFetchedOnce(t *testing.T) {
	bare, _ := remoteEnv(t)
	sharded, _ := shardedRemoteEnv(t)
	for name, tc := range map[string]struct {
		handler http.Handler
		want    map[string]int64
	}{
		"bare":    {bare, map[string]int64{httpapi.PathManifest: 1, httpapi.PathSearch: 3}},
		"sharded": {sharded, map[string]int64{httpapi.PathManifest: 1, httpapi.PathShardManifest: 1, httpapi.PathShardSearch: 3}},
	} {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			requests := map[string]int64{}
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				requests[r.URL.Path]++
				mu.Unlock()
				tc.handler.ServeHTTP(w, r)
			}))
			defer srv.Close()

			rc, err := authtext.NewRemoteClient(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := rc.Search(context.Background(), remoteQuery, remoteR, authtext.TNRA, authtext.ChainMHT); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(requests, tc.want) {
				t.Fatalf("requests %v, want %v", requests, tc.want)
			}
		})
	}
}

func TestRemoteTamperedManifestRejected(t *testing.T) {
	handler, export := remoteEnv(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != httpapi.PathManifest {
			handler.ServeHTTP(w, r)
			return
		}
		forged := append([]byte(nil), export...)
		forged[len(forged)-1] ^= 0x01 // corrupt the public key DER
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&httpapi.ManifestResponse{Format: httpapi.FormatATCX, Export: forged})
	}))
	defer srv.Close()

	rc, err := authtext.NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Bootstrap(context.Background()); err == nil {
		t.Fatal("forged manifest accepted")
	}

	// Out-of-band verification material sidesteps the hostile endpoint.
	rc, err = authtext.NewRemoteClient(srv.URL, authtext.WithClientExport(export))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Search(context.Background(), remoteQuery, remoteR, authtext.TNRA, authtext.ChainMHT); err != nil {
		t.Fatalf("search with out-of-band export failed: %v", err)
	}
}

func TestRemoteServerHealth(t *testing.T) {
	handler, _ := remoteEnv(t)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := authtext.NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	h, err := rc.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Documents != len(remoteCorpus()) || h.Terms == 0 {
		t.Fatalf("health = %+v", h)
	}
}

func TestRemoteServerErrorSurfaced(t *testing.T) {
	handler, _ := remoteEnv(t)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := authtext.NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Search(context.Background(), "   ", remoteR, authtext.TNRA, authtext.ChainMHT); err == nil {
		t.Fatal("empty query accepted")
	} else if authtext.IsTampered(err) {
		t.Fatalf("local/protocol error misclassified as tampering: %v", err)
	}
	// r out of range is a caller error, caught before any request: the
	// wire treats r=0 as unset, so letting it through would make an honest
	// server's defaulted answer misclassify as tampering.
	for _, r := range []int{0, -1, 1001} {
		if _, err := rc.Search(context.Background(), remoteQuery, r, authtext.TNRA, authtext.ChainMHT); err == nil {
			t.Fatalf("r=%d accepted", r)
		} else if authtext.IsTampered(err) {
			t.Fatalf("r=%d misclassified as tampering: %v", r, err)
		}
	}
}

// The JSON round trip must not disturb floating-point scores: the client
// recomputes them bit-for-bit during verification.
func TestRemoteScoreRoundTrip(t *testing.T) {
	handler, _ := remoteEnv(t)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := authtext.NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := rc.Search(context.Background(), remoteQuery, remoteR, authtext.TNRA, authtext.ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	local, err := remoteFixture.owner.Server().Search(remoteQuery, remoteR, authtext.TNRA, authtext.ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.Hits) != len(local.Hits) {
		t.Fatalf("remote %d hits, local %d", len(remote.Hits), len(local.Hits))
	}
	for i := range remote.Hits {
		if remote.Hits[i].Score != local.Hits[i].Score || remote.Hits[i].DocID != local.Hits[i].DocID {
			t.Fatalf("hit %d differs: remote %+v local %+v", i, remote.Hits[i], local.Hits[i])
		}
		if !bytes.Equal(remote.Hits[i].Content, local.Hits[i].Content) {
			t.Fatalf("hit %d content differs", i)
		}
	}
}

func TestShardedEndpointsAbsentOnPlainServer(t *testing.T) {
	handler, _ := remoteEnv(t)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	resp, err := http.Get(srv.URL + httpapi.PathShardManifest)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("plain server answered %d on %s", resp.StatusCode, httpapi.PathShardManifest)
	}
}

func TestPlainEndpointsRedirectOnShardedServer(t *testing.T) {
	handler, _ := shardedRemoteEnv(t)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	for _, path := range []string{httpapi.PathSearch + "?q=keep", httpapi.PathManifest} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var env httpapi.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: error body is not an envelope: %v", path, err)
		}
		if resp.StatusCode != http.StatusNotFound || env.Error.Code != httpapi.CodeNotFound {
			t.Errorf("%s: status %d code %q", path, resp.StatusCode, env.Error.Code)
		}
	}
}
