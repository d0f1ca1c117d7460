package authtext_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"authtext"
	"authtext/internal/httpapi"
)

// The sharded remote suite proves the distributed trust model across a
// real HTTP boundary: an honest sharded deployment's answers verify, and
// in-transit mutations of any shard's response or of the merged ranking
// are rejected by the ShardedRemoteClient's local verification.

var shardedRemoteFixture struct {
	once    sync.Once
	handler http.Handler
	export  []byte
	err     error
}

func shardedRemoteEnv(t *testing.T) (http.Handler, []byte) {
	t.Helper()
	shardedRemoteFixture.once.Do(func() {
		owner, err := authtext.NewShardedOwner(remoteCorpus(), 3, authtext.WithSingletonTerms())
		if err != nil {
			shardedRemoteFixture.err = err
			return
		}
		export, err := owner.ExportClient()
		if err != nil {
			shardedRemoteFixture.err = err
			return
		}
		shardedRemoteFixture.export = export
		shardedRemoteFixture.handler = authtext.NewShardedHTTPHandler(owner.Server(), export)
	})
	if shardedRemoteFixture.err != nil {
		t.Fatal(shardedRemoteFixture.err)
	}
	return shardedRemoteFixture.handler, shardedRemoteFixture.export
}

func TestShardedRemoteHonestServerVerifies(t *testing.T) {
	handler, _ := shardedRemoteEnv(t)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := authtext.NewShardedRemoteClient(srv.URL)
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
				if len(res.Merged) == 0 {
					t.Fatal("empty merged ranking")
				}
				if len(res.Merged[0].Content) == 0 {
					t.Fatal("merged hit content not delivered")
				}
				if res.Stats.Shards != 3 || res.Stats.VOBytes == 0 {
					t.Fatalf("stats not populated: %+v", res.Stats)
				}
			})
		}
	}
}

func TestShardedRemoteOutOfBandExport(t *testing.T) {
	handler, export := shardedRemoteEnv(t)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := authtext.NewShardedRemoteClient(srv.URL, authtext.WithClientExport(export))
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

// shardedTamperingProxy mutates every /v1/shards/search response in
// transit; other endpoints pass through untouched.
func shardedTamperingProxy(honest http.Handler, mutate func(*httpapi.ShardedSearchResponse)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != httpapi.PathShardSearch {
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
			w.Write(rec.Body.Bytes())
			return
		}
		var resp httpapi.ShardedSearchResponse
		if err := json.NewDecoder(bytes.NewReader(rec.Body.Bytes())).Decode(&resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		mutate(&resp)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&resp)
	})
}

func TestShardedRemoteTamperingRejected(t *testing.T) {
	handler, _ := shardedRemoteEnv(t)

	mutations := []struct {
		name   string
		mutate func(*httpapi.ShardedSearchResponse)
	}{
		{"inflate shard score", func(r *httpapi.ShardedSearchResponse) {
			s := r.Merged[0].Shard
			r.Shards[s].Hits[0].Score += 1
		}},
		{"forge shard content", func(r *httpapi.ShardedSearchResponse) {
			s := r.Merged[0].Shard
			r.Shards[s].Hits[0].Content = []byte("forged")
		}},
		{"corrupt shard vo", func(r *httpapi.ShardedSearchResponse) {
			s := r.Merged[0].Shard
			r.Shards[s].VO[len(r.Shards[s].VO)/2] ^= 1
		}},
		{"drop a shard", func(r *httpapi.ShardedSearchResponse) {
			r.Shards = r.Shards[:len(r.Shards)-1]
		}},
		{"reorder merge", func(r *httpapi.ShardedSearchResponse) {
			r.Merged[0], r.Merged[1] = r.Merged[1], r.Merged[0]
		}},
		{"truncate merge", func(r *httpapi.ShardedSearchResponse) {
			r.Merged = r.Merged[1:]
		}},
		{"rewrite global id", func(r *httpapi.ShardedSearchResponse) {
			r.Merged[0].GlobalID++
		}},
	}
	for _, algo := range []authtext.Algorithm{authtext.TRA, authtext.TNRA} {
		for _, m := range mutations {
			t.Run(algo.String()+"/"+m.name, func(t *testing.T) {
				srv := httptest.NewServer(shardedTamperingProxy(handler, m.mutate))
				defer srv.Close()
				rc, err := authtext.NewShardedRemoteClient(srv.URL)
				if err != nil {
					t.Fatal(err)
				}
				_, err = rc.Search(context.Background(), remoteQuery, remoteR, algo, authtext.ChainMHT)
				if err == nil {
					t.Fatal("tampered sharded response accepted")
				}
				if !authtext.IsTampered(err) {
					t.Fatalf("error not classified as tampering: %v", err)
				}
			})
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
