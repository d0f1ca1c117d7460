package authtext_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"authtext"
	"authtext/internal/httpapi"
)

// Regression for the fleet-shaped generation race: behind a front end a
// search answer and the follow-up manifest refresh can land on DIFFERENT
// replicas, and the manifest replica may lag the answering one mid-swap.
// The refresh then "succeeds" without advancing (same-generation manifest
// the client already holds) and the answer still names a newer
// generation. The single-server race (update between answer and refresh)
// always advances the client; only the cross-replica shape leaves it
// behind — the retry loop must compare generations in BOTH directions.
//
// Deterministic reproduction: the real handler answers searches at
// generation 2, while a wrapper serves a captured generation-1 export for
// the first two manifest fetches (bootstrap + first refresh) before
// delegating — exactly what a lagging manifest replica looks like.
//
// Both remote clients run the one generation-race loop, so both shapes run
// both cases: the honest lag above must verify, and a genuinely rolled-back
// server (frozen at generation 1 against a client that accepted generation
// 2) must spend the whole retry budget and still end in ErrStaleGeneration.
func TestRemoteSearchRetriesAcrossLaggingManifestReplica(t *testing.T) {
	// raceEnv is one shape's two generations: the live handler (serving
	// generation 2), a static handler frozen at generation 1, and both
	// generations' exports.
	type raceEnv struct {
		live, frozen       http.Handler
		gen1, gen2         []byte
		manifest, search   string
		format             string
		verifiedGeneration func(t *testing.T, url string, opts ...authtext.RemoteOption) (answered, held uint64, err error)
	}
	shapes := map[string]func(t *testing.T) raceEnv{
		"single": func(t *testing.T) raceEnv {
			owner := must2(authtext.NewLiveOwner(liveRemoteDocs(0, 10)))(t)
			env := raceEnv{manifest: httpapi.PathManifest, search: httpapi.PathSearch, format: httpapi.FormatATCX}
			env.gen1 = must(owner.ExportClient())(t)
			env.frozen = authtext.NewHTTPHandler(owner.Server(), env.gen1)
			must2(owner.AddDocuments(liveRemoteDocs(10, 2)))(t)
			env.gen2, env.live = must(owner.ExportClient())(t), must(owner.HTTPHandler())(t)
			env.verifiedGeneration = func(t *testing.T, url string, opts ...authtext.RemoteOption) (uint64, uint64, error) {
				rc := must(authtext.NewRemoteClient(url, opts...))(t)
				res, err := rc.Search(context.Background(), "merkle tree", 5, authtext.TNRA, authtext.ChainMHT)
				if err != nil {
					return 0, rc.Generation(), err
				}
				return res.Generation, rc.Generation(), nil
			}
			return env
		},
		"sharded": func(t *testing.T) raceEnv {
			owner := must2(authtext.NewLiveShardedOwner(liveRemoteDocs(0, 16), 2))(t)
			env := raceEnv{manifest: httpapi.PathShardManifest, search: httpapi.PathShardSearch, format: httpapi.FormatATSX}
			env.gen1 = must(owner.ExportClient())(t)
			env.frozen = authtext.NewHTTPHandler(owner.Server(), env.gen1)
			must2(owner.AddDocuments(liveRemoteDocs(16, 2)))(t)
			env.gen2, env.live = must(owner.ExportClient())(t), must(owner.HTTPHandler())(t)
			env.verifiedGeneration = func(t *testing.T, url string, opts ...authtext.RemoteOption) (uint64, uint64, error) {
				rc := must(authtext.NewRemoteClient(url, opts...))(t)
				res, err := rc.Search(context.Background(), "merkle tree", 5, authtext.TNRA, authtext.ChainMHT)
				if err != nil {
					return 0, rc.Generation(), err
				}
				return res.Generation, rc.Generation(), nil
			}
			return env
		},
	}
	for name, build := range shapes {
		t.Run(name+"/lagging-manifest-replica", func(t *testing.T) {
			env := build(t)
			var manifestGets atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == env.manifest && manifestGets.Add(1) <= 2 {
					w.Header().Set("Content-Type", "application/json")
					_ = json.NewEncoder(w).Encode(httpapi.ManifestResponse{Format: env.format, Export: env.gen1})
					return
				}
				env.live.ServeHTTP(w, r)
			}))
			defer srv.Close()

			answered, held, err := env.verifiedGeneration(t, srv.URL)
			if err != nil {
				t.Fatalf("search across the lagging manifest replica failed: %v", err)
			}
			if answered != 2 || held != 2 {
				t.Fatalf("verified generation %d, client holds %d, want 2", answered, held)
			}
			// Bootstrap (stale), first refresh (stale, non-advancing), retry
			// refresh (fresh): anything fewer means the race was not exercised.
			if n := manifestGets.Load(); n < 3 {
				t.Fatalf("only %d manifest fetches; the stale-refresh retry path did not run", n)
			}
		})
		t.Run(name+"/rolled-back-server", func(t *testing.T) {
			env := build(t)
			var searches atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == env.search {
					searches.Add(1)
				}
				env.frozen.ServeHTTP(w, r)
			}))
			defer srv.Close()

			_, held, err := env.verifiedGeneration(t, srv.URL, authtext.WithClientExport(env.gen2))
			if !errors.Is(err, authtext.ErrStaleGeneration) || !authtext.IsTampered(err) {
				t.Fatalf("rolled-back server classified as %v", err)
			}
			if held != 2 {
				t.Fatalf("client regressed to generation %d", held)
			}
			if n := searches.Load(); n != 3 {
				t.Fatalf("%d search attempts, want the full budget of 3", n)
			}
		})
	}
}

// must2 is must for constructors that also return handles.
func must2[T, U any](v T, _ U, err error) func(*testing.T) T {
	return must(v, err)
}
