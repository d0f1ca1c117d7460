package authtext_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"authtext"
	"authtext/internal/httpapi"
	"authtext/internal/vo"
)

// The remote suite: how a RemoteClient bootstraps, and what it does with a
// hostile manifest and with caller errors. Whether honest answers verify
// and tampered ones are rejected, on every shape, is the shape matrix's
// (shape_matrix_test.go); remoteEnv and shardedRemoteEnv are the fixtures
// of these and of the transport tests.

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
		export, err := owner.Client().Export()
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
		if f.export, f.err = owner.Client().Export(); f.err == nil {
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

// predatesCaps serves h as a server from before proof caps does: it ignores
// ?cap= on the manifest endpoint and the cap field of a search request, so
// its manifests come without a cap and its answers uncut.
func predatesCaps(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r = r.Clone(r.Context())
		q := r.URL.Query()
		q.Del("cap")
		r.URL.RawQuery = q.Encode()
		if r.Method == http.MethodPost {
			var req httpapi.SearchRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err == nil {
				req.Cap = 0
				body, _ := json.Marshal(&req)
				r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
			}
		}
		h.ServeHTTP(w, r)
	})
}

// scrape returns one series of m's exposition.
func scrape(t *testing.T, m *authtext.Metrics, series string) string {
	t.Helper()
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && name == series {
			return value
		}
	}
	t.Fatalf("no series %s", series)
	return ""
}

// TestRemoteCapFetchedWithManifest: a bootstrapping client gets the proof
// cap in the one manifest response it asks for, a client seeded out of
// band asks for it on its first search, and both then get answers cut at
// the cap's depth — smaller than the uncut answer to the same query — once
// per generation.
func TestRemoteCapFetchedWithManifest(t *testing.T) {
	handler, export := remoteEnv(t)
	uncut := map[authtext.Algorithm]int{}
	for _, algo := range []authtext.Algorithm{authtext.TRA, authtext.TNRA} {
		res, err := remoteFixture.owner.Server().Search(remoteQuery, remoteR, algo, authtext.ChainMHT)
		if err != nil {
			t.Fatal(err)
		}
		uncut[algo] = len(res.VO)
	}
	for name, opts := range map[string][]authtext.RemoteOption{
		"bootstrapped": nil,
		"out of band":  {authtext.WithClientExport(export)},
	} {
		t.Run(name, func(t *testing.T) {
			var manifests atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == httpapi.PathManifest {
					manifests.Add(1)
				}
				handler.ServeHTTP(w, r)
			}))
			defer srv.Close()
			m := authtext.NewMetrics()
			rc := must(authtext.NewRemoteClient(srv.URL, append(opts, authtext.WithClientMetrics(m))...))(t)
			for range 2 {
				for _, algo := range []authtext.Algorithm{authtext.TRA, authtext.TNRA} {
					res, err := rc.Search(context.Background(), remoteQuery, remoteR, algo, authtext.ChainMHT)
					if err != nil {
						t.Fatalf("%s: %v", algo, err)
					}
					if v := must(vo.Decode(res.VO))(t); v.CapDepth != 8 || len(res.VO) >= uncut[algo] {
						t.Fatalf("%s: answer cut at depth %d, %d bytes (uncut %d)", algo, v.CapDepth, len(res.VO), uncut[algo])
					}
				}
			}
			if manifests.Load() != 1 || scrape(t, m, "authtext_client_cap_fetches_total") != "1" ||
				scrape(t, m, "authtext_client_cap_bytes_total") == "0" {
				t.Fatalf("%d manifest requests, %s caps fetched", manifests.Load(), scrape(t, m, "authtext_client_cap_fetches_total"))
			}
		})
	}
}

// TestRemoteClientAgainstServerWithoutCaps: a server that predates proof
// caps sends none and answers uncut; a new client — bootstrapped, or
// seeded out of band — verifies every answer and counts no tampering.
func TestRemoteClientAgainstServerWithoutCaps(t *testing.T) {
	handler, export := remoteEnv(t)
	srv := httptest.NewServer(predatesCaps(handler))
	defer srv.Close()
	for name, opts := range map[string][]authtext.RemoteOption{
		"bootstrapped": nil,
		"out of band":  {authtext.WithClientExport(export)},
	} {
		t.Run(name, func(t *testing.T) {
			m := authtext.NewMetrics()
			rc := must(authtext.NewRemoteClient(srv.URL, append(opts, authtext.WithClientMetrics(m))...))(t)
			for _, q := range []string{remoteQuery, "river grain", "harbor storm unknownword"} {
				for _, algo := range []authtext.Algorithm{authtext.TRA, authtext.TNRA} {
					for _, scheme := range []authtext.Scheme{authtext.MHT, authtext.ChainMHT} {
						res, err := rc.Search(context.Background(), q, remoteR, algo, scheme)
						if err != nil {
							t.Fatalf("%s %s %q: %v (tampered: %v)", algo, scheme, q, err, authtext.IsTampered(err))
						}
						if v := must(vo.Decode(res.VO))(t); v.CapDepth != 0 {
							t.Fatalf("a server without caps answered cut at %d", v.CapDepth)
						}
					}
				}
			}
			if got := scrape(t, m, "authtext_client_tamper_rejections_total"); got != "0" {
				t.Fatalf("%s tamper rejections", got)
			}
			if got := scrape(t, m, "authtext_client_cap_fetches_total"); got != "0" {
				t.Fatalf("%s caps fetched from a server that has none", got)
			}
		})
	}
}
