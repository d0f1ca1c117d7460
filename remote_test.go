package authtext_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"authtext"
	"authtext/internal/httpapi"
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
