package authtext_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"authtext"
	"authtext/internal/core"
	"authtext/internal/httpapi"
)

// The remote integration suite proves the §3.1 trust model holds across a
// real HTTP boundary: an honest authserved response verifies, and any
// in-transit mutation of the response — by the server or a
// man-in-the-middle — is rejected by the RemoteClient's local
// verification, for both TRA and TNRA.

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

// tamperingProxy wraps an honest handler and mutates every /v1/search
// response body in transit; all other endpoints pass through untouched.
func tamperingProxy(honest http.Handler, mutate func(*httpapi.SearchResponse)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != httpapi.PathSearch {
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
		var resp httpapi.SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		mutate(&resp)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&resp)
	})
}

func TestRemoteTamperingDetected(t *testing.T) {
	handler, _ := remoteEnv(t)
	mutations := []struct {
		name   string
		mutate func(*httpapi.SearchResponse)
	}{
		{"inflate top score", func(r *httpapi.SearchResponse) {
			r.Hits[0].Score *= 2
		}},
		{"swap ranking", func(r *httpapi.SearchResponse) {
			last := len(r.Hits) - 1
			r.Hits[0], r.Hits[last] = r.Hits[last], r.Hits[0]
		}},
		{"drop result document", func(r *httpapi.SearchResponse) {
			r.Hits = r.Hits[:len(r.Hits)-1]
		}},
		{"empty result", func(r *httpapi.SearchResponse) {
			r.Hits = nil
		}},
		{"alter document content", func(r *httpapi.SearchResponse) {
			r.Hits[0].Content = append([]byte("FORGED "), r.Hits[0].Content...)
		}},
		{"substitute document", func(r *httpapi.SearchResponse) {
			r.Hits[0].DocID = r.Hits[0].DocID + 1000
		}},
		{"flip VO byte", func(r *httpapi.SearchResponse) {
			r.VO = append([]byte(nil), r.VO...)
			r.VO[len(r.VO)/2] ^= 0x40
		}},
		{"truncate VO", func(r *httpapi.SearchResponse) {
			r.VO = r.VO[:len(r.VO)/2]
		}},
	}
	// Every mutation is tried against a cold client and against one whose
	// signature memo the honest answer to the same query has warmed: having
	// seen the honest signatures must not change what tampering looks like.
	for _, algo := range []authtext.Algorithm{authtext.TRA, authtext.TNRA} {
		for _, m := range mutations {
			t.Run(algo.String()+"/"+m.name, func(t *testing.T) {
				var codes [2]core.VerifyCode
				for i, warm := range []bool{false, true} {
					var armed atomic.Bool
					srv := httptest.NewServer(tamperingProxy(handler, func(r *httpapi.SearchResponse) {
						if armed.Load() {
							m.mutate(r)
						}
					}))
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

func TestRemoteManifestFetchedOnce(t *testing.T) {
	handler, _ := remoteEnv(t)
	var manifestFetches atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == httpapi.PathManifest {
			manifestFetches.Add(1)
		}
		handler.ServeHTTP(w, r)
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
	if n := manifestFetches.Load(); n != 1 {
		t.Fatalf("manifest fetched %d times, want 1", n)
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
