package authtext_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"authtext"
	"authtext/internal/httpapi"
	"authtext/internal/wire"
)

// Codec negotiation from the client side: a RemoteClient offers binary
// frames by default, falls back to JSON, and gets the same verified answer
// either way. Tampering with either codec is the shape matrix's codec
// column (shape_matrix_test.go).

// TestRemoteJSONFallbackOn406 proves the latch: after one 406 the
// client stops offering binary entirely, so a strict JSON-only server
// costs one extra round trip, not one per request.
func TestRemoteJSONFallbackOn406(t *testing.T) {
	handler, _ := remoteEnv(t)
	var rejected, plain atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.Header.Get("Accept"), wire.ContentType) {
			rejected.Add(1)
			w.WriteHeader(http.StatusNotAcceptable)
			_, _ = io.WriteString(w, "binary frames not spoken here")
			return
		}
		if r.URL.Path == httpapi.PathSearch {
			plain.Add(1)
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
			t.Fatalf("search %d failed after 406 fallback: %v", i, err)
		}
	}
	if got := rejected.Load(); got != 1 {
		t.Fatalf("server rejected %d binary offers, want exactly 1 (the latch)", got)
	}
	if got := plain.Load(); got != 3 {
		t.Fatalf("server served %d plain searches, want 3", got)
	}
}

// legacyFrameType is the media type of the frame version before collection
// dictionaries, which this build neither sends nor reads.
const legacyFrameType = "application/x-authtext-frame-v2"

// negotiationProxy serves handler to clients whose Accept header rewrite
// replaces, and counts the responses by Content-Type.
func negotiationProxy(handler http.Handler, rewrite func(accept string) string, seen map[string]int, mu *sync.Mutex) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Set("Accept", rewrite(r.Header.Get("Accept")))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, r)
		mu.Lock()
		seen[rec.Header().Get("Content-Type")]++
		mu.Unlock()
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
}

// Each frame version has its own media type, so a client and a server that
// speak different versions settle on JSON instead of exchanging frames one
// of them cannot read: a client still offering the old type gets JSON from
// this build's handler, and this build's client gets JSON from a server
// that knows only the old type. Either way every answer verifies.
func TestRemoteFrameVersionsNegotiateJSON(t *testing.T) {
	handler, _ := remoteEnv(t)
	for _, tc := range []struct {
		name    string
		rewrite func(accept string) string
	}{
		{"old client, this server", func(string) string { return legacyFrameType }},
		{"this client, old server", func(accept string) string {
			offered := map[string]bool{}
			for _, part := range strings.Split(accept, ",") {
				mediaType, _, _ := strings.Cut(part, ";")
				offered[strings.TrimSpace(mediaType)] = true
			}
			if !offered[wire.ContentType] || offered[legacyFrameType] {
				t.Errorf("the client offered %q, want %s and not %s", accept, wire.ContentType, legacyFrameType)
			}
			return "" // a server that knows only the old type ignores the new one
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			seen := map[string]int{}
			srv := negotiationProxy(handler, tc.rewrite, seen, &mu)
			defer srv.Close()
			rc, err := authtext.NewRemoteClient(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range []authtext.Algorithm{authtext.TRA, authtext.TNRA} {
				if _, err := rc.Search(context.Background(), remoteQuery, remoteR, algo, authtext.ChainMHT); err != nil {
					t.Fatalf("%v search: %v (tampered: %v)", algo, err, authtext.IsTampered(err))
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if seen["application/json"] < 3 || len(seen) != 1 {
				t.Fatalf("responses by Content-Type: %v, want JSON only (manifest and two searches)", seen)
			}
		})
	}
}

// TestAppendToVerifiedHitsKeepsAnswerValid: the hit contents of a verified
// binary answer alias the decoded response, so each is capped at its own
// length. Appending to one must reallocate rather than write over the next
// hit's content or the VO, and the untouched answer must verify again.
func TestAppendToVerifiedHitsKeepsAnswerValid(t *testing.T) {
	handler, export := remoteEnv(t)
	srv := httptest.NewServer(handler)
	defer srv.Close()
	rc, err := authtext.NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	client, err := authtext.NewClientFromExport(export)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []authtext.Algorithm{authtext.TRA, authtext.TNRA} {
		res, err := rc.Search(context.Background(), remoteQuery, remoteR, algo, authtext.ChainMHT)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Hits) < 2 {
			t.Fatalf("%s: %d hits, want at least 2", algo, len(res.Hits))
		}
		for _, h := range res.Hits {
			_ = append(h.Content, bytes.Repeat([]byte("appended "), 8)...)
		}
		if err := client.Verify(remoteQuery, remoteR, res); err != nil {
			t.Fatalf("%s: appending to verified hit contents broke the answer: %v", algo, err)
		}
	}
}
