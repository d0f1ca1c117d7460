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

// The binary-path counterpart of remote_test.go's tamper suite: a
// RemoteClient negotiates framed responses by default, and the frames
// travel over the same untrusted transport as JSON — so in-transit
// mutation of a frame, at any layer (header, CRC, payload), must come
// back from Search as a tampering classification, never as a verified
// result and never as an unclassified transport error.

// frameProxy wraps an honest handler and rewrites every framed
// /v1/search response body with mutate(frame). Non-frame and non-search
// responses pass through untouched.
func frameProxy(honest http.Handler, frames *atomic.Int64, mutate func([]byte) []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != httpapi.PathSearch {
			honest.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		honest.ServeHTTP(rec, r)
		ct := rec.Header().Get("Content-Type")
		if rec.Code != http.StatusOK || !strings.HasPrefix(ct, wire.ContentType) {
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(rec.Body.Bytes())
			return
		}
		frames.Add(1)
		w.Header().Set("Content-Type", wire.ContentType)
		_, _ = w.Write(mutate(rec.Body.Bytes()))
	})
}

// TestRemoteBinaryFrameTamperBattery flips one bit at a battery of
// offsets spanning every frame region — magic, version, type, flags,
// CRC, length and payload — and demands the client classify each as
// tampering for both TRA and TNRA. (The exhaustive every-bit battery
// runs in-memory in internal/wire; this one proves the classification
// survives the full client stack.)
func TestRemoteBinaryFrameTamperBattery(t *testing.T) {
	handler, _ := remoteEnv(t)
	offsets := []struct {
		name string
		pick func(n int) int
	}{
		{"magic", func(int) int { return 1 }},
		{"version", func(int) int { return 4 }},
		{"type", func(int) int { return 5 }},
		{"flags", func(int) int { return 7 }},
		{"crc", func(int) int { return 9 }},
		{"length", func(int) int { return 14 }},
		{"payload start", func(int) int { return wire.HeaderSize }},
		{"payload middle", func(n int) int { return wire.HeaderSize + (n-wire.HeaderSize)/2 }},
		{"payload end", func(n int) int { return n - 1 }},
	}
	for _, algo := range []authtext.Algorithm{authtext.TRA, authtext.TNRA} {
		for _, off := range offsets {
			t.Run(algo.String()+"/"+off.name, func(t *testing.T) {
				var frames atomic.Int64
				srv := httptest.NewServer(frameProxy(handler, &frames, func(frame []byte) []byte {
					out := append([]byte(nil), frame...)
					out[off.pick(len(out))] ^= 0x10
					return out
				}))
				defer srv.Close()
				rc, err := authtext.NewRemoteClient(srv.URL)
				if err != nil {
					t.Fatal(err)
				}
				res, err := rc.Search(context.Background(), remoteQuery, remoteR, algo, authtext.ChainMHT)
				if err == nil {
					t.Fatalf("bit-flipped frame (%s) verified", off.name)
				}
				if !authtext.IsTampered(err) {
					t.Fatalf("rejection not classified as tampering: %v", err)
				}
				if res != nil {
					t.Fatal("tampered result was returned alongside the error")
				}
				if frames.Load() == 0 {
					t.Fatal("proxy saw no framed response — binary negotiation did not happen")
				}
			})
		}
	}
}

// TestRemoteBinarySemanticTamperDetected re-frames a semantically
// mutated response with a fresh, valid CRC — the transport checksum is
// not the defense here, client-side verification is. Both TRA and TNRA
// must reject the forged ranking and the forged VO.
func TestRemoteBinarySemanticTamperDetected(t *testing.T) {
	handler, _ := remoteEnv(t)
	mutations := []struct {
		name   string
		mutate func(*wire.SearchResponse)
	}{
		{"inflate top score", func(r *wire.SearchResponse) { r.Hits[0].Score *= 2 }},
		{"drop result document", func(r *wire.SearchResponse) { r.Hits = r.Hits[:len(r.Hits)-1] }},
		{"alter document content", func(r *wire.SearchResponse) {
			r.Hits[0].Content = append([]byte("FORGED "), r.Hits[0].Content...)
		}},
		{"flip VO byte", func(r *wire.SearchResponse) {
			r.VO = append([]byte(nil), r.VO...)
			r.VO[len(r.VO)/2] ^= 0x40
		}},
	}
	for _, algo := range []authtext.Algorithm{authtext.TRA, authtext.TNRA} {
		for _, m := range mutations {
			t.Run(algo.String()+"/"+m.name, func(t *testing.T) {
				var frames atomic.Int64
				srv := httptest.NewServer(frameProxy(handler, &frames, func(frame []byte) []byte {
					resp, err := wire.DecodeSearchResponse(frame)
					if err != nil {
						t.Errorf("honest frame failed to decode in proxy: %v", err)
						return frame
					}
					m.mutate(resp)
					return wire.EncodeSearchResponse(resp)
				}))
				defer srv.Close()
				rc, err := authtext.NewRemoteClient(srv.URL)
				if err != nil {
					t.Fatal(err)
				}
				res, err := rc.Search(context.Background(), remoteQuery, remoteR, algo, authtext.ChainMHT)
				if err == nil {
					t.Fatalf("semantically tampered frame (%s) verified", m.name)
				}
				if !authtext.IsTampered(err) {
					t.Fatalf("rejection not classified as tampering: %v", err)
				}
				if res != nil {
					t.Fatal("tampered result was returned alongside the error")
				}
				if frames.Load() == 0 {
					t.Fatal("proxy saw no framed response — binary negotiation did not happen")
				}
			})
		}
	}
}

// TestRemoteBinaryMatchesJSON pins the negotiation boundary from the
// client side: the same server serves one query to a binary-preferring
// client and one forced-JSON client, and the verified results must be
// identical — same hits, same VO bytes, same stats. Binary is a
// transport optimization, never a semantic fork.
func TestRemoteBinaryMatchesJSON(t *testing.T) {
	handler, _ := remoteEnv(t)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	binaryClient, err := authtext.NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	// A 406-latching server forces the second client onto plain JSON.
	latching := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.Header.Get("Accept"), wire.ContentType) {
			w.WriteHeader(http.StatusNotAcceptable)
			return
		}
		handler.ServeHTTP(w, r)
	}))
	defer latching.Close()
	jsonClient, err := authtext.NewRemoteClient(latching.URL)
	if err != nil {
		t.Fatal(err)
	}

	for _, algo := range []authtext.Algorithm{authtext.TRA, authtext.TNRA} {
		br, err := binaryClient.Search(context.Background(), remoteQuery, remoteR, algo, authtext.ChainMHT)
		if err != nil {
			t.Fatalf("binary search failed: %v", err)
		}
		jr, err := jsonClient.Search(context.Background(), remoteQuery, remoteR, algo, authtext.ChainMHT)
		if err != nil {
			t.Fatalf("json search failed: %v", err)
		}
		if len(br.Hits) != len(jr.Hits) {
			t.Fatalf("hit counts differ: binary %d, json %d", len(br.Hits), len(jr.Hits))
		}
		for i := range br.Hits {
			if br.Hits[i].DocID != jr.Hits[i].DocID || br.Hits[i].Score != jr.Hits[i].Score ||
				!bytes.Equal(br.Hits[i].Content, jr.Hits[i].Content) {
				t.Fatalf("hit %d differs between binary and json paths", i)
			}
		}
		if !bytes.Equal(br.VO, jr.VO) {
			t.Fatal("VO bytes differ between binary and json paths")
		}
	}
}

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

// legacyFrameType is the media type of the frame version before chunk
// lists, which this build neither sends nor reads.
const legacyFrameType = "application/x-authtext-frame"

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
