package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"authtext/internal/httpapi"
	"authtext/internal/obs"
)

// stubReplica is a minimal /v1 backend for routing tests: it answers
// healthz and search with a configurable generation (header + payload)
// and can be flipped into a failing state. The real protocol surface is
// exercised by the root-package fleet tests against live collections;
// here only the routing contract matters.
type stubReplica struct {
	gen      atomic.Uint64
	failing  atomic.Bool
	searches atomic.Int64
	// named is the dictionary header of the last search.
	named atomic.Pointer[string]
	// body is the last search's request body, query the last manifest
	// request's query string.
	body, query atomic.Pointer[string]
	srv         *httptest.Server
}

func newStubReplica(gen uint64) *stubReplica {
	s := &stubReplica{}
	s.gen.Store(gen)
	s.srv = httptest.NewServer(http.HandlerFunc(s.serve))
	return s
}

func (s *stubReplica) URL() string { return s.srv.URL }
func (s *stubReplica) Close()      { s.srv.Close() }

func (s *stubReplica) serve(w http.ResponseWriter, r *http.Request) {
	if s.failing.Load() {
		writeError(w, http.StatusInternalServerError, "internal", "stub: induced failure")
		return
	}
	gen := s.gen.Load()
	w.Header().Set(httpapi.GenerationHeader, strconv.FormatUint(gen, 10))
	switch r.URL.Path {
	case httpapi.PathHealthz:
		writeJSON(w, http.StatusOK, &httpapi.Health{
			Status: "ok", Documents: 3, Terms: 5, Generation: gen,
		})
	case httpapi.PathSearch:
		s.searches.Add(1)
		named := r.Header.Get(httpapi.DictionaryHeader)
		s.named.Store(&named)
		body, _ := io.ReadAll(r.Body)
		b := string(body)
		s.body.Store(&b)
		writeJSON(w, http.StatusOK, map[string]uint64{"generation": gen})
	case httpapi.PathManifest:
		q := r.URL.RawQuery
		s.query.Store(&q)
		m := &httpapi.ManifestResponse{Format: httpapi.FormatATCX, Export: []byte("stub export")}
		if r.URL.Query().Get("cap") != "" {
			m.Cap = []byte("stub cap")
		}
		writeJSON(w, http.StatusOK, m)
	default:
		writeError(w, http.StatusNotFound, httpapi.CodeNotFound, "stub: "+r.URL.Path)
	}
}

// newTestFrontend builds a frontend with timing tight enough for tests.
func newTestFrontend(t *testing.T, urls []string, mutate func(*Config)) *Frontend {
	t.Helper()
	cfg := Config{
		Backends:      urls,
		ProbeInterval: 10 * time.Millisecond,
		EjectAfter:    2,
		EjectFor:      40 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func doSearch(f *Frontend) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, httpapi.PathSearch, strings.NewReader(`{"query":"x","r":1}`))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	f.ServeHTTP(w, req)
	return w
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no backends accepted")
	}
	if _, err := New(Config{Backends: []string{"not a url"}}); err == nil {
		t.Error("unparseable backend URL accepted")
	}
	if _, err := New(Config{Backends: []string{"ftp://x"}}); err == nil {
		t.Error("non-http scheme accepted")
	}
	if _, err := New(Config{Backends: []string{"http://a:1", "http://a:1/"}}); err == nil {
		t.Error("duplicate backend (modulo trailing slash) accepted")
	}
}

// Requests spread across healthy same-generation replicas; every request
// succeeds and the per-replica counts sum to the request count.
func TestProxyBalancesAcrossReplicas(t *testing.T) {
	var stubs []*stubReplica
	var urls []string
	for i := 0; i < 3; i++ {
		s := newStubReplica(4)
		defer s.Close()
		stubs = append(stubs, s)
		urls = append(urls, s.URL())
	}
	f := newTestFrontend(t, urls, nil)
	waitFor(t, "probes to learn the generation", func() bool { return f.watermark.Load() == 4 })

	const n = 60
	for i := 0; i < n; i++ {
		if w := doSearch(f); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	var sum int64
	for i, s := range stubs {
		c := s.searches.Load()
		sum += c
		if c == 0 {
			t.Errorf("replica %d received no traffic", i)
		}
	}
	if sum != n {
		t.Fatalf("replicas served %d searches, want %d", sum, n)
	}
}

// Generation-consistent routing: while one replica lags a swap, all
// traffic goes to the caught-up replica; if only lagging replicas remain,
// the front end answers 503 fleet_unavailable rather than serving a
// generation regression; once the laggard catches up, it serves again.
func TestGenerationConsistentRouting(t *testing.T) {
	ahead := newStubReplica(2)
	defer ahead.Close()
	behind := newStubReplica(1)
	defer behind.Close()
	f := newTestFrontend(t, []string{ahead.URL(), behind.URL()}, nil)
	waitFor(t, "watermark to reach 2", func() bool { return f.watermark.Load() == 2 })

	for i := 0; i < 20; i++ {
		w := doSearch(f)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body)
		}
		if gh := w.Header().Get(httpapi.GenerationHeader); gh != "2" {
			t.Fatalf("request %d served generation %q, watermark is 2", i, gh)
		}
	}
	if got := behind.searches.Load(); got != 0 {
		t.Fatalf("lagging replica served %d searches, want 0", got)
	}

	// The caught-up replica dies: the laggard must NOT be allowed to
	// regress clients below the watermark.
	ahead.failing.Store(true)
	waitFor(t, "dead replica to be ejected", func() bool {
		for _, b := range f.Status().Backends {
			if b.URL == ahead.URL() {
				return b.Ejected
			}
		}
		return false
	})
	w := doSearch(f)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d with only a lagging replica, want 503", w.Code)
	}
	var er httpapi.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != httpapi.CodeFleetUnavailable {
		t.Fatalf("error code %q, want %q", er.Error.Code, httpapi.CodeFleetUnavailable)
	}

	// The laggard catches up: service resumes from it, still at the
	// watermark generation.
	behind.gen.Store(2)
	waitFor(t, "service to resume from the caught-up laggard", func() bool {
		return doSearch(f).Code == http.StatusOK
	})
	if got := behind.searches.Load(); got == 0 {
		t.Fatal("caught-up laggard still received no traffic")
	}
}

// A failing backend is ejected after consecutive failures and recovers
// after it heals; requests keep succeeding throughout via the healthy
// replica.
func TestEjectionAndRecovery(t *testing.T) {
	good := newStubReplica(1)
	defer good.Close()
	bad := newStubReplica(1)
	defer bad.Close()
	reg := obs.NewRegistry()
	f := newTestFrontend(t, []string{good.URL(), bad.URL()}, func(c *Config) { c.Registry = reg })
	waitFor(t, "initial probes", func() bool {
		st := f.Status()
		return len(st.Backends) == 2 && st.Backends[0].Probed && st.Backends[1].Probed
	})

	bad.failing.Store(true)
	waitFor(t, "failing backend to be ejected", func() bool {
		for _, b := range f.Status().Backends {
			if b.URL == bad.URL() {
				return b.Ejected
			}
		}
		return false
	})
	// While ejected, every request succeeds via the healthy replica.
	for i := 0; i < 20; i++ {
		if w := doSearch(f); w.Code != http.StatusOK {
			t.Fatalf("request %d during ejection: status %d: %s", i, w.Code, w.Body)
		}
	}

	bad.failing.Store(false)
	waitFor(t, "healed backend to recover", func() bool {
		for _, b := range f.Status().Backends {
			if b.URL == bad.URL() {
				return !b.Ejected && b.Healthy
			}
		}
		return false
	})
	waitFor(t, "healed backend to serve again", func() bool {
		doSearch(f)
		return bad.searches.Load() > 0
	})
}

// The front end is serving-only: the admin surface is refused, unknown
// paths 404, and both healthz flavours answer.
func TestControlEndpoints(t *testing.T) {
	s := newStubReplica(3)
	defer s.Close()
	f := newTestFrontend(t, []string{s.URL()}, nil)
	waitFor(t, "probe", func() bool { return f.watermark.Load() == 3 })

	req := httptest.NewRequest(http.MethodPost, httpapi.PathAdminUpdate, strings.NewReader(`{}`))
	w := httptest.NewRecorder()
	f.ServeHTTP(w, req)
	if w.Code != http.StatusForbidden {
		t.Fatalf("admin update: status %d, want 403", w.Code)
	}
	var er httpapi.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != httpapi.CodeUpdateFailed {
		t.Fatalf("admin update error code %q", er.Error.Code)
	}

	w = httptest.NewRecorder()
	f.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/nope", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown path: status %d", w.Code)
	}

	w = httptest.NewRecorder()
	f.ServeHTTP(w, httptest.NewRequest(http.MethodGet, httpapi.PathHealthz, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", w.Code)
	}
	var h httpapi.Health
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Generation != 3 || h.Documents != 3 {
		t.Fatalf("synthesized healthz = %+v", h)
	}

	w = httptest.NewRecorder()
	f.ServeHTTP(w, httptest.NewRequest(http.MethodGet, PathFleetHealthz, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("fleet healthz: status %d", w.Code)
	}
	var fh FleetHealth
	if err := json.Unmarshal(w.Body.Bytes(), &fh); err != nil {
		t.Fatal(err)
	}
	if fh.Status != "ok" || fh.Generation != 3 || len(fh.Backends) != 1 || !fh.Backends[0].Healthy {
		t.Fatalf("fleet healthz = %+v", fh)
	}
}

// The fleet metrics move with traffic and are served at /v1/metrics.
func TestFleetMetrics(t *testing.T) {
	good := newStubReplica(1)
	defer good.Close()
	reg := obs.NewRegistry()
	f := newTestFrontend(t, []string{good.URL()}, func(c *Config) { c.Registry = reg })
	waitFor(t, "probe", func() bool { return f.watermark.Load() == 1 })
	for i := 0; i < 5; i++ {
		if w := doSearch(f); w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
	}
	w := httptest.NewRecorder()
	f.ServeHTTP(w, httptest.NewRequest(http.MethodGet, httpapi.PathMetrics, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", w.Code)
	}
	samples, err := obs.Parse(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		name  string
		value float64
		any   bool
		label []obs.Label
	}{
		{name: "authtext_fleet_backends", value: 1},
		{name: "authtext_fleet_backends_available", value: 1},
		{name: "authtext_fleet_generation", value: 1},
		{name: "authtext_fleet_proxied_total", value: 5, label: []obs.Label{obs.L("outcome", "ok")}},
		{name: "authtext_fleet_proxied_total", value: 0, label: []obs.Label{obs.L("outcome", "unavailable")}},
		{name: "authtext_fleet_probes_total", any: true},
	} {
		s, ok := obs.FindSample(samples, want.name, want.label...)
		if !ok {
			t.Errorf("series %s %v missing", want.name, want.label)
			continue
		}
		if want.any {
			if s.Value <= 0 {
				t.Errorf("%s = %g, want > 0", s.Key(), s.Value)
			}
		} else if s.Value != want.value {
			t.Errorf("%s = %g, want %g", s.Key(), s.Value, want.value)
		}
	}
}

// Request bodies larger than any backend accepts are refused at the front
// end, before any backend sees them.
func TestProxyBodyCap(t *testing.T) {
	s := newStubReplica(1)
	defer s.Close()
	f := newTestFrontend(t, []string{s.URL()}, nil)
	pad := httpapi.MaxBodyBytes + 1 - len(`{"query":"","r":1}`)
	body := fmt.Sprintf(`{"query":%q,"r":1}`, strings.Repeat("x", pad))
	if len(body) != httpapi.MaxBodyBytes+1 {
		t.Fatalf("body is %d bytes, want %d", len(body), httpapi.MaxBodyBytes+1)
	}
	req := httptest.NewRequest(http.MethodPost, httpapi.PathSearch, strings.NewReader(body))
	w := httptest.NewRecorder()
	f.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", w.Code)
	}
	if s.searches.Load() != 0 {
		t.Fatal("oversized body reached a backend")
	}
}

// The front end forwards the dictionaries a client names, so the replica
// that answers attaches its dictionary only to a client that lacks it.
func TestProxyForwardsDictionaryHeader(t *testing.T) {
	s := newStubReplica(1)
	defer s.Close()
	f := newTestFrontend(t, []string{s.URL()}, nil)
	waitFor(t, "probes to learn the generation", func() bool { return f.watermark.Load() == 1 })
	for _, named := range []string{"", "ab12,cd34"} {
		req := httptest.NewRequest(http.MethodPost, httpapi.PathSearch, strings.NewReader(`{"query":"x","r":1}`))
		if named != "" {
			req.Header.Set(httpapi.DictionaryHeader, named)
		}
		w := httptest.NewRecorder()
		f.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("search answered %d", w.Code)
		}
		if got := s.named.Load(); got == nil || *got != named {
			t.Fatalf("the replica saw dictionaries %v, the client named %q", got, named)
		}
	}
}

// TestProxyForwardsCap: the front end hands the replica it picks a proof-cap
// request as the client made it — ?cap= on the manifest endpoint, the cap
// field of a search body — and relays the cap in the manifest answer.
func TestProxyForwardsCap(t *testing.T) {
	s := newStubReplica(1)
	defer s.Close()
	f := newTestFrontend(t, []string{s.URL()}, nil)
	waitFor(t, "probes to learn the generation", func() bool { return f.watermark.Load() == 1 })

	w := httptest.NewRecorder()
	f.ServeHTTP(w, httptest.NewRequest(http.MethodGet, httpapi.PathManifest+"?cap=8", nil))
	var m httpapi.ManifestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil || w.Code != http.StatusOK {
		t.Fatalf("manifest answered %d: %v", w.Code, err)
	}
	if got := s.query.Load(); got == nil || *got != "cap=8" || string(m.Cap) != "stub cap" {
		t.Fatalf("the replica saw query %v; the client got cap %q", got, m.Cap)
	}

	const body = `{"query":"x","r":1,"cap":8}`
	w = httptest.NewRecorder()
	f.ServeHTTP(w, httptest.NewRequest(http.MethodPost, httpapi.PathSearch, strings.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("search answered %d", w.Code)
	}
	if got := s.body.Load(); got == nil || *got != body {
		t.Fatalf("the replica saw body %v, the client sent %s", got, body)
	}
}
