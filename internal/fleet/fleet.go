// Package fleet is the multi-host serving layer: a Frontend that fans
// /v1 traffic out across N replica backends with health-aware ejection,
// retry/timeout/backoff, and generation-consistent routing — a retried
// request never observes a publication-generation regression, and
// replicas lagging behind a snapshot swap are routed around until they
// catch up.
//
// The front end is an UNTRUSTED component, exactly like the replicas
// behind it: every response it forwards is verified end-to-end by the
// client against the owner's public key, so nothing here participates in
// the authentication protocol. What the front end does add is
// availability (failover between replicas) and the routing discipline
// that keeps honest swaps from looking like rollback attacks to clients.
// The complementary client-side defence — cross-checking replicas
// directly to catch an equivocating fleet — lives in the root package's
// FleetClient (docs/FLEET.md).
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"authtext/internal/httpapi"
	"authtext/internal/obs"
)

// PathFleetHealthz serves the per-backend fleet status (FleetHealth).
const PathFleetHealthz = "/v1/fleet/healthz"

// Defaults for Config fields left zero.
const (
	DefaultProbeInterval  = 500 * time.Millisecond
	DefaultAttemptTimeout = 10 * time.Second
	DefaultMaxAttempts    = 3
	DefaultEjectAfter     = 2
	DefaultEjectFor       = 1 * time.Second
	// maxEjectFor caps the exponential ejection backoff.
	maxEjectFor = 30 * time.Second
	// maxProxyBody caps the request body the front end buffers for
	// retries: every proxied path is a query, and no backend accepts a
	// query body larger than this.
	maxProxyBody = httpapi.MaxBodyBytes
)

// Config configures a Frontend.
type Config struct {
	// Backends are the replica base URLs (e.g. "http://10.0.0.1:8080").
	// At least one is required.
	Backends []string
	// ProbeInterval is the health-probe period (DefaultProbeInterval when
	// zero). Probes GET /v1/healthz on every backend, learn generations,
	// and drive ejection/recovery independent of request traffic.
	ProbeInterval time.Duration
	// AttemptTimeout bounds one forwarded attempt to one backend.
	AttemptTimeout time.Duration
	// MaxAttempts bounds the backends tried per request (each attempt
	// goes to a backend not yet tried for this request).
	MaxAttempts int
	// EjectAfter is the number of consecutive failures that ejects a
	// backend from the rotation.
	EjectAfter int
	// EjectFor is the base ejection duration; it doubles per consecutive
	// ejection (capped) and resets on a successful probe or request.
	EjectFor time.Duration
	// Transport overrides the forwarding transport (tests inject one).
	Transport http.RoundTripper
	// Registry receives authtext_fleet_* metrics and is served at
	// /v1/metrics when non-nil.
	Registry *obs.Registry
	// Logger receives ejection/recovery events (discarded when nil).
	Logger *slog.Logger
}

// backend is the per-replica routing state. All fields are atomics: the
// request path reads them lock-free; membership changes copy the slice.
type backend struct {
	url string
	// gen is the highest generation this backend has been seen serving
	// (probe healthz or response header).
	gen atomic.Uint64
	// inflight is the number of requests currently forwarded to it
	// (power-of-two-choices reads it).
	inflight atomic.Int64
	// fails counts consecutive failures since the last success.
	fails atomic.Int32
	// ejectedUntil is a unix-nano deadline; 0 = in rotation.
	ejectedUntil atomic.Int64
	// ejections counts consecutive ejections (backoff exponent), reset on
	// recovery.
	ejections atomic.Int32
	// healthy is the last probe verdict (status reporting only; routing
	// uses ejection state).
	healthy atomic.Bool
	// probed flips true after the first probe answer, so status can
	// distinguish "unknown yet" from "down".
	probed atomic.Bool
	// lastHealth is the last successfully probed healthz payload (shape
	// for the synthesized front-end healthz).
	lastHealth atomic.Pointer[httpapi.Health]
}

// available reports whether the backend is in rotation at now.
func (b *backend) available(now time.Time) bool {
	eu := b.ejectedUntil.Load()
	return eu == 0 || now.UnixNano() >= eu
}

// Frontend load-balances the /v1 read surface over replica backends. It
// implements http.Handler; Close stops the probe loop.
type Frontend struct {
	cfg    Config
	hc     *http.Client
	logger *slog.Logger
	start  time.Time

	// backends is the current membership (copy-on-write under mu).
	mu       sync.Mutex
	backends atomic.Pointer[[]*backend]

	// watermark is the highest generation any verified-healthy backend or
	// forwarded response has shown; responses below it are re-routed.
	watermark atomic.Uint64

	served atomic.Int64
	failed atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Metric handles (nil without a Registry; guarded by inc/observe
	// helpers).
	mProxiedOK   *obs.Counter
	mProxiedFail *obs.Counter
	mRetries     *obs.Counter
	mEjections   *obs.Counter
	mLagReroutes *obs.Counter
	mProbes      *obs.Counter
	mProbeFails  *obs.Counter
}

// New validates cfg, starts the probe loop, and returns the front end.
func New(cfg Config) (*Frontend, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("fleet: no backends configured")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = DefaultAttemptTimeout
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = DefaultEjectAfter
	}
	if cfg.EjectFor <= 0 {
		cfg.EjectFor = DefaultEjectFor
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	f := &Frontend{
		cfg:    cfg,
		logger: logger,
		start:  time.Now(),
		stop:   make(chan struct{}),
	}
	f.hc = &http.Client{Transport: cfg.Transport, Timeout: cfg.AttemptTimeout}
	bs := make([]*backend, 0, len(cfg.Backends))
	seen := make(map[string]bool, len(cfg.Backends))
	for _, raw := range cfg.Backends {
		u, err := normalizeBackendURL(raw)
		if err != nil {
			return nil, err
		}
		if seen[u] {
			return nil, fmt.Errorf("fleet: duplicate backend %s", u)
		}
		seen[u] = true
		bs = append(bs, &backend{url: u})
	}
	f.backends.Store(&bs)
	if reg := cfg.Registry; reg != nil {
		reg.GaugeFunc("authtext_fleet_backends", "Configured replica backends.",
			func() float64 { return float64(len(*f.backends.Load())) })
		reg.GaugeFunc("authtext_fleet_backends_available", "Replica backends currently in rotation.",
			func() float64 { return float64(f.availableCount()) })
		reg.GaugeFunc("authtext_fleet_generation", "Fleet generation watermark (highest generation seen).",
			func() float64 { return float64(f.watermark.Load()) })
		help := "Requests proxied through the fleet front end by outcome."
		f.mProxiedOK = reg.Counter("authtext_fleet_proxied_total", help, obs.L("outcome", "ok"))
		f.mProxiedFail = reg.Counter("authtext_fleet_proxied_total", help, obs.L("outcome", "unavailable"))
		f.mRetries = reg.Counter("authtext_fleet_retries_total", "Request attempts retried on another backend.")
		f.mEjections = reg.Counter("authtext_fleet_ejections_total", "Backends ejected from rotation after consecutive failures.")
		f.mLagReroutes = reg.Counter("authtext_fleet_lag_reroutes_total", "Responses discarded because they regressed below the generation watermark.")
		f.mProbes = reg.Counter("authtext_fleet_probes_total", "Health probes sent.")
		f.mProbeFails = reg.Counter("authtext_fleet_probe_failures_total", "Health probes that failed.")
	}
	f.wg.Add(1)
	go f.probeLoop()
	return f, nil
}

func normalizeBackendURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("fleet: bad backend URL %q: %v", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("fleet: bad backend URL %q (want http(s)://host[:port])", raw)
	}
	return raw, nil
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Close stops the probe loop. In-flight requests finish normally.
func (f *Frontend) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
}

// Generation returns the fleet generation watermark.
func (f *Frontend) Generation() uint64 { return f.watermark.Load() }

// AddBackend adds a replica to the rotation (it becomes eligible after
// its first successful probe or immediately for routing; its generation
// is unknown until probed).
func (f *Frontend) AddBackend(raw string) error {
	u, err := normalizeBackendURL(raw)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	old := *f.backends.Load()
	for _, b := range old {
		if b.url == u {
			return fmt.Errorf("fleet: backend %s already present", u)
		}
	}
	nw := make([]*backend, len(old)+1)
	copy(nw, old)
	nb := &backend{url: u}
	nw[len(old)] = nb
	f.backends.Store(&nw)
	// Probe it right away so it picks up a generation before the next tick.
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.probe(nb)
	}()
	return nil
}

// RemoveBackend removes a replica from the rotation; it reports whether
// the URL was present.
func (f *Frontend) RemoveBackend(raw string) bool {
	u, err := normalizeBackendURL(raw)
	if err != nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	old := *f.backends.Load()
	nw := make([]*backend, 0, len(old))
	found := false
	for _, b := range old {
		if b.url == u {
			found = true
			continue
		}
		nw = append(nw, b)
	}
	if found {
		f.backends.Store(&nw)
	}
	return found
}

func (f *Frontend) availableCount() int {
	now := time.Now()
	n := 0
	for _, b := range *f.backends.Load() {
		if b.available(now) {
			n++
		}
	}
	return n
}

// probeLoop drives health probes until Close.
func (f *Frontend) probeLoop() {
	defer f.wg.Done()
	f.probeRound()
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			f.probeRound()
		}
	}
}

func (f *Frontend) probeRound() {
	bs := *f.backends.Load()
	var wg sync.WaitGroup
	for _, b := range bs {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			f.probe(b)
		}(b)
	}
	wg.Wait()
}

// probe GETs one backend's healthz, updating generation and ejection
// state.
func (f *Frontend) probe(b *backend) {
	inc(f.mProbes)
	timeout := f.cfg.ProbeInterval
	if timeout > f.cfg.AttemptTimeout {
		timeout = f.cfg.AttemptTimeout
	}
	hc := &http.Client{Transport: f.cfg.Transport, Timeout: timeout}
	resp, err := hc.Get(b.url + httpapi.PathHealthz)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			err = fmt.Errorf("healthz status %d", resp.StatusCode)
		} else {
			var h httpapi.Health
			if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h); derr != nil {
				err = fmt.Errorf("healthz decode: %v", derr)
			} else {
				b.probed.Store(true)
				b.healthy.Store(true)
				b.lastHealth.Store(&h)
				f.raiseGen(b, h.Generation)
				f.recover(b)
				return
			}
		}
	}
	b.probed.Store(true)
	b.healthy.Store(false)
	inc(f.mProbeFails)
	f.fail(b, err)
}

// raiseGen raises (never lowers) a backend's known generation and the
// fleet watermark. A replica cannot regress its own generation
// (LiveReplica refuses rollback), so raise-only avoids races between a
// stale probe and a fresh response header.
func (f *Frontend) raiseGen(b *backend, gen uint64) {
	for {
		cur := b.gen.Load()
		if gen <= cur || b.gen.CompareAndSwap(cur, gen) {
			break
		}
	}
	for {
		cur := f.watermark.Load()
		if gen <= cur || f.watermark.CompareAndSwap(cur, gen) {
			break
		}
	}
}

// fail records one failure; EjectAfter consecutive failures eject the
// backend with exponential backoff.
func (f *Frontend) fail(b *backend, err error) {
	if int(b.fails.Add(1)) < f.cfg.EjectAfter {
		return
	}
	b.fails.Store(0)
	n := b.ejections.Add(1)
	backoff := f.cfg.EjectFor
	for i := int32(1); i < n && backoff < maxEjectFor; i++ {
		backoff *= 2
	}
	if backoff > maxEjectFor {
		backoff = maxEjectFor
	}
	b.ejectedUntil.Store(time.Now().Add(backoff).UnixNano())
	inc(f.mEjections)
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	f.logger.Warn("fleet: backend ejected", "backend", b.url, "for", backoff.String(), "err", msg)
}

// recover puts a backend back in rotation after a success.
func (f *Frontend) recover(b *backend) {
	b.fails.Store(0)
	if b.ejectedUntil.Swap(0) != 0 {
		b.ejections.Store(0)
		f.logger.Info("fleet: backend recovered", "backend", b.url)
	}
}

// pick chooses the next backend for a request: among available, untried
// backends that are caught up to the highest generation any candidate
// serves, pick the less-loaded of two random choices.
func (f *Frontend) pick(tried map[*backend]bool) *backend {
	now := time.Now()
	bs := *f.backends.Load()
	cands := make([]*backend, 0, len(bs))
	var topGen uint64
	for _, b := range bs {
		if tried[b] || !b.available(now) {
			continue
		}
		cands = append(cands, b)
		if g := b.gen.Load(); g > topGen {
			topGen = g
		}
	}
	// Generation-consistent routing: only candidates at the newest
	// generation any candidate serves. (If the watermark is ahead of every
	// candidate — e.g. the only caught-up replica just died — we still
	// serve from the best available; the response-header check below
	// guards the per-request monotonicity clients depend on.)
	cur := cands[:0]
	for _, b := range cands {
		if b.gen.Load() == topGen {
			cur = append(cur, b)
		}
	}
	switch len(cur) {
	case 0:
		return nil
	case 1:
		return cur[0]
	}
	// Power of two choices on in-flight load.
	i := rand.Intn(len(cur))
	j := rand.Intn(len(cur) - 1)
	if j >= i {
		j++
	}
	if cur[j].inflight.Load() < cur[i].inflight.Load() {
		return cur[j]
	}
	return cur[i]
}

// proxyable is the read surface the front end forwards.
func proxyable(path string) bool {
	switch path {
	case httpapi.PathSearch, httpapi.PathManifest, httpapi.PathShardSearch, httpapi.PathShardManifest:
		return true
	}
	return false
}

// ServeHTTP implements http.Handler.
func (f *Frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case proxyable(r.URL.Path):
		f.proxy(w, r)
	case r.URL.Path == httpapi.PathHealthz:
		f.serveHealth(w, r)
	case r.URL.Path == PathFleetHealthz:
		f.serveFleetHealth(w, r)
	case r.URL.Path == httpapi.PathAdminUpdate:
		writeError(w, http.StatusForbidden, httpapi.CodeUpdateFailed,
			"the fleet front end is serving-only; apply updates at the owner")
	case r.URL.Path == httpapi.PathMetrics && f.cfg.Registry != nil:
		f.cfg.Registry.Handler().ServeHTTP(w, r)
	default:
		writeError(w, http.StatusNotFound, httpapi.CodeNotFound, "no such endpoint: "+r.URL.Path)
	}
}

// proxy forwards one request, retrying across distinct backends on
// transport errors, 5xx answers, and generation regressions.
func (f *Frontend) proxy(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, maxProxyBody+1))
		if err != nil {
			writeError(w, http.StatusBadRequest, httpapi.CodeBadRequest, "reading request body: "+err.Error())
			return
		}
		if len(body) > maxProxyBody {
			writeError(w, http.StatusRequestEntityTooLarge, httpapi.CodeBadRequest, "request body too large")
			return
		}
	}
	tried := make(map[*backend]bool, f.cfg.MaxAttempts)
	lastErr := "no backend in rotation"
	for attempt := 0; attempt < f.cfg.MaxAttempts; attempt++ {
		b := f.pick(tried)
		if b == nil {
			break
		}
		tried[b] = true
		if attempt > 0 {
			inc(f.mRetries)
		}
		if f.forward(w, r, b, body, &lastErr) {
			f.served.Add(1)
			inc(f.mProxiedOK)
			return
		}
	}
	f.failed.Add(1)
	inc(f.mProxiedFail)
	writeError(w, http.StatusServiceUnavailable, httpapi.CodeFleetUnavailable,
		"no replica backend available: "+lastErr)
}

// forward tries one backend; it reports whether the response was written
// to the client (true = done, false = retry with another backend).
func (f *Frontend) forward(w http.ResponseWriter, r *http.Request, b *backend, body []byte, lastErr *string) bool {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	out, err := http.NewRequestWithContext(r.Context(), r.Method,
		b.url+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		*lastErr = err.Error()
		return false
	}
	copyHeader(out.Header, r.Header, "Accept")
	copyHeader(out.Header, r.Header, "Content-Type")
	copyHeader(out.Header, r.Header, "X-Request-Id")
	resp, err := f.hc.Do(out)
	if err != nil {
		*lastErr = err.Error()
		f.fail(b, err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		*lastErr = fmt.Sprintf("%s answered %d", b.url, resp.StatusCode)
		f.fail(b, fmt.Errorf("status %d", resp.StatusCode))
		return false
	}
	if gh := resp.Header.Get(httpapi.GenerationHeader); gh != "" {
		gen, perr := strconv.ParseUint(gh, 10, 64)
		if perr == nil {
			if wm := f.watermark.Load(); gen < wm {
				// A lagging replica raced a snapshot swap: the fleet has
				// already served generation wm, so forwarding this response
				// would be a client-visible regression. Route around it; this
				// is lag, not failure, so it does not count toward ejection.
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				*lastErr = fmt.Sprintf("%s lags at generation %d (fleet at %d)", b.url, gen, wm)
				inc(f.mLagReroutes)
				return false
			}
			f.raiseGen(b, gen)
		}
	}
	f.recover(b)
	// Success: relay status, negotiated content type, and body.
	copyHeader(w.Header(), resp.Header, "Content-Type")
	copyHeader(w.Header(), resp.Header, "Content-Length")
	copyHeader(w.Header(), resp.Header, httpapi.GenerationHeader)
	w.WriteHeader(resp.StatusCode)
	if _, cerr := io.Copy(w, resp.Body); cerr != nil {
		// Body relay failed mid-stream; the status line is gone, nothing
		// left to do but log. The client sees a truncated body and treats
		// it as a transport failure (never tampering: undecodable bodies
		// of this kind surface as unexpected-EOF transport errors).
		f.logger.Warn("fleet: body relay interrupted", "backend", b.url, "err", cerr.Error())
	}
	return true
}

func copyHeader(dst, src http.Header, key string) {
	if vs := src.Values(key); len(vs) > 0 {
		dst[http.CanonicalHeaderKey(key)] = vs
	}
}

// BackendStatus is one replica's routing state inside FleetHealth.
type BackendStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Probed reports whether at least one probe has answered (false right
	// after startup or AddBackend).
	Probed     bool   `json:"probed"`
	Ejected    bool   `json:"ejected,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	Inflight   int64  `json:"inflight,omitempty"`
}

// FleetHealth is the payload of /v1/fleet/healthz.
type FleetHealth struct {
	// Status is "ok" when at least one backend is in rotation,
	// "unavailable" otherwise.
	Status string `json:"status"`
	// Generation is the fleet watermark.
	Generation uint64          `json:"generation,omitempty"`
	Backends   []BackendStatus `json:"backends"`
}

// Status returns the current fleet status snapshot.
func (f *Frontend) Status() FleetHealth {
	now := time.Now()
	bs := *f.backends.Load()
	out := FleetHealth{Status: "unavailable", Generation: f.watermark.Load()}
	for _, b := range bs {
		avail := b.available(now)
		if avail {
			out.Status = "ok"
		}
		out.Backends = append(out.Backends, BackendStatus{
			URL:        b.url,
			Healthy:    b.healthy.Load(),
			Probed:     b.probed.Load(),
			Ejected:    !avail,
			Generation: b.gen.Load(),
			Inflight:   b.inflight.Load(),
		})
	}
	return out
}

func (f *Frontend) serveFleetHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, httpapi.CodeMethodNotAllowed, r.Method+" not allowed")
		return
	}
	writeJSON(w, http.StatusOK, f.Status())
}

// serveHealth synthesizes a standard /v1/healthz from the fleet's view:
// collection shape from the freshest probed backend, liveness from the
// rotation, counters from the front end itself. Clients built for a
// single replica keep working unchanged against a fleet.
func (f *Frontend) serveHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, httpapi.CodeMethodNotAllowed, r.Method+" not allowed")
		return
	}
	h := httpapi.Health{
		Status:        "unavailable",
		Generation:    f.watermark.Load(),
		UptimeMillis:  time.Since(f.start).Milliseconds(),
		QueriesServed: f.served.Load(),
		QueriesFailed: f.failed.Load(),
	}
	now := time.Now()
	var bestGen uint64
	for _, b := range *f.backends.Load() {
		if b.available(now) {
			h.Status = "ok"
		}
		if lh := b.lastHealth.Load(); lh != nil && (h.Documents == 0 || b.gen.Load() >= bestGen) {
			bestGen = b.gen.Load()
			h.Documents = lh.Documents
			h.Terms = lh.Terms
			h.Shards = lh.Shards
			h.Variants = lh.Variants
		}
	}
	if h.Status == "ok" {
		httpapiSetGen(w, h.Generation)
	}
	writeJSON(w, http.StatusOK, h)
}

func httpapiSetGen(w http.ResponseWriter, gen uint64) {
	if gen > 0 {
		w.Header().Set(httpapi.GenerationHeader, strconv.FormatUint(gen, 10))
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, &httpapi.ErrorResponse{Error: httpapi.ErrorBody{Code: code, Message: msg}})
}
