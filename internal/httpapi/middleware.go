package httpapi

import (
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"authtext/internal/obs"
	"authtext/internal/wire"
)

// Request instrumentation: a handler built with a metric registry and/or a
// request logger is wrapped so every request (except the /v1/metrics
// scrape itself — instrumenting it would make every scrape move the very
// series it reads, and the golden fixture test relies on scrapes being
// side-effect-free) is counted, timed, logged, and stamped with a request
// ID. docs/OBSERVABILITY.md documents the conventions.

// RequestIDHeader carries the request ID: honored from the client when
// present (sanitized, capped) so IDs can propagate through proxies, minted
// otherwise, and always echoed on the response.
const RequestIDHeader = "X-Request-ID"

// maxRequestIDLen caps an accepted inbound request ID.
const maxRequestIDLen = 128

// HandlerOpt customises NewHandler.
type HandlerOpt func(*handlerConfig)

type handlerConfig struct {
	reg       *obs.Registry
	log       *slog.Logger
	endpoints Endpoints
}

// WithMetricsRegistry serves reg at /v1/metrics and records the request
// instruments (authtext_http_*) on it.
func WithMetricsRegistry(reg *obs.Registry) HandlerOpt {
	return func(c *handlerConfig) { c.reg = reg }
}

// WithRequestLog emits one structured log record per request to logger.
func WithRequestLog(logger *slog.Logger) HandlerOpt {
	return func(c *handlerConfig) { c.log = logger }
}

// Endpoint label values for the request metrics. Unknown paths share one
// label so request floods against random paths cannot mint unbounded
// series.
const (
	endpointOther = "other"
)

var endpointNames = map[string]string{
	PathSearch:        "search",
	PathManifest:      "manifest",
	PathHealthz:       "healthz",
	PathShardSearch:   "shards_search",
	PathShardManifest: "shards_manifest",
	PathAdminUpdate:   "admin_update",
}

func endpointForPath(path string) string {
	if name, ok := endpointNames[path]; ok {
		return name
	}
	return endpointOther
}

// Metric names and help of the request instruments.
const (
	nameRequests  = "authtext_http_requests_total"
	helpRequests  = "HTTP requests served, by endpoint and status code."
	nameLatency   = "authtext_http_request_seconds"
	helpLatency   = "HTTP request wall time (seconds), by endpoint."
	nameStage     = "authtext_search_stage_seconds"
	helpStage     = "Per-stage server cost decomposition of one search (seconds)."
	nameRespBytes = "authtext_http_response_bytes_total"
	helpRespBytes = "HTTP response body bytes written, by endpoint."
	nameFrames    = "authtext_wire_frames_total"
	helpFrames    = "Negotiable (search/manifest) response bodies served, by content type."
	nameSections  = "authtext_wire_sections_total"
	helpSections  = "Document bodies, exports and proofs in compressible binary frames, by what encoding them cost: " +
		"memo_hit = remembered stream, deflated = compressor ran, stored = entropy estimate kept it from the compressor."
	nameDictAttached = "authtext_wire_dictionaries_attached_total"
	helpDictAttached = "Binary frames that carried their collection dictionary in full, because the request did not name it."
	nameHeldHits     = "authtext_wire_held_hits_total"
	helpHeldHits     = "Hits of binary search frames, by how they went: reference = the digest of a body the request's summary holds, body = the body."
)

// Negotiated content-type label values of authtext_wire_frames_total.
const (
	negotiatedJSON   = "json"
	negotiatedBinary = "binary"
)

// httpInstruments holds the pre-bound request instruments of one handler.
type httpInstruments struct {
	reg        *obs.Registry
	latency    map[string]*obs.Histogram
	respBytes  map[string]*obs.Counter
	wireEncode *obs.Histogram
	frames     map[string]*obs.Counter
}

// newHTTPInstruments pre-registers every series the handler can emit for
// its registered endpoints, so the catalog is complete (zero-valued) from
// the first scrape and the hot path never takes the registry lock for
// latency observations.
func newHTTPInstruments(reg *obs.Registry, endpoints []string) *httpInstruments {
	ins := &httpInstruments{
		reg:       reg,
		latency:   make(map[string]*obs.Histogram, len(endpoints)+1),
		respBytes: make(map[string]*obs.Counter, len(endpoints)+1),
	}
	for _, ep := range append(endpoints, endpointOther) {
		ins.latency[ep] = reg.Histogram(nameLatency, helpLatency, obs.DefLatencyBuckets, obs.L("endpoint", ep))
		ins.respBytes[ep] = reg.Counter(nameRespBytes, helpRespBytes, obs.L("endpoint", ep))
		reg.Counter(nameRequests, helpRequests, obs.L("endpoint", ep), obs.L("code", "200"))
	}
	ins.wireEncode = reg.Histogram(nameStage, helpStage, obs.DefLatencyBuckets, obs.L("stage", "wire_encode"))
	ins.frames = map[string]*obs.Counter{
		negotiatedJSON:   reg.Counter(nameFrames, helpFrames, obs.L("content_type", negotiatedJSON)),
		negotiatedBinary: reg.Counter(nameFrames, helpFrames, obs.L("content_type", negotiatedBinary)),
	}
	// The section counts are the wire package's process-wide atomics, read
	// from where they stood when this registry's handler was built, so that
	// they start at zero like every other series in it.
	base := wire.Sections()
	for outcome, get := range map[string]func(wire.SectionStats) uint64{
		"memo_hit": func(s wire.SectionStats) uint64 { return s.MemoHit - base.MemoHit },
		"deflated": func(s wire.SectionStats) uint64 { return s.Deflated - base.Deflated },
		"stored":   func(s wire.SectionStats) uint64 { return s.Stored - base.Stored },
	} {
		reg.CounterFunc(nameSections, helpSections,
			func() float64 { return float64(get(wire.Sections())) }, obs.L("outcome", outcome))
	}
	attached := wire.Dictionaries().Attached
	reg.CounterFunc(nameDictAttached, helpDictAttached,
		func() float64 { return float64(wire.Dictionaries().Attached - attached) })
	held := wire.HeldHits()
	reg.CounterFunc(nameHeldHits, helpHeldHits,
		func() float64 { return float64(wire.HeldHits().Referenced - held.Referenced) }, obs.L("sent", "reference"))
	reg.CounterFunc(nameHeldHits, helpHeldHits,
		func() float64 { return float64(wire.HeldHits().Sent - held.Sent) }, obs.L("sent", "body"))
	return ins
}

func (ins *httpInstruments) observe(endpoint string, rr *respRecorder, wall time.Duration) {
	// Status codes are a small dynamic set, so the counter is looked up per
	// request (one mutex-guarded map hit); latency handles are pre-bound.
	ins.reg.Counter(nameRequests, helpRequests,
		obs.L("endpoint", endpoint), obs.L("code", strconv.Itoa(rr.status))).Inc()
	ins.latency[endpoint].Observe(wall.Seconds())
	ins.respBytes[endpoint].Add(uint64(rr.bytes))
	if rr.encode > 0 {
		ins.wireEncode.Observe(rr.encode.Seconds())
	}
	if c := ins.frames[rr.negotiated]; c != nil {
		c.Inc()
	}
}

// respRecorder captures what the wrapped handler wrote: final status, body
// bytes, and the time writeJSON spent JSON-encoding (the wire_encode
// stage).
type respRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
	encode time.Duration
	// negotiated is the content type of a negotiable (search/manifest)
	// success body — "json" or "binary" — and empty for everything else
	// (errors, healthz, updates), which the frames counter ignores.
	negotiated string
}

func (rr *respRecorder) WriteHeader(code int) {
	if rr.status == 0 {
		rr.status = code
	}
	rr.ResponseWriter.WriteHeader(code)
}

func (rr *respRecorder) Write(p []byte) (int, error) {
	if rr.status == 0 {
		rr.status = http.StatusOK
	}
	n, err := rr.ResponseWriter.Write(p)
	rr.bytes += n
	return n, err
}

// Unwrap exposes the wrapped writer to http.ResponseController, so
// Flusher/Hijacker/deadline capabilities of the underlying connection
// survive the instrumentation wrap.
func (rr *respRecorder) Unwrap() http.ResponseWriter { return rr.ResponseWriter }

// instrument wraps next with request-ID handling plus (when configured)
// metrics and logging.
func instrument(next http.Handler, ins *httpInstruments, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ins != nil && r.URL.Path == PathMetrics {
			// A registry is mounted here: serve the scrape uninstrumented.
			// Without one the path is an ordinary 404 and is logged and
			// stamped like any other unknown path.
			next.ServeHTTP(w, r)
			return
		}
		id := requestID(r)
		w.Header().Set(RequestIDHeader, id)
		rr := &respRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rr, r)
		wall := time.Since(start)
		if rr.status == 0 {
			// Nothing was written; net/http sends 200 on return.
			rr.status = http.StatusOK
		}
		endpoint := endpointForPath(r.URL.Path)
		if ins != nil {
			ins.observe(endpoint, rr, wall)
		}
		if logger != nil {
			logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("request_id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("endpoint", endpoint),
				slog.Int("status", rr.status),
				slog.Int("bytes", rr.bytes),
				slog.Duration("duration", wall),
				slog.String("remote", r.RemoteAddr),
			)
		}
	})
}

// requestID returns the inbound X-Request-ID when it is usable (printable
// ASCII, bounded length), or mints a fresh 16-hex-digit ID.
func requestID(r *http.Request) string {
	if id := r.Header.Get(RequestIDHeader); id != "" && len(id) <= maxRequestIDLen && printableASCII(id) {
		return id
	}
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(buf[:])
}

func printableASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x21 || s[i] > 0x7e {
			return false
		}
	}
	return true
}
