package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"authtext/internal/wire"
)

// FrameContentType is the negotiated binary media type
// (wire.ContentType re-exported for callers that only import httpapi).
const FrameContentType = wire.ContentType

// Backend is the search engine behind a Handler. Implementations must be
// safe for concurrent use; the adapter in the root authtext package wraps
// an authtext.Server.
type Backend interface {
	// Search answers one validated query, with the collection dictionary
	// of the generation that answered (nil: frames deflate bodies from an
	// empty history). Returning a *StatusError controls the HTTP status and
	// wire code; any other error maps to 500/search_failed.
	Search(req *SearchRequest) (*SearchResponse, *wire.Dictionary, error)
	// ClientExport returns the ATCX verification blob served at
	// /v1/manifest and, for a depth in [1, MaxCap], the proof cap of that
	// depth of the same generation (nil: the deployment serves none).
	ClientExport(cap int) (export, capBytes []byte, err error)
	// Health returns the current healthz payload.
	Health() Health
}

// Endpoints is the explicit description of what a deployment serves on top
// of the base Backend surface. NewHandler registers exactly the endpoint
// families named here; nothing is discovered from the backend's method set,
// so one adapter can stand behind every deployment shape and a family a
// shape does not serve answers 404 like any unknown path.
type Endpoints struct {
	// ShardSearch and ShardExport (set together) register the sharded
	// family: /v1/shards/search answers one validated query with per-shard
	// responses plus the merged global ranking (and the set's dictionary,
	// as Backend.Search), /v1/shards/manifest serves the ATSX blob.
	ShardSearch func(req *SearchRequest) (*ShardedSearchResponse, *wire.Dictionary, error)
	ShardExport func() ([]byte, error)
	// Update registers /v1/admin/update: it applies one validated
	// add/remove batch as a single generation change. A serving-only live
	// deployment (snapshot replica) sets it too and rejects updates with a
	// *StatusError, so the endpoint exists wherever generations move.
	Update func(req *UpdateRequest) (*UpdateResponse, error)
	// Generation reports the currently served publication generation. The
	// handler stamps it into the GenerationHeader of manifest responses —
	// whose payload carries no generation of its own — so a fleet front end
	// can route generation-consistently without decoding bodies (0
	// suppresses the header).
	Generation func() uint64
}

// WithEndpoints declares the optional endpoint families the backend serves.
func WithEndpoints(e Endpoints) HandlerOpt {
	return func(c *handlerConfig) { c.endpoints = e }
}

// setGenHeader stamps the generation routing hint; 0 means "static
// deployment", which omits the header entirely.
func setGenHeader(w http.ResponseWriter, gen uint64) {
	if gen > 0 {
		w.Header().Set(GenerationHeader, strconv.FormatUint(gen, 10))
	}
}

// NewHandler wires the /v1 endpoints onto a Backend, plus the families
// WithEndpoints declares. Every response body — including errors — is a
// JSON document. Options also attach a metric registry (served at
// /v1/metrics, with every request counted and timed) and a structured
// request logger (middleware.go).
func NewHandler(b Backend, opts ...HandlerOpt) http.Handler {
	var cfg handlerConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	e := cfg.endpoints
	manifestGen := func(w http.ResponseWriter) {
		if e.Generation != nil {
			setGenHeader(w, e.Generation())
		}
	}
	endpoints := []string{"search", "manifest", "healthz"}
	mux := http.NewServeMux()
	mux.HandleFunc(PathSearch, func(w http.ResponseWriter, r *http.Request) {
		req, ok := readSearchRequest(w, r)
		if !ok {
			return
		}
		resp, dict, err := b.Search(req)
		if err != nil {
			writeError(w, err, CodeSearchFailed, http.StatusInternalServerError)
			return
		}
		setGenHeader(w, resp.Generation)
		writeData(w, r, resp, func() []byte { return encoding(r, dict).SearchResponse(resp) })
	})
	if e.ShardSearch != nil {
		endpoints = append(endpoints, "shards_search", "shards_manifest")
		mux.HandleFunc(PathShardSearch, func(w http.ResponseWriter, r *http.Request) {
			req, ok := readSearchRequest(w, r)
			if !ok {
				return
			}
			if req.Cap != 0 {
				writeErrorBody(w, http.StatusBadRequest, CodeBadCap, unCut)
				return
			}
			resp, dict, err := e.ShardSearch(req)
			if err != nil {
				writeError(w, err, CodeSearchFailed, http.StatusInternalServerError)
				return
			}
			setGenHeader(w, resp.Generation)
			writeData(w, r, resp, func() []byte { return encoding(r, dict).ShardedSearchResponse(resp) })
		})
		mux.HandleFunc(PathShardManifest, func(w http.ResponseWriter, r *http.Request) {
			if !allowMethod(w, r, http.MethodGet) {
				return
			}
			depth, ok := readCap(w, r)
			if !ok {
				return
			}
			if depth != 0 {
				writeErrorBody(w, http.StatusBadRequest, CodeBadCap, unCut)
				return
			}
			export, err := e.ShardExport()
			if err != nil {
				writeError(w, err, CodeUnavailable, http.StatusServiceUnavailable)
				return
			}
			manifestGen(w)
			m := &ManifestResponse{Format: FormatATSX, Export: export}
			writeData(w, r, m, func() []byte { return wire.EncodeManifestResponse(m) })
		})
	}
	if e.Update != nil {
		endpoints = append(endpoints, "admin_update")
		mux.HandleFunc(PathAdminUpdate, func(w http.ResponseWriter, r *http.Request) {
			if !allowMethod(w, r, http.MethodPost) {
				return
			}
			var req UpdateRequest
			if !decodeBodyCapped(w, r, &req, MaxUpdateBodyBytes) {
				return
			}
			if err := req.Validate(); err != nil {
				writeErrorBody(w, http.StatusBadRequest, CodeBadRequest, err.Error())
				return
			}
			resp, err := e.Update(&req)
			if err != nil {
				writeError(w, err, CodeUpdateFailed, http.StatusConflict)
				return
			}
			writeJSON(w, http.StatusOK, resp)
		})
	}
	mux.HandleFunc(PathManifest, func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodGet) {
			return
		}
		depth, ok := readCap(w, r)
		if !ok {
			return
		}
		export, capBytes, err := b.ClientExport(depth)
		if err != nil {
			writeError(w, err, CodeUnavailable, http.StatusServiceUnavailable)
			return
		}
		manifestGen(w)
		m := &ManifestResponse{Format: FormatATCX, Export: export, Cap: capBytes}
		writeData(w, r, m, func() []byte { return wire.EncodeManifestResponse(m) })
	})
	mux.HandleFunc(PathHealthz, func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodGet) {
			return
		}
		h := b.Health()
		setGenHeader(w, h.Generation)
		writeJSON(w, http.StatusOK, h)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErrorBody(w, http.StatusNotFound, CodeNotFound, "no such endpoint: "+r.URL.Path)
	})
	var ins *httpInstruments
	if cfg.reg != nil {
		mux.Handle(PathMetrics, cfg.reg.Handler())
		ins = newHTTPInstruments(cfg.reg, endpoints)
	}
	if ins == nil && cfg.log == nil {
		return mux
	}
	return instrument(mux, ins, cfg.log)
}

// acceptsFrame reports whether the request opted into the binary framing:
// its Accept header lists the frame media type. Negotiation is strictly
// opt-in — absent, empty, wildcard-only or unparsable Accept values all
// keep the JSON default, so existing clients cannot be surprised.
func acceptsFrame(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			mediaType, _, _ := strings.Cut(part, ";")
			if strings.EqualFold(strings.TrimSpace(mediaType), wire.ContentType) {
				return true
			}
		}
	}
	return false
}

// encoding deflates bodies against dict, attached unless the request names
// it among the dictionaries its client holds (DictionaryHeader), and refers
// to the bodies the request's summary holds (HeldHeader). A frame is
// therefore a pure function of the answer, the dictionary and those headers.
func encoding(r *http.Request, dict *wire.Dictionary) wire.Encoding {
	return wire.Encoding{Dict: dict, Attach: dict != nil && !namesDictionary(r, dict.ID()), Held: heldSummary(r)}
}

// heldSummary reads the request's HeldHeader: nil unless it is exactly one
// well-formed summary.
func heldSummary(r *http.Request) *wire.HeldSummary {
	if vs := r.Header.Values(HeldHeader); len(vs) == 1 {
		return wire.ParseHeldSummary(vs[0])
	}
	return nil
}

// namesDictionary reports whether the request's DictionaryHeader lists id
// among its first wire.MaxHeldDictionaries entries.
func namesDictionary(r *http.Request, id string) bool {
	n := 0
	for _, v := range r.Header.Values(DictionaryHeader) {
		for v != "" && n < wire.MaxHeldDictionaries {
			var name string
			name, v, _ = strings.Cut(v, ",")
			if strings.EqualFold(strings.TrimSpace(name), id) {
				return true
			}
			n++
		}
	}
	return false
}

// writeData writes a 200 payload in the negotiated representation: a
// binary frame when the request accepted one, the JSON encoding (the
// default) otherwise. Errors never take this path — they are always JSON,
// so failures stay debuggable with nothing but curl.
func writeData(w http.ResponseWriter, r *http.Request, v interface{}, frame func() []byte) {
	if !acceptsFrame(r) {
		writeJSON(w, http.StatusOK, v)
		if rr, ok := w.(*respRecorder); ok {
			rr.negotiated = negotiatedJSON
		}
		return
	}
	start := time.Now()
	b := frame()
	encode := time.Since(start)
	w.Header().Set("Content-Type", wire.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	if rr, ok := w.(*respRecorder); ok {
		// The wire_encode stage: binary framing of the response body.
		rr.encode += encode
		rr.negotiated = negotiatedBinary
	}
}

// unCut is why the sharded endpoints refuse a cap.
const unCut = "sharded answers are not cut: ask without a cap"

// checkCap reports a proof-cap depth outside [0, MaxCap] as the 400 with
// CodeBadCap, written by the caller.
func checkCap(depth int) error {
	if depth < 0 || depth > MaxCap {
		return fmt.Errorf("cap=%d out of range [0, %d]", depth, MaxCap)
	}
	return nil
}

// readCap parses a ?cap= query parameter (absent: 0), writing the error
// response itself when it is unusable.
func readCap(w http.ResponseWriter, r *http.Request) (int, bool) {
	cs := r.URL.Query().Get("cap")
	if cs == "" {
		return 0, true
	}
	depth, err := strconv.Atoi(cs)
	if err == nil {
		err = checkCap(depth)
	}
	if err != nil {
		writeErrorBody(w, http.StatusBadRequest, CodeBadCap, "bad cap parameter: "+err.Error())
		return 0, false
	}
	return depth, true
}

// readSearchRequest parses and validates a search request from POST (JSON
// body) or GET (q, r, algo, scheme, cap query parameters), writing the
// error response itself when the request is unusable.
func readSearchRequest(w http.ResponseWriter, r *http.Request) (*SearchRequest, bool) {
	var req SearchRequest
	switch r.Method {
	case http.MethodPost:
		if !decodeBody(w, r, &req) {
			return nil, false
		}
	case http.MethodGet:
		q := r.URL.Query()
		req.Query = q.Get("q")
		req.Algo = q.Get("algo")
		req.Scheme = q.Get("scheme")
		if rs := q.Get("r"); rs != "" {
			n, err := strconv.Atoi(rs)
			if err != nil {
				writeErrorBody(w, http.StatusBadRequest, CodeBadRequest, "bad r parameter: "+rs)
				return nil, false
			}
			req.R = n
		}
		var ok bool
		if req.Cap, ok = readCap(w, r); !ok {
			return nil, false
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		writeErrorBody(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, r.Method+" not allowed")
		return nil, false
	}
	if err := checkCap(req.Cap); err != nil {
		writeErrorBody(w, http.StatusBadRequest, CodeBadCap, err.Error())
		return nil, false
	}
	if err := req.Validate(); err != nil {
		writeErrorBody(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return nil, false
	}
	return &req, true
}

// decodeBody parses a size-capped JSON POST body into v, rejecting unknown
// fields and trailing data, writing the error response itself on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	return decodeBodyCapped(w, r, v, MaxBodyBytes)
}

func decodeBodyCapped(w http.ResponseWriter, r *http.Request, v interface{}, limit int64) bool {
	body := http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErrorBody(w, http.StatusBadRequest, CodeBadRequest, "bad request body: "+err.Error())
		return false
	}
	if dec.More() {
		writeErrorBody(w, http.StatusBadRequest, CodeBadRequest, "trailing data after request object")
		return false
	}
	return true
}

func allowMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	writeErrorBody(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, r.Method+" not allowed")
	return false
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	start := time.Now()
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is gone; nothing left to report to
	if rr, ok := w.(*respRecorder); ok {
		// The wire_encode stage: JSON serialisation of the response body.
		rr.encode += time.Since(start)
	}
}

// writeError maps an error to the wire: *StatusError chooses its own
// status and code, everything else gets the supplied defaults.
func writeError(w http.ResponseWriter, err error, defaultCode string, defaultStatus int) {
	var se *StatusError
	if errors.As(err, &se) {
		writeErrorBody(w, se.Status, se.Code, se.Message)
		return
	}
	writeErrorBody(w, defaultStatus, defaultCode, err.Error())
}

func writeErrorBody(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, &ErrorResponse{Error: ErrorBody{Code: code, Message: msg}})
}

// ReadErrorResponse decodes an error envelope from a response body,
// returning a generic message when the body is not a well-formed envelope
// (e.g. the server is not an authserved at all).
func ReadErrorResponse(status int, body io.Reader) *StatusError {
	var env ErrorResponse
	if err := json.NewDecoder(io.LimitReader(body, MaxBodyBytes)).Decode(&env); err != nil || env.Error.Code == "" {
		return &StatusError{Status: status, Code: CodeInternal, Message: http.StatusText(status)}
	}
	return &StatusError{Status: status, Code: env.Error.Code, Message: env.Error.Message}
}
