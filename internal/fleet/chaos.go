package fleet

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"time"

	"authtext/internal/httpapi"
)

// FaultMode selects the failure a ChaosProxy injects. All modes model
// AVAILABILITY faults — the kinds of damage a flaky network or a dying
// replica inflicts — and none of them can forge verifiable data, so a
// correct client must classify every one of them as unavailability,
// never as tampering. The fleet test battery pins exactly that.
type FaultMode int32

const (
	// Pass forwards requests untouched.
	Pass FaultMode = iota
	// Drop aborts the connection before any response bytes are written
	// (the client sees a connection reset / EOF).
	Drop
	// Delay holds every request for the configured duration, then
	// forwards it (drives client and front-end timeouts).
	Delay
	// Err500 answers 500/internal without contacting the backend.
	Err500
	// Err503 answers 503/unavailable without contacting the backend.
	Err503
	// Truncate forwards the backend's headers (with the full
	// Content-Length) but writes only half the body before aborting the
	// connection — the client sees an unexpected EOF mid-body, the
	// classic mid-transfer crash.
	Truncate
)

// ChaosProxy is an httptest-backed fault-injection proxy in front of one
// replica, reused by the fleet tests: point a Frontend or a client at
// URL(), flip the mode per test phase, and count what got through. The
// zero fault mode (Pass) forwards transparently, including the binary
// frame negotiation and the generation header.
type ChaosProxy struct {
	target string
	hc     *http.Client
	srv    *httptest.Server

	mode  atomic.Int32
	delay atomic.Int64 // nanoseconds, for Delay

	requests atomic.Int64
	faults   atomic.Int64
}

// NewChaosProxy starts a proxy in front of target (a base URL). Close it
// when done.
func NewChaosProxy(target string) *ChaosProxy {
	p := &ChaosProxy{
		target: target,
		hc:     &http.Client{Timeout: 30 * time.Second},
	}
	p.delay.Store(int64(50 * time.Millisecond))
	p.srv = httptest.NewServer(http.HandlerFunc(p.serve))
	return p
}

// URL returns the proxy's base URL.
func (p *ChaosProxy) URL() string { return p.srv.URL }

// SetMode switches the injected fault for subsequent requests.
func (p *ChaosProxy) SetMode(m FaultMode) { p.mode.Store(int32(m)) }

// Mode returns the current fault mode.
func (p *ChaosProxy) Mode() FaultMode { return FaultMode(p.mode.Load()) }

// SetDelay sets the hold time used by Delay mode.
func (p *ChaosProxy) SetDelay(d time.Duration) { p.delay.Store(int64(d)) }

// Requests returns the number of requests that reached the proxy.
func (p *ChaosProxy) Requests() int64 { return p.requests.Load() }

// Faults returns the number of requests that had a fault injected.
func (p *ChaosProxy) Faults() int64 { return p.faults.Load() }

// Close shuts the proxy down.
func (p *ChaosProxy) Close() { p.srv.CloseClientConnections(); p.srv.Close() }

func (p *ChaosProxy) serve(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	switch FaultMode(p.mode.Load()) {
	case Drop:
		p.faults.Add(1)
		// ErrAbortHandler makes net/http sever the connection without
		// writing a response: the client observes a reset/EOF, the plain
		// transport failure a crashed replica produces.
		panic(http.ErrAbortHandler)
	case Err500:
		p.faults.Add(1)
		writeError(w, http.StatusInternalServerError, "internal", "chaos: injected 500")
		return
	case Err503:
		p.faults.Add(1)
		writeError(w, http.StatusServiceUnavailable, "unavailable", "chaos: injected 503")
		return
	case Delay:
		p.faults.Add(1)
		time.Sleep(time.Duration(p.delay.Load()))
	}

	body, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBody+1))
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	if len(body) > maxProxyBody {
		writeError(w, http.StatusRequestEntityTooLarge, httpapi.CodeBadRequest, "request body too large")
		return
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method,
		p.target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	copyHeader(out.Header, r.Header, "Accept")
	copyHeader(out.Header, r.Header, "Content-Type")
	copyHeader(out.Header, r.Header, httpapi.DictionaryHeader)
	copyHeader(out.Header, r.Header, httpapi.HeldHeader)
	resp, err := p.hc.Do(out)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	copyHeader(w.Header(), resp.Header, "Content-Type")
	copyHeader(w.Header(), resp.Header, httpapi.GenerationHeader)
	if FaultMode(p.mode.Load()) == Truncate && len(rb) > 1 {
		p.faults.Add(1)
		// Promise the full length, deliver half, then kill the
		// connection: the client's read fails with unexpected EOF before
		// any decode is attempted.
		w.Header().Set("Content-Length", strconv.Itoa(len(rb)))
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(rb[:len(rb)/2])
		// Force the half-body onto the wire before severing the
		// connection; otherwise it dies in the server's write buffer and
		// the client sees a pre-response EOF (Drop) instead of a mid-body
		// one.
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(rb)
}
