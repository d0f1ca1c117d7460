package authtext

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"authtext/internal/core"
	"authtext/internal/httpapi"
	"authtext/internal/wire"
)

// RemoteClient verifies search results received over HTTP from an
// untrusted authserved instance. It fetches the owner's signed manifest
// and public key once (from /v1/manifest, or injected out of band via
// WithClientExport), then every Search answer — hits, contents, scores,
// and VO — is verified locally before it is returned, exactly as if the
// result had been produced in-process. A server, proxy, or
// man-in-the-middle that rewrites any part of a response is detected by
// verification (IsTampered reports true for the returned error), not
// trusted transport: plain HTTP is sufficient for integrity, though TLS is
// still needed for confidentiality.
type RemoteClient struct {
	remoteConn[*Client]
}

// remoteOptions is what a RemoteOption can set.
type remoteOptions struct {
	hc      *http.Client
	metrics *Metrics
	export  []byte
}

// RemoteOption customises NewRemoteClient and NewShardedRemoteClient.
type RemoteOption func(*remoteOptions)

// defaultHTTPTimeout bounds every request a remote client makes with the
// default transport: the server is untrusted, and a stalled or black-holed
// endpoint must fail the call, not hang the verifier forever.
const defaultHTTPTimeout = 30 * time.Second

// defaultHTTPClient builds the transport used when the caller supplies
// none. The transport is tuned for the verifier's traffic shape — many
// small request/response pairs against one or a few hosts — so connections
// are kept alive and reused instead of re-dialled per call:
// http.DefaultTransport caps idle connections per host at 2, which forces
// reconnects (and, under TLS, re-handshakes) as soon as a sharded client
// or batch workload fans out.
func defaultHTTPClient() *http.Client {
	return &http.Client{
		Timeout: defaultHTTPTimeout,
		Transport: &http.Transport{
			Proxy: http.ProxyFromEnvironment,
			DialContext: (&net.Dialer{
				Timeout:   10 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			ForceAttemptHTTP2:     true,
			MaxIdleConns:          256,
			MaxIdleConnsPerHost:   128,
			IdleConnTimeout:       90 * time.Second,
			TLSHandshakeTimeout:   10 * time.Second,
			ExpectContinueTimeout: 1 * time.Second,
		},
	}
}

// WithHTTPClient substitutes the transport (default: defaultHTTPClient,
// which enforces a 30 s overall timeout).
func WithHTTPClient(hc *http.Client) RemoteOption { return func(o *remoteOptions) { o.hc = hc } }

// WithClientMetrics records client-side verification latency
// (authtext_client_verify_seconds) and tamper rejections
// (authtext_client_tamper_rejections_total) in m, making the paper's
// three-party cost split — server, transport, verifier — observable end to
// end. On a sharded client the verify histogram covers the complete
// fan-out check (every shard's VO plus the merge recomputation). The
// registry may be a fresh NewMetrics or one shared with a server in the
// same process.
func WithClientMetrics(m *Metrics) RemoteOption { return func(o *remoteOptions) { o.metrics = m } }

// WithClientExport seeds the verification material from an out-of-band
// copy of the owner's export — ATCX for a RemoteClient, ATSX for a
// ShardedRemoteClient, told apart by their magic — instead of fetching it
// from the server. Use it when the owner distributes the export through a
// channel the server cannot influence (the stronger deployment, see
// docs/PROTOCOL.md).
func WithClientExport(export []byte) RemoteOption {
	return func(o *remoteOptions) { o.export = export }
}

// NewRemoteClient prepares a client for the authserved instance at
// baseURL (scheme + host[:port], e.g. "http://127.0.0.1:8080"). No
// network traffic happens until the first call.
func NewRemoteClient(baseURL string, opts ...RemoteOption) (*RemoteClient, error) {
	rc := &RemoteClient{}
	err := rc.dial(baseURL, httpapi.PathManifest, httpapi.FormatATCX, NewClientFromExport, opts)
	if err != nil {
		return nil, err
	}
	return rc, nil
}

// transport is the HTTP half of a remote connection: where the server is,
// how to reach it, and what its responses are recorded into.
type transport struct {
	base string
	hc   *http.Client
	// metrics, when non-nil, records wire decode and verify latency and
	// tamper rejections (WithClientMetrics).
	metrics *Metrics
	// noBinary latches after a server answers 406 to the binary-frame
	// offer: every later request from this client goes straight to JSON
	// instead of re-offering per call (docs/PROTOCOL.md "Binary framing").
	noBinary atomic.Bool
}

// manifestHolder is the verification half a connection bootstraps and
// advances: a *Client or a *ShardedClient.
type manifestHolder interface {
	comparable
	Generation() uint64
	AdvanceExport(data []byte) error
}

// remoteConn is everything RemoteClient and ShardedRemoteClient share: the
// transport, the lazily bootstrapped verification half, and the
// generation-race handling of ask. What differs per client is only which
// manifest endpoint and export format it speaks.
type remoteConn[C manifestHolder] struct {
	transport
	manifestPath string // /v1/manifest or /v1/shards/manifest
	format       string // httpapi.FormatATCX or FormatATSX
	parse        func(export []byte) (C, error)

	mu     sync.Mutex
	client C // verification half, zero until bootstrapped
}

// exportFormat tells the two export formats apart by their magic.
func exportFormat(export []byte) string {
	switch {
	case bytes.HasPrefix(export, []byte(exportMagic)):
		return httpapi.FormatATCX
	case bytes.HasPrefix(export, []byte(shardedExportMagic)):
		return httpapi.FormatATSX
	}
	return "unknown"
}

func (c *remoteConn[C]) dial(baseURL, manifestPath, format string, parse func([]byte) (C, error), opts []RemoteOption) error {
	u, err := url.Parse(strings.TrimRight(baseURL, "/"))
	if err != nil {
		return fmt.Errorf("authtext: bad server URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("authtext: bad server URL %q: scheme must be http or https", baseURL)
	}
	o := remoteOptions{hc: defaultHTTPClient()}
	for _, opt := range opts {
		opt(&o)
	}
	c.base, c.hc, c.metrics = u.String(), o.hc, o.metrics
	c.manifestPath, c.format, c.parse = manifestPath, format, parse
	if o.export != nil {
		if got := exportFormat(o.export); got != format {
			return fmt.Errorf("authtext: out-of-band export is %s, this client verifies %s", got, format)
		}
		c.client, err = parse(o.export)
	}
	return err
}

// Bootstrap fetches and verifies the owner's manifest now instead of
// lazily on the first Search. The manifest signature is checked against
// the embedded public key before it is accepted.
func (c *remoteConn[C]) Bootstrap(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bootstrapLocked(ctx)
}

func (c *remoteConn[C]) bootstrapLocked(ctx context.Context) error {
	var unset C
	if c.client != unset {
		return nil
	}
	export, err := c.fetchExport(ctx)
	if err != nil {
		return err
	}
	client, err := c.parse(export)
	if err != nil {
		return err
	}
	c.client = client
	return nil
}

// fetchExport retrieves the manifest endpoint's export blob.
func (c *remoteConn[C]) fetchExport(ctx context.Context) ([]byte, error) {
	m, err := roundTrip(ctx, &c.transport, http.MethodGet, c.manifestPath, nil, wire.DecodeManifestResponse)
	if err != nil {
		return nil, err
	}
	if m.Format != c.format {
		return nil, fmt.Errorf("authtext: server manifest format %q not supported (want %q)", m.Format, c.format)
	}
	return m.Export, nil
}

// Generation returns the publication generation this client currently
// verifies against (0 before bootstrap or for static collections). It
// only moves forward: a server that presents an older generation is
// rejected with ErrStaleGeneration.
func (c *remoteConn[C]) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var unset C
	if c.client == unset {
		return 0
	}
	return c.client.Generation()
}

// ask posts req to path and returns the decoded answer together with the
// verification half to check it against, once the two agree on a
// generation. generation reads the generation an answer claims (0: none —
// a static server, or a batch of per-query errors).
//
// When an answer claims a NEWER generation than the client holds, the
// client advances to the server's current manifest first; AdvanceExport
// enforces the trust rules (the new manifest must verify against the
// PINNED key and must not regress). Claims of OLDER generations are not
// acted on — verification rejects them as stale via the VO stamp.
//
// Up to two retries absorb honest generation races: if the collection
// is updated between the search response and the manifest refresh,
// the answer is older than the manifest we now hold and would fail
// verification as stale — re-asking gets a current-generation answer
// from an honest server, while a rolled-back server keeps answering
// old generations and still ends in ErrStaleGeneration.
//
// Behind a fleet front end the race has a second shape: the search
// answer and the manifest refresh can land on DIFFERENT replicas, and
// the manifest replica may lag the answering one mid-swap. Then the
// refresh leaves the client behind the answer (or reports staleness
// itself), still an honest race — so the retry condition compares the
// two generations in both directions, and a stale manifest fetch is
// retried rather than reported, as long as budget remains. A genuinely
// rolled-back or equivocating fleet keeps failing and still ends in
// ErrStaleGeneration after the budget.
func ask[C manifestHolder, T any](ctx context.Context, c *remoteConn[C], path string, req any,
	fromFrame func([]byte) (*T, error), generation func(*T) uint64) (*T, C, error) {
	var none C
	c.mu.Lock()
	err := c.bootstrapLocked(ctx)
	client := c.client
	c.mu.Unlock()
	if err != nil {
		return nil, none, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, none, err
	}
	for attempt := 0; ; attempt++ {
		answer, err := roundTrip(ctx, &c.transport, http.MethodPost, path, body, fromFrame)
		if err != nil {
			return nil, none, err
		}
		gen := generation(answer)
		if gen > client.Generation() {
			export, err := c.fetchExport(ctx)
			if err == nil {
				err = client.AdvanceExport(export)
			}
			if errors.Is(err, ErrStaleGeneration) && attempt < 2 {
				continue
			}
			if err != nil {
				return nil, none, err
			}
		}
		if gen != 0 && gen != client.Generation() && attempt < 2 {
			continue
		}
		return answer, client, nil
	}
}

// checkR validates a result size locally: r's zero value is "unset" on the
// wire, so sending r<1 would make an honest server answer with its default
// and the mismatch would misclassify as tampering during verification.
func checkR(r int) error {
	if r < 1 || r > httpapi.MaxR {
		return fmt.Errorf("authtext: result size r=%d out of range [1, %d]", r, httpapi.MaxR)
	}
	return nil
}

// Search asks the server for the top-r documents and verifies the answer
// locally against the owner's manifest — using the parameters this client
// asked for, never the server's echo. It returns the result only if
// verification succeeds; otherwise the error explains the violation and
// IsTampered reports whether it indicates server misbehaviour.
func (rc *RemoteClient) Search(ctx context.Context, query string, r int, algo Algorithm, scheme Scheme) (*SearchResult, error) {
	if err := checkR(r); err != nil {
		return nil, err
	}
	sr, client, err := ask(ctx, &rc.remoteConn, httpapi.PathSearch,
		&httpapi.SearchRequest{Query: query, R: r, Algo: wireAlgo(algo), Scheme: wireScheme(scheme)},
		wire.DecodeSearchResponse, func(sr *httpapi.SearchResponse) uint64 { return sr.Generation })
	if err != nil {
		return nil, err
	}
	return verifyWireResult(client, rc.metrics, sr, query, r, algo, scheme)
}

// resultFromWire converts one wire response to the facade form, labelled
// with the parameters the client asked for, never the server's echo.
func resultFromWire(wire *httpapi.SearchResponse, algo Algorithm, scheme Scheme) *SearchResult {
	res := &SearchResult{VO: wire.VO, Generation: wire.Generation, Hits: make([]Hit, len(wire.Hits))}
	for i, h := range wire.Hits {
		res.Hits[i] = Hit{DocID: h.DocID, Score: h.Score, Content: h.Content}
	}
	res.Stats = Stats{
		Algorithm:      algo,
		Scheme:         scheme,
		QueryTerms:     wire.Stats.QueryTerms,
		EntriesRead:    wire.Stats.EntriesRead,
		EntriesPerTerm: wire.Stats.EntriesPerTerm,
		PctListRead:    wire.Stats.PctListRead,
		BlockReads:     wire.Stats.BlockReads,
		RandomReads:    wire.Stats.RandomReads,
		IOTime:         StatsDuration(wire.Stats.IOMillis),
		VOBytes:        len(wire.VO),
	}
	return res
}

// verifyWireResult verifies one wire response against the bootstrapped
// manifest. m (nil-safe) records the verification cost and outcome.
func verifyWireResult(client *Client, m *Metrics, wire *httpapi.SearchResponse, query string, r int, algo Algorithm, scheme Scheme) (*SearchResult, error) {
	res := resultFromWire(wire, algo, scheme)
	verifyStart := time.Now()
	err := client.Verify(query, r, res)
	m.observeVerify(time.Since(verifyStart), err, client.verifier)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// SearchBatch sends up to httpapi.MaxBatchQueries queries in one request;
// the server executes them concurrently. Every answer is verified locally
// exactly as in Search, and per-query failures (including verification
// failures) come back in the matching BatchItem rather than failing the
// whole batch. The returned slice has one item per query, in input order.
func (rc *RemoteClient) SearchBatch(ctx context.Context, queries []BatchQuery) ([]BatchItem, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	if len(queries) > httpapi.MaxBatchQueries {
		return nil, fmt.Errorf("authtext: batch of %d queries exceeds the server maximum of %d",
			len(queries), httpapi.MaxBatchQueries)
	}
	wireReqs := make([]httpapi.SearchRequest, len(queries))
	for i, q := range queries {
		// Validate locally: the server rejects a malformed batch WHOLE, so
		// catching a bad element here (with its index) spares the good ones.
		if q.R < 1 || q.R > httpapi.MaxR {
			return nil, fmt.Errorf("authtext: query %d: result size r=%d out of range [1, %d]", i, q.R, httpapi.MaxR)
		}
		if strings.TrimSpace(q.Query) == "" {
			return nil, fmt.Errorf("authtext: query %d: empty query", i)
		}
		if len(q.Query) > httpapi.MaxQueryBytes {
			return nil, fmt.Errorf("authtext: query %d exceeds %d bytes", i, httpapi.MaxQueryBytes)
		}
		wireReqs[i] = httpapi.SearchRequest{
			Query: q.Query, R: q.R, Algo: wireAlgo(q.Algorithm), Scheme: wireScheme(q.Scheme),
		}
	}
	// A live server answers the whole batch from one generation: the batch
	// claims the newest generation any of its answers names.
	br, client, err := ask(ctx, &rc.remoteConn, httpapi.PathSearch, &httpapi.BatchSearchRequest{Queries: wireReqs},
		wire.DecodeBatchSearchResponse, func(br *httpapi.BatchSearchResponse) (gen uint64) {
			for i := range br.Results {
				if r := br.Results[i].Response; r != nil && r.Generation > gen {
					gen = r.Generation
				}
			}
			return gen
		})
	if err != nil {
		return nil, err
	}
	if len(br.Results) != len(queries) {
		return nil, fmt.Errorf("authtext: server answered %d results for %d queries", len(br.Results), len(queries))
	}
	out := make([]BatchItem, len(queries))
	for i := range br.Results {
		q := queries[i]
		switch {
		case br.Results[i].Error != nil:
			out[i].Err = fmt.Errorf("authtext: query %d: server error %s: %s",
				i, br.Results[i].Error.Code, br.Results[i].Error.Message)
		case br.Results[i].Response == nil:
			out[i].Err = fmt.Errorf("authtext: query %d: empty batch result", i)
		default:
			out[i].Result, out[i].Err = verifyWireResult(client, rc.metrics, br.Results[i].Response,
				q.Query, q.R, q.Algorithm, q.Scheme)
		}
	}
	return out, nil
}

// ServerHealth mirrors the /v1/healthz payload. Shards is 0 for a
// single-collection server; Generation is 0 for a static one.
type ServerHealth struct {
	Status        string
	Documents     int
	Terms         int
	Shards        int
	Generation    uint64
	UptimeMillis  int64
	QueriesServed int64
	QueriesFailed int64
}

// Health reports the server's liveness, shape and aggregate counters.
// Nothing in it is authenticated — it is operational data only.
func (t *transport) Health(ctx context.Context) (*ServerHealth, error) {
	h, err := roundTrip[httpapi.Health](ctx, t, http.MethodGet, httpapi.PathHealthz, nil, nil)
	if err != nil {
		return nil, err
	}
	return &ServerHealth{
		Status:        h.Status,
		Documents:     h.Documents,
		Terms:         h.Terms,
		Shards:        h.Shards,
		Generation:    h.Generation,
		UptimeMillis:  h.UptimeMillis,
		QueriesServed: h.QueriesServed,
		QueriesFailed: h.QueriesFailed,
	}, nil
}

// maxResponseBytes caps how much of a response body a remote client will
// buffer: the server is untrusted, and an endless 200 body must not
// exhaust the verifier's memory before verification can reject it.
const maxResponseBytes = 64 << 20

// roundTrip performs one request (a JSON POST when body is non-nil) and
// decodes the answer. With a fromFrame decoder it negotiates the binary
// framing: unless noBinary has latched, the request offers wire.ContentType
// via Accept, and the response is decoded as a frame or as JSON depending
// on what the server chose. A 406 latches noBinary and retries the request
// once as plain JSON, which keeps this client compatible with both older
// servers that ignore Accept (they simply answer JSON) and strict ones that
// reject unknown media types. A nil fromFrame never offers frames.
func roundTrip[T any](ctx context.Context, t *transport, method, path string, body []byte,
	fromFrame func([]byte) (*T, error)) (*T, error) {
	for {
		var reqBody io.Reader
		if body != nil {
			reqBody = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, t.base+path, reqBody)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		offer := fromFrame != nil && !t.noBinary.Load()
		if offer {
			req.Header.Set("Accept", wire.ContentType)
		}
		resp, err := t.hc.Do(req)
		if err != nil {
			return nil, fmt.Errorf("authtext: %s: %w", req.URL.Path, err)
		}
		if offer && resp.StatusCode == http.StatusNotAcceptable {
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxResponseBytes))
			resp.Body.Close()
			t.noBinary.Store(true)
			continue
		}
		out, err := decodeBody(req.URL.Path, resp, t.metrics, fromFrame)
		resp.Body.Close()
		return out, err
	}
}

// decodeBody decodes a (size-capped) response from an untrusted server,
// dispatching on its Content-Type. A frame that fails its CRC or decode is
// classified as tampering (the transport is the untrusted party here,
// exactly like an undecodable VO), so IsTampered reports true for it.
func decodeBody[T any](path string, resp *http.Response, m *Metrics, fromFrame func([]byte) (*T, error)) (*T, error) {
	if resp.StatusCode != http.StatusOK {
		se := httpapi.ReadErrorResponse(resp.StatusCode, resp.Body)
		return nil, fmt.Errorf("authtext: %s: server returned %d: %w", path, se.Status, se)
	}
	start := time.Now()
	ct, _, _ := strings.Cut(resp.Header.Get("Content-Type"), ";")
	if fromFrame != nil && strings.EqualFold(strings.TrimSpace(ct), wire.ContentType) {
		frame, err := readCapped(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("authtext: %s: %w", path, err)
		}
		start = time.Now()
		out, err := fromFrame(frame)
		if err != nil {
			verr := &core.VerifyError{Code: core.CodeMalformedVO, Detail: err.Error()}
			m.countTamper()
			return nil, fmt.Errorf("authtext: %s: %w", path, verr)
		}
		m.observeWireDecode(time.Since(start))
		return out, nil
	}
	out := new(T)
	body := io.LimitReader(resp.Body, maxResponseBytes)
	if err := json.NewDecoder(body).Decode(out); err != nil {
		return nil, fmt.Errorf("authtext: %s: bad response body: %w", path, err)
	}
	// Drain (still capped) so the connection can be reused.
	_, _ = io.Copy(io.Discard, body)
	m.observeWireDecode(time.Since(start))
	return out, nil
}

// readCapped buffers a body under maxResponseBytes, erroring (rather than
// silently truncating) when the server exceeds the cap.
func readCapped(r io.Reader) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, maxResponseBytes+1))
	if err != nil {
		return nil, err
	}
	if len(b) > maxResponseBytes {
		return nil, fmt.Errorf("response body exceeds %d byte cap", maxResponseBytes)
	}
	return b, nil
}

func wireAlgo(a Algorithm) string {
	if a == TRA {
		return httpapi.AlgoTRA
	}
	return httpapi.AlgoTNRA
}

func wireScheme(s Scheme) string {
	if s == MHT {
		return httpapi.SchemeMHT
	}
	return httpapi.SchemeCMHT
}

// parseWireAlgo / parseWireScheme invert wireAlgo / wireScheme for the
// server-side backends (inputs are already normalised by the handler).
func parseWireAlgo(s string) Algorithm {
	if s == httpapi.AlgoTRA {
		return TRA
	}
	return TNRA
}

func parseWireScheme(s string) Scheme {
	if s == httpapi.SchemeMHT {
		return MHT
	}
	return ChainMHT
}
