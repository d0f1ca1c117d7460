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
// and public key once (from the server's manifest endpoint, or injected out
// of band via WithClientExport), then every Search answer — hits, contents,
// scores, and VO; from a shard set every shard's, plus the merged global
// ranking — is verified locally before it is returned, exactly as if the
// result had been produced in-process. A server, proxy, or
// man-in-the-middle that rewrites any part of a response is detected by
// verification (IsTampered reports true for the returned error), not
// trusted transport: plain HTTP is sufficient for integrity, though TLS is
// still needed for confidentiality.
// Which /v1 endpoint pair it speaks (plain or /v1/shards/…) follows from the
// export it verified, never from what the server says about itself.
type RemoteClient struct {
	transport

	mu     sync.Mutex
	client *Client // verification half, nil until bootstrapped
}

// remoteOptions is what a RemoteOption can set.
type remoteOptions struct {
	hc      *http.Client
	metrics *Metrics
	export  []byte
}

// RemoteOption customises NewRemoteClient.
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
// reconnects (and, under TLS, re-handshakes) as soon as a batch workload
// fans out.
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
// end. Against a shard set the verify histogram covers the complete
// fan-out check (every shard's VO plus the merge recomputation). The
// registry may be a fresh NewMetrics or one shared with a server in the
// same process.
func WithClientMetrics(m *Metrics) RemoteOption { return func(o *remoteOptions) { o.metrics = m } }

// WithClientExport seeds the verification material from an out-of-band
// copy of the owner's export — ATCX or ATSX, told apart by their magic —
// instead of fetching it from the server. Use it when the owner distributes
// the export through a channel the server cannot influence (the stronger
// deployment, see docs/PROTOCOL.md).
func WithClientExport(export []byte) RemoteOption {
	return func(o *remoteOptions) { o.export = export }
}

// NewRemoteClient prepares a client for the authserved instance at
// baseURL (scheme + host[:port], e.g. "http://127.0.0.1:8080"). No
// network traffic happens until the first call.
func NewRemoteClient(baseURL string, opts ...RemoteOption) (*RemoteClient, error) {
	u, err := url.Parse(strings.TrimRight(baseURL, "/"))
	if err != nil {
		return nil, fmt.Errorf("authtext: bad server URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("authtext: bad server URL %q: scheme must be http or https", baseURL)
	}
	o := remoteOptions{hc: defaultHTTPClient()}
	for _, opt := range opts {
		opt(&o)
	}
	rc := &RemoteClient{transport: transport{base: u.String(), hc: o.hc, metrics: o.metrics}}
	if o.export != nil {
		if rc.client, err = NewClientFromExport(o.export); err != nil {
			return nil, err
		}
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

// Bootstrap fetches and verifies the owner's manifest now instead of
// lazily on the first Search. The manifest signature is checked against
// the embedded public key before it is accepted.
func (rc *RemoteClient) Bootstrap(ctx context.Context) error {
	_, err := rc.bootstrapped(ctx)
	return err
}

// bootstrapped returns the verification half, fetching it first if no call
// (and no WithClientExport) has yet. The plain manifest endpoint is asked
// first; only a server that answers it 404 — "this server is sharded" — is
// asked for the shard set's, so a bare collection costs one request, as ever.
func (rc *RemoteClient) bootstrapped(ctx context.Context) (*Client, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.client != nil {
		return rc.client, nil
	}
	export, err := rc.fetchExport(ctx, false)
	var se *httpapi.StatusError
	if errors.As(err, &se) && se.Status == http.StatusNotFound {
		if atsx, serr := rc.fetchExport(ctx, true); serr == nil {
			export, err = atsx, nil
		}
	}
	if err != nil {
		return nil, err
	}
	rc.client, err = NewClientFromExport(export)
	return rc.client, err
}

// fetchExport retrieves the export blob from the manifest endpoint of the
// given shape.
func (rc *RemoteClient) fetchExport(ctx context.Context, sharded bool) ([]byte, error) {
	path, format := httpapi.PathManifest, httpapi.FormatATCX
	if sharded {
		path, format = httpapi.PathShardManifest, httpapi.FormatATSX
	}
	m, err := roundTrip(ctx, &rc.transport, http.MethodGet, path, nil, wire.DecodeManifestResponse)
	if err != nil {
		return nil, err
	}
	if m.Format != format {
		return nil, fmt.Errorf("authtext: server manifest format %q not supported (want %q)", m.Format, format)
	}
	return m.Export, nil
}

// Generation returns the publication generation this client currently
// verifies against (0 before bootstrap or for static collections). It
// only moves forward: a server that presents an older generation is
// rejected with ErrStaleGeneration.
func (rc *RemoteClient) Generation() uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.client == nil {
		return 0
	}
	return rc.client.Generation()
}

// Shards returns the verified shard count: 0 when bare or before bootstrap.
func (rc *RemoteClient) Shards() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.client == nil {
		return 0
	}
	return rc.client.Shards()
}

// ask posts req to path and returns the decoded answer once it and client,
// the verification half to check it against, agree on a generation. generation reads the generation an answer claims (0: none —
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
func ask[T any](ctx context.Context, rc *RemoteClient, client *Client, path string, req any,
	fromFrame func([]byte) (*T, error), generation func(*T) uint64) (*T, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		answer, err := roundTrip(ctx, &rc.transport, http.MethodPost, path, body, fromFrame)
		if err != nil {
			return nil, err
		}
		gen := generation(answer)
		if gen > client.Generation() {
			export, err := rc.fetchExport(ctx, client.Shards() > 0)
			if err == nil {
				err = client.AdvanceExport(export)
			}
			if errors.Is(err, ErrStaleGeneration) && attempt < 2 {
				continue
			}
			if err != nil {
				return nil, err
			}
		}
		if gen != 0 && gen != client.Generation() && attempt < 2 {
			continue
		}
		return answer, nil
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
// locally against the owner's manifest — a shard set's complete answer:
// every shard's VO against its pinned manifest, then the merged ranking by
// recomputation — using the parameters this client asked for, never the
// server's echo. It returns the result only if verification succeeds;
// otherwise the error explains the violation and IsTampered reports whether
// it indicates server misbehaviour.
func (rc *RemoteClient) Search(ctx context.Context, query string, r int, algo Algorithm, scheme Scheme) (*SearchResult, error) {
	if err := checkR(r); err != nil {
		return nil, err
	}
	client, err := rc.bootstrapped(ctx)
	if err != nil {
		return nil, err
	}
	if err := client.checkVariant(algo, scheme); err != nil {
		return nil, err
	}
	req := &httpapi.SearchRequest{Query: query, R: r, Algo: wireAlgo(algo), Scheme: wireScheme(scheme)}
	var res *SearchResult
	if client.Shards() > 0 {
		sw, err := ask(ctx, rc, client, httpapi.PathShardSearch, req, wire.DecodeShardedSearchResponse,
			func(sw *httpapi.ShardedSearchResponse) uint64 { return sw.Generation })
		if err != nil {
			return nil, rc.withheld(err)
		}
		res = shardedResultFromWire(sw, algo, scheme)
	} else {
		sr, err := ask(ctx, rc, client, httpapi.PathSearch, req, wire.DecodeSearchResponse,
			func(sr *httpapi.SearchResponse) uint64 { return sr.Generation })
		if err != nil {
			return nil, rc.withheld(err)
		}
		res = resultFromWire(sr, algo, scheme)
	}
	return rc.verified(client, query, r, res)
}

// withheld classifies a server's variant_not_built refusal of a query this
// client sent — one the signed manifest lists, or it would not have been
// sent — as tampering: the owner built the variant, so the refusal is a lie.
// Any other error passes through.
func (rc *RemoteClient) withheld(err error) error {
	var se *httpapi.StatusError
	if !errors.As(err, &se) || se.Code != httpapi.CodeVariantNotBuilt {
		return err
	}
	rc.metrics.countTamper()
	return &core.VerifyError{Code: core.CodeVariantWithheld,
		Detail: "the server refused a variant the signed manifest lists: " + se.Message}
}

// verified verifies res against the bootstrapped manifest, recording the
// verification cost and outcome.
func (rc *RemoteClient) verified(client *Client, query string, r int, res *SearchResult) (*SearchResult, error) {
	verifyStart := time.Now()
	err := client.Verify(query, r, res)
	rc.metrics.observeVerify(time.Since(verifyStart), err, client.verifier)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// resultFromWire converts one wire response to the facade form, labelled
// with the parameters the client asked for, never the server's echo.
func resultFromWire(wire *httpapi.SearchResponse, algo Algorithm, scheme Scheme) *SearchResult {
	res := &SearchResult{VO: wire.VO, Generation: wire.Generation, Hits: make([]Hit, len(wire.Hits))}
	for i, h := range wire.Hits {
		res.Hits[i] = Hit{DocID: h.DocID, Score: h.Score, Content: h.Content, GlobalID: h.DocID}
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

// shardedResultFromWire is resultFromWire for a fan-out answer.
func shardedResultFromWire(sw *httpapi.ShardedSearchResponse, algo Algorithm, scheme Scheme) *SearchResult {
	res := &SearchResult{
		Hits:       make([]Hit, len(sw.Merged)),
		PerShard:   make([]*SearchResult, len(sw.Shards)),
		Generation: sw.Generation,
		// Informational, like every stat on the wire.
		Stats: Stats{
			Algorithm:   algo,
			Scheme:      scheme,
			Shards:      sw.Stats.Shards,
			EntriesRead: sw.Stats.EntriesRead,
			VOBytes:     sw.Stats.VOBytes,
			IOTime:      StatsDuration(sw.Stats.IOMillis),
			ServerTime:  StatsDuration(sw.Stats.ServerMillis),
		},
	}
	for i := range sw.Shards {
		res.PerShard[i] = resultFromWire(&sw.Shards[i], algo, scheme)
		res.Stats.QueryTerms = max(res.Stats.QueryTerms, res.PerShard[i].Stats.QueryTerms)
	}
	// Merged wire hits carry no content; deliver the (about to be
	// verified) content of the shard answer each one cites. A merged hit
	// citing a document its shard never returned fails verification, so
	// missing content here is fine — verification rejects first.
	for i, m := range sw.Merged {
		h := Hit{Shard: m.Shard, DocID: m.DocID, GlobalID: m.GlobalID, Score: m.Score}
		if m.Shard >= 0 && m.Shard < len(res.PerShard) {
			for _, sh := range res.PerShard[m.Shard].Hits {
				if sh.DocID == m.DocID {
					h.Content = sh.Content
					break
				}
			}
		}
		res.Hits[i] = h
	}
	return res
}

// SearchBatch sends up to httpapi.MaxBatchQueries queries in one request;
// the server executes them concurrently. Every answer is verified locally
// exactly as in Search, and per-query failures (including verification
// failures) come back in the matching BatchItem rather than failing the
// whole batch. The returned slice has one item per query, in input order.
// The shard-set wire has no batch form: against a shard set the queries go
// out as one Search each.
func (rc *RemoteClient) SearchBatch(ctx context.Context, queries []BatchQuery) ([]BatchItem, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	client, err := rc.bootstrapped(ctx)
	if err != nil {
		return nil, err
	}
	if client.Shards() > 0 {
		out := make([]BatchItem, len(queries))
		runBatch(len(queries), 0, func(i int) {
			q := queries[i]
			out[i].Result, out[i].Err = rc.Search(ctx, q.Query, q.R, q.Algorithm, q.Scheme)
		})
		return out, nil
	}
	if len(queries) > httpapi.MaxBatchQueries {
		return nil, fmt.Errorf("authtext: batch of %d queries exceeds the server maximum of %d",
			len(queries), httpapi.MaxBatchQueries)
	}
	out := make([]BatchItem, len(queries))
	// sent[j] is the query the j-th wire request carries: a variant the
	// signed manifest does not list is refused here and never sent.
	var sent []int
	var wireReqs []httpapi.SearchRequest
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
		if out[i].Err = client.checkVariant(q.Algorithm, q.Scheme); out[i].Err != nil {
			continue
		}
		sent = append(sent, i)
		wireReqs = append(wireReqs, httpapi.SearchRequest{
			Query: q.Query, R: q.R, Algo: wireAlgo(q.Algorithm), Scheme: wireScheme(q.Scheme),
		})
	}
	if len(sent) == 0 {
		return out, nil
	}
	// A live server answers the whole batch from one generation: the batch
	// claims the newest generation any of its answers names.
	br, err := ask(ctx, rc, client, httpapi.PathSearch, &httpapi.BatchSearchRequest{Queries: wireReqs},
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
	if len(br.Results) != len(sent) {
		return nil, fmt.Errorf("authtext: server answered %d results for %d queries", len(br.Results), len(sent))
	}
	for j, res := range br.Results {
		i := sent[j]
		q := queries[i]
		switch {
		case res.Error != nil:
			out[i].Err = rc.withheld(fmt.Errorf("authtext: query %d: server error: %w", i,
				&httpapi.StatusError{Code: res.Error.Code, Message: res.Error.Message}))
		case res.Response == nil:
			out[i].Err = fmt.Errorf("authtext: query %d: empty batch result", i)
		default:
			out[i].Result, out[i].Err = rc.verified(client, q.Query, q.R,
				resultFromWire(res.Response, q.Algorithm, q.Scheme))
		}
	}
	return out, nil
}

// ServerHealth mirrors the /v1/healthz payload. Shards is 0 for a
// single-collection server; Generation is 0 for a static one; Variants is
// nil when the server built all four (see Variant.String for the names).
type ServerHealth struct {
	Status        string
	Documents     int
	Terms         int
	Shards        int
	Generation    uint64
	Variants      []string
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
		Variants:      h.Variants,
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
