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
	"strconv"
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
//
// Against a bare collection it also holds, per generation, the top capDepth
// levels of the collection-level trees — fetched with the manifest and
// checked against the roots it signs — and asks for answers whose proofs
// stop there (docs/PROTOCOL.md "Proof caps"). It holds, too, the bodies it
// verified most recently, and an answer refers to one of those by its
// content digest instead of sending it again (docs/PROTOCOL.md "Held
// bodies"); every body is verified again whenever an answer returns it.
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

// capDepth is the depth of the proof cap a remote client fetches with each
// generation's manifest: 2^8 digests per collection-level tree, once per
// generation, take the top 8 levels of every answer's multiproofs through
// those trees off the wire.
const capDepth = 8

// defaultHTTPTimeout bounds every request a remote client makes with the
// default transport: the server is untrusted, and a stalled or black-holed
// endpoint must fail the call, not hang the verifier forever.
const defaultHTTPTimeout = 30 * time.Second

// defaultHTTPClient builds the transport used when the caller supplies
// none. The transport is tuned for the verifier's traffic shape — many
// small request/response pairs against one or a few hosts — so connections
// are kept alive and reused instead of re-dialled per call:
// http.DefaultTransport caps idle connections per host at 2, which forces
// reconnects (and, under TLS, re-handshakes) as soon as concurrent
// searches fan out.
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
	// dicts holds the collection dictionaries this server's frames carried:
	// what a request names, so that its answer need not carry them again.
	dicts wire.DictionaryStore
	// bodies holds the result bodies this client verified: what a search
	// request summarises, so that its answer need not carry them again.
	bodies wire.BodyStore
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
	m, err := rc.fetchManifest(ctx, false)
	var se *httpapi.StatusError
	if errors.As(err, &se) && se.Status == http.StatusNotFound {
		if atsx, serr := rc.fetchManifest(ctx, true); serr == nil {
			m, err = atsx, nil
		}
	}
	if err != nil {
		return nil, err
	}
	if rc.client, err = NewClientFromExport(m.Export); err != nil || exportFormat(m.Export) == httpapi.FormatATSX {
		return rc.client, err
	}
	// The cap was asked for with the manifest; a bad one is reported now
	// and the client goes on without it.
	return rc.client, rc.capChecked(rc.client.installCap(m.Cap))
}

// fetchManifest retrieves the manifest endpoint of the given shape's answer:
// the export blob and, from a bare collection's, the proof cap of the same
// generation when the server has one.
func (rc *RemoteClient) fetchManifest(ctx context.Context, sharded bool) (*httpapi.ManifestResponse, error) {
	path, format := httpapi.PathManifest+"?cap="+strconv.Itoa(capDepth), httpapi.FormatATCX
	if sharded {
		path, format = httpapi.PathShardManifest, httpapi.FormatATSX
	}
	m, err := roundTrip(ctx, &rc.transport, http.MethodGet, path, nil, decodeManifest, false)
	if err != nil {
		return nil, err
	}
	if m.Format != format {
		return nil, fmt.Errorf("authtext: server manifest format %q not supported (want %q)", m.Format, format)
	}
	if sharded {
		m.Cap = nil
	} else if m.Cap != nil {
		rc.metrics.countCapFetch(len(m.Cap))
	}
	return m, nil
}

// advance moves client to the server's current manifest and the proof cap
// that came with it (AdvanceExport's trust rules).
func (rc *RemoteClient) advance(ctx context.Context, client *Client) error {
	sharded := client.Shards() > 0
	m, err := rc.fetchManifest(ctx, sharded)
	if err != nil {
		return err
	}
	return rc.capChecked(client.advanceExport(m.Export, !sharded, m.Cap))
}

// fetchCap asks the server for the proof cap of the generation client
// holds: the first search of a client seeded out of band. A cap that does
// not rebuild to the held roots is tampering. Anything else that keeps the
// cap away — a server that publishes no manifest, cannot be reached, or
// publishes another generation's — leaves the client uncapped, and the
// search that follows is judged on its own.
func (rc *RemoteClient) fetchCap(ctx context.Context, client *Client) error {
	if err := rc.advance(ctx, client); core.CodeOf(err) == core.CodeBadCap {
		return err
	}
	return nil
}

// capChecked counts err as a tamper rejection when it refuses a proof cap.
func (rc *RemoteClient) capChecked(err error) error {
	if core.CodeOf(err) == core.CodeBadCap {
		rc.metrics.countTamper()
	}
	return err
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
// the verification half to check it against, agree on a generation. The
// generation callback reads the generation an answer claims (0: none — a
// static server).
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
	fromFrame func(wire.Decoding, []byte) (*T, error), generation func(*T) uint64) (*T, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		answer, err := roundTrip(ctx, &rc.transport, http.MethodPost, path, body, fromFrame, true)
		if err != nil {
			return nil, err
		}
		gen := generation(answer)
		if gen > client.Generation() {
			err := rc.advance(ctx, client)
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
	if client.claimCapFetch() {
		if err := rc.fetchCap(ctx, client); err != nil {
			return nil, err
		}
	}
	// Cut only to a cap held for the generation verified against; an
	// answer that states no cut verifies either way.
	req := &httpapi.SearchRequest{Query: query, R: r, Algo: wireAlgo(algo), Scheme: wireScheme(scheme), Cap: client.capDepth()}
	var res *SearchResult
	if client.Shards() > 0 {
		sw, err := ask(ctx, rc, client, httpapi.PathShardSearch, req, wire.Decoding.ShardedSearchResponse,
			func(sw *httpapi.ShardedSearchResponse) uint64 { return sw.Generation })
		if err != nil {
			return nil, rc.withheld(err)
		}
		res = shardedResultFromWire(sw, algo, scheme)
	} else {
		sr, err := ask(ctx, rc, client, httpapi.PathSearch, req, wire.Decoding.SearchResponse,
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
// verification cost and outcome, and keeps the bodies it bound for later
// answers to refer to while this client offers frames.
func (rc *RemoteClient) verified(client *Client, query string, r int, res *SearchResult) (*SearchResult, error) {
	verifyStart := time.Now()
	bodies := make([]wire.HeldBody, 0, len(res.Hits))
	err := client.verify(query, r, res, &bodies)
	rc.metrics.observeVerify(time.Since(verifyStart), err)
	if err != nil {
		return nil, err
	}
	if !rc.noBinary.Load() {
		rc.bodies.Keep(bodies)
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
		ServerTime:     StatsDuration(wire.Stats.ServerMillis),
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
	h, err := roundTrip[httpapi.Health](ctx, t, http.MethodGet, httpapi.PathHealthz, nil, nil, false)
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
// via Accept and names the dictionaries t holds, and the response is
// decoded as a frame — against those very dictionaries, whatever t evicts
// meanwhile — or as JSON, depending on what the server chose. A 406
// latches noBinary and retries the request once as plain JSON, which keeps
// this client compatible with both older servers that ignore Accept (they
// simply answer JSON) and strict ones that reject unknown media types. A
// nil fromFrame never offers frames.
//
// A search (held) offering frames also summarises the bodies t holds, and
// its answer's references are filled from them. A reference t cannot fill
// is no tampering — a false positive of the summary, or a body evicted
// while the request was in flight — and the request is asked once more
// without the summary, so that every body comes in full.
func roundTrip[T any](ctx context.Context, t *transport, method, path string, body []byte,
	fromFrame func(wire.Decoding, []byte) (*T, error), held bool) (*T, error) {
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
		var dec wire.Decoding
		if offer {
			req.Header.Set("Accept", wire.ContentType)
			var names string
			if names, dec = t.dicts.Held(); names != "" {
				req.Header.Set(httpapi.DictionaryHeader, names)
			}
			if held {
				var summary string
				if summary, dec.Bodies = t.bodies.Held(); summary != "" {
					req.Header.Set(httpapi.HeldHeader, summary)
				}
			}
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
		out, err := decodeBody(req.URL.Path, resp, t.metrics, dec, fromFrame)
		resp.Body.Close()
		if refs := dec.Bodies; refs != nil {
			if errors.Is(err, wire.ErrHeldMiss) {
				t.metrics.countHeldMiss(refs.Missed)
				held = false
				continue
			}
			if err == nil {
				t.metrics.countHeldUsed(refs.Used)
			}
		}
		return out, err
	}
}

// decodeBody decodes a (size-capped) response from an untrusted server,
// dispatching on its Content-Type. A frame that fails its CRC or decode is
// classified as tampering (the transport is the untrusted party here,
// exactly like an undecodable VO), so IsTampered reports true for it.
func decodeBody[T any](path string, resp *http.Response, m *Metrics, dec wire.Decoding,
	fromFrame func(wire.Decoding, []byte) (*T, error)) (*T, error) {
	if resp.StatusCode != http.StatusOK {
		se := httpapi.ReadErrorResponse(resp.StatusCode, resp.Body)
		return nil, fmt.Errorf("authtext: %s: server returned %d: %w", path, se.Status, se)
	}
	start := time.Now()
	ct, _, _ := strings.Cut(resp.Header.Get("Content-Type"), ";")
	if fromFrame != nil && strings.EqualFold(strings.TrimSpace(ct), wire.ContentType) {
		frame, err := readCapped(resp)
		if err != nil {
			return nil, fmt.Errorf("authtext: %s: %w", path, err)
		}
		start = time.Now()
		out, err := fromFrame(dec, frame)
		if errors.Is(err, wire.ErrHeldMiss) {
			return nil, err
		}
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

// decodeManifest decodes a manifest frame, which names no dictionary.
func decodeManifest(_ wire.Decoding, frame []byte) (*httpapi.ManifestResponse, error) {
	return wire.DecodeManifestResponse(frame)
}

// readCapped buffers a body under maxResponseBytes, erroring (rather than
// silently truncating) when the server exceeds the cap. A body whose length
// the server declared within the cap is read into one buffer of that size
// (and one spare byte, which must find the body's end).
func readCapped(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxResponseBytes {
		b := make([]byte, n, n+1)
		if _, err := io.ReadFull(resp.Body, b); err != nil {
			return nil, err
		}
		if k, err := resp.Body.Read(b[n : n+1]); k != 0 || err != io.EOF {
			return nil, fmt.Errorf("response body runs past its declared %d bytes", n)
		}
		return b, nil
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
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
