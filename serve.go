package authtext

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"authtext/internal/core"
	"authtext/internal/engine"
	"authtext/internal/httpapi"
	"authtext/internal/index"
	"authtext/internal/wire"
)

// This file adapts every deployment shape to the /v1 HTTP protocol of
// internal/httpapi (documented in docs/PROTOCOL.md). The shapes differ
// along two axes only:
//
//   - the WIRE: a single collection serves /v1/search and the ATCX
//     bootstrap at /v1/manifest; a sharded one serves /v1/shards/search and
//     the ATSX bootstrap at /v1/shards/manifest, and answers the plain
//     endpoints 404 with a pointer to the sharded paths;
//   - the LIFECYCLE: a static collection never changes; a live owner
//     publishes a new signed generation per /v1/admin/update batch; a
//     snapshot replica follows an owner's snapshot directory and answers
//     the update endpoint 403.
//
// The lifecycle is hidden behind one unexported generation source and the
// wire behind the Server a source pins, so ONE backend holds everything else:
// options, the effective VO cache, metrics, counters, the query log,
// one-generation pinning, /v1/healthz. Requests are served concurrently —
// the engine's read path is lock-free, so the backend needs no
// serialization of its own. cmd/authserved is the production wrapper;
// RemoteClient is the consuming side.

// QueryLog receives one record per served query; see WithQueryLog. A shard
// set's handler reports the fan-out aggregate (see Stats.Shards).
type QueryLog func(query string, r int, stats Stats, wall time.Duration)

// handlerOptions collects the optional callbacks a handler can carry.
type handlerOptions struct {
	queryLog  QueryLog
	updateLog func(*UpdateReport)
	cache     *VOCache
	metrics   *Metrics
	reqLog    *slog.Logger
}

// HandlerOption customises every /v1 handler constructor.
type HandlerOption func(*handlerOptions)

// WithQueryLog installs a per-query callback (invoked synchronously after
// each successful search; keep it fast). Requests are served concurrently,
// so the callback MUST be safe for concurrent use.
func WithQueryLog(fn QueryLog) HandlerOption { return func(o *handlerOptions) { o.queryLog = fn } }

// WithUpdateLog installs a callback invoked synchronously after every
// accepted /v1/admin/update batch, with the served generation already
// swapped. Owner-backed live handlers only (nothing else accepts updates);
// use it for logging. MUST be safe for concurrent use.
func WithUpdateLog(fn func(*UpdateReport)) HandlerOption {
	return func(o *handlerOptions) { o.updateLog = fn }
}

// WithVOCache serves repeat queries from the given VO cache (cache.go),
// overriding a cache the Server given to NewHTTPHandler already carries. A
// cache hit returns a response byte-identical to the miss that populated
// it — the stats echo the original engine costs; on sharded handlers a hit
// serves the complete fan-out answer without touching any shard — and
// /v1/healthz reports the cache counters. On live deployments the cache
// survives generation swaps: updates invalidate it by construction
// (generation-stamped keys), so no coordination is needed.
func WithVOCache(c *VOCache) HandlerOption { return func(o *handlerOptions) { o.cache = c } }

// WithMetrics records the full request lifecycle in m — request counts and
// latency per endpoint, per-stage search timings, cache and live-path
// telemetry — and serves the registry at /v1/metrics in the Prometheus
// text format (docs/OBSERVABILITY.md is the catalog). When the handler
// also carries a VO cache, the cache series are bound to the SAME counters
// /v1/healthz reports.
func WithMetrics(m *Metrics) HandlerOption { return func(o *handlerOptions) { o.metrics = m } }

// WithRequestLog emits one structured slog record per request (request ID,
// method, path, status, duration, bytes; the X-Request-ID header is
// honored and echoed). The logger MUST be safe for concurrent use — slog
// loggers are.
func WithRequestLog(logger *slog.Logger) HandlerOption {
	return func(o *handlerOptions) { o.reqLog = logger }
}

// health fills the collection-shaped healthz fields: live documents
// (tombstoned slots don't count), terms, shards, generation, and the built
// variants unless they are all four.
func (v served) health() httpapi.Health {
	h := httpapi.Health{Shards: v.shards(), Generation: v.generation()}
	for _, col := range v.cols() {
		h.Documents += col.LiveDocs()
		h.Terms += col.Index().M()
	}
	if set := v.variants(); set != core.AllVariants {
		for _, variant := range variantsOf(set) {
			h.Variants = append(h.Variants, variant.String())
		}
	}
	return h
}

// liveUpdater applies one admin update batch.
type liveUpdater func(add []Document, remove []DocHandle) ([]DocHandle, *UpdateReport, error)

// source is what a handler is built from: where the current generation
// comes from. *LiveOwner and *LiveReplica implement it; a static collection
// is the source whose generation never changes (staticSource). A front end
// over a fleet of sharded backends, or one daemon serving several tenants,
// is "a handler takes a generation source" too.
type source interface {
	// pin returns the current generation's server, serving through the
	// handler's cache c and registry m. Everything one request does — a
	// whole fan-out — runs on one pin, so no response mixes generations.
	pin(c *VOCache, m *Metrics) *Server
	// export returns the current generation's verification blob (ATCX or
	// ATSX, matching the pinned server's shape), with the generation it
	// belongs to, so that what is served beside it — a proof cap — is of
	// the same generation.
	export() (served, []byte, error)
	// Generation reports the currently served generation.
	Generation() uint64
	// adopt hands the source the handler's registry before serving starts,
	// so that updates and reloads record into it (the first handler's wins).
	adopt(m *Metrics)
	// updater describes /v1/admin/update: live is false on static sources
	// (the endpoint does not exist); apply is nil on serving-only sources
	// (the endpoint answers 403).
	updater() (apply liveUpdater, live bool)
}

// published is the manifest endpoint's answer: the source's export blob, or
// why it has none to serve.
func published(blob []byte, whyNot string) ([]byte, error) {
	if blob == nil {
		return nil, &httpapi.StatusError{Status: http.StatusServiceUnavailable, Code: httpapi.CodeUnavailable, Message: whyNot}
	}
	return blob, nil
}

// staticSource serves one immutable collection and the export blob the
// caller supplied (nil: no manifest bootstrap). Its one prepared server
// already carries the handler's cache and registry (NewHTTPHandler), so pin
// never copies.
type staticSource struct {
	srv  *Server
	blob []byte
}

func (s *staticSource) pin(*VOCache, *Metrics) *Server { return s.srv }

func (s *staticSource) export() (served, []byte, error) {
	blob, err := published(s.blob, "this server does not publish verification material")
	return s.srv.v, blob, err
}

func (s *staticSource) Generation() uint64 { return s.srv.v.generation() }

func (s *staticSource) adopt(*Metrics) {}

func (s *staticSource) updater() (liveUpdater, bool) { return nil, false }

// The live sources pin a fresh server per request, built with the handler's
// cache and registry.

func (o *LiveOwner) pin(c *VOCache, m *Metrics) *Server {
	return &Server{v: o.serving(), cache: c, metrics: m}
}
func (o *LiveOwner) export() (served, []byte, error) {
	v := o.serving()
	blob, err := v.client().Export()
	return v, blob, err
}
func (o *LiveOwner) adopt(m *Metrics) {
	if o.metrics == nil {
		o.metrics = m
	}
}
func (o *LiveOwner) updater() (liveUpdater, bool) { return o.Update, true }

func (r *LiveReplica) export() (served, []byte, error) {
	g := r.cur.Load()
	blob, err := published(g.export, "this server has no publishable verification key (fast-signer build?)")
	return g.server.v, blob, err
}
func (r *LiveReplica) adopt(m *Metrics) {
	if r.metrics == nil {
		r.metrics = m
	}
}
func (r *LiveReplica) updater() (liveUpdater, bool) { return nil, true }

// NewHTTPHandler exposes a Server over the versioned HTTP protocol.
// clientExport is the blob from Client.Export, served verbatim at the
// manifest endpoint so remote clients can bootstrap; pass nil to run a
// search endpoint without manifest bootstrap (clients must then obtain the
// export out of band).
func NewHTTPHandler(srv *Server, clientExport []byte, opts ...HandlerOption) http.Handler {
	o := handlerOpts(opts)
	return newHandler(newStaticSource(srv, clientExport, &o), o)
}

// newStaticSource prepares the one server a static handler serves through.
// The handler's cache and registry win over srv's own, and o.cache becomes
// the effective cache. A copy carries them, so srv is never mutated and no
// request copies.
func newStaticSource(srv *Server, blob []byte, o *handlerOptions) *staticSource {
	prepared := *srv
	if o.cache != nil {
		prepared.cache = o.cache
	}
	if o.metrics != nil {
		prepared.metrics = o.metrics
	}
	o.cache = prepared.cache
	return &staticSource{srv: &prepared, blob: blob}
}

// HTTPHandler is the owner-side convenience: it exports the verification
// material and wraps the serving half in one call.
func (o *Owner) HTTPHandler(opts ...HandlerOption) (http.Handler, error) {
	export, err := o.Client().Export()
	if err != nil {
		return nil, err
	}
	return NewHTTPHandler(o.Server(), export, opts...), nil
}

// HTTPHandler exposes the live collection over the versioned HTTP
// protocol with the admin update endpoint enabled: searches serve the
// latest generation, /v1/admin/update applies batches through this owner,
// and the manifest endpoint always publishes the current generation's
// export.
func (o *LiveOwner) HTTPHandler(opts ...HandlerOption) (http.Handler, error) {
	return newLiveHandler(o, opts)
}

// HTTPHandler exposes a snapshot-fed replica over the /v1 protocol: the
// live serving surface (generation in responses and healthz, current
// generation's manifest) without the update endpoint — POSTs to
// /v1/admin/update answer 403, because updates happen at the owner that
// writes the snapshots.
func (r *LiveReplica) HTTPHandler(opts ...HandlerOption) (http.Handler, error) {
	return newLiveHandler(r, opts)
}

// newLiveHandler fails construction, not the first request, when the key
// cannot be published (mirrors Owner.HTTPHandler's contract).
func newLiveHandler(src source, opts []HandlerOption) (http.Handler, error) {
	if _, _, err := src.export(); err != nil {
		return nil, err
	}
	return newHandler(src, handlerOpts(opts)), nil
}

// handlerOpts applies opts to the zero options.
func handlerOpts(opts []HandlerOption) handlerOptions {
	var o handlerOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// newHandler wires a generation source onto the /v1 protocol.
func newHandler(src source, o handlerOptions) http.Handler {
	b := &backend{src: src, start: time.Now(), opts: o}
	src.adopt(o.metrics)
	srv := b.pin()
	o.metrics.setGeneration(src.Generation())
	// /v1/metrics and /v1/healthz read the same cache counters.
	srv.metrics.bindVOCache(o.cache)

	// Which endpoints exist is a property of the source, declared here; the
	// wire shape is the pinned server's, the update endpoint the lifecycle's.
	e := httpapi.Endpoints{Generation: src.Generation}
	if b.sharded = srv.Shards() > 0; b.sharded {
		e.ShardSearch = b.shardSearch
		e.ShardExport = func() ([]byte, error) {
			_, blob, err := src.export()
			return blob, err
		}
	}
	var live bool
	if b.update, live = src.updater(); live {
		e.Update = b.applyUpdate
	}
	hopts := []httpapi.HandlerOpt{httpapi.WithEndpoints(e)}
	if b.opts.metrics != nil {
		hopts = append(hopts, httpapi.WithMetricsRegistry(b.opts.metrics.registry()))
	}
	if b.opts.reqLog != nil {
		hopts = append(hopts, httpapi.WithRequestLog(b.opts.reqLog))
	}
	return httpapi.NewHandler(b, hopts...)
}

// backend implements httpapi.Backend — and the endpoint families newHandler
// declares — over any generation source.
type backend struct {
	src     source
	sharded bool        // the wire shape of every server src pins
	update  liveUpdater // nil: serving-only
	start   time.Time
	// opts.cache is the effective VO cache, nil when caching is off;
	// healthz reports it.
	opts   handlerOptions
	served atomic.Int64
	failed atomic.Int64
}

// pin pins the current generation, serving through the handler's cache and
// registry.
func (b *backend) pin() *Server { return b.src.pin(b.opts.cache, b.opts.metrics) }

// shardedOnly is the answer of the plain endpoints on a sharded server.
func shardedOnly(instead string) error {
	return &httpapi.StatusError{
		Status:  http.StatusNotFound,
		Code:    httpapi.CodeNotFound,
		Message: "this server is sharded; " + instead,
	}
}

func (b *backend) Search(req *httpapi.SearchRequest) (*httpapi.SearchResponse, *wire.Dictionary, error) {
	if b.sharded {
		return nil, nil, shardedOnly("query " + httpapi.PathShardSearch)
	}
	res, v, err := b.search(req)
	if err != nil {
		return nil, nil, err
	}
	return wireSearchResponse(req, res, v.col), v.dict, nil
}

// search answers one query on one pinned generation — for a shard set, the
// whole fan-out — and returns that generation with it: its dictionary, and
// the content digests of the documents the answer cites. A variant the
// collection was not built with is the caller's 422: it is no server
// failure, so it is not counted as one; anything else counts as failed and
// stays a 500.
func (b *backend) search(req *httpapi.SearchRequest) (*SearchResult, served, error) {
	start := time.Now()
	srv := b.pin()
	res, err := srv.search(req.Query, req.R, parseWireAlgo(req.Algo), parseWireScheme(req.Scheme), req.Cap)
	if errors.Is(err, ErrVariantNotBuilt) {
		return nil, served{}, &httpapi.StatusError{
			Status: http.StatusUnprocessableEntity,
			Code:   httpapi.CodeVariantNotBuilt,
			Message: fmt.Sprintf("variant %s-%s is not built; this collection answers %v",
				req.Algo, req.Scheme, srv.v.variants()),
		}
	}
	if err != nil {
		b.failed.Add(1)
		return nil, served{}, err
	}
	b.served.Add(1)
	if b.opts.queryLog != nil {
		// The log only: the wire response is a pure function of the
		// result object.
		b.opts.queryLog(req.Query, req.R, res.Stats, time.Since(start))
	}
	return res, srv.v, nil
}

func (b *backend) shardSearch(req *httpapi.SearchRequest) (*httpapi.ShardedSearchResponse, *wire.Dictionary, error) {
	res, v, err := b.search(req)
	if err != nil {
		return nil, nil, err
	}
	return wireShardedResponse(req, res, v.cols()), v.dict, nil
}

// ClientExport serves /v1/manifest: the current generation's ATCX blob and,
// for depth > 0, that generation's proof cap of that depth — cut from the
// collection the blob's manifest describes, so the pair always belongs
// together.
func (b *backend) ClientExport(depth int) ([]byte, []byte, error) {
	if b.sharded {
		return nil, nil, shardedOnly("fetch " + httpapi.PathShardManifest)
	}
	v, blob, err := b.src.export()
	if err != nil || depth == 0 {
		return blob, nil, err
	}
	capBytes, err := v.col.Cap(depth)
	return blob, capBytes, err
}

func (b *backend) applyUpdate(req *httpapi.UpdateRequest) (*httpapi.UpdateResponse, error) {
	if b.update == nil {
		return nil, &httpapi.StatusError{
			Status:  http.StatusForbidden,
			Code:    httpapi.CodeUpdateFailed,
			Message: "this replica is serving-only; apply updates at the owner",
		}
	}
	add := make([]Document, len(req.Add))
	for i, d := range req.Add {
		add[i] = Document{Content: d.Content}
	}
	remove := make([]DocHandle, len(req.Remove))
	for i, h := range req.Remove {
		remove[i] = DocHandle(h)
	}
	handles, rep, err := b.update(add, remove)
	if err != nil {
		// Update failures are batch-shaped (unknown handle, emptying
		// removal, unindexable content): the server state is unchanged,
		// so report them as the caller's problem.
		return nil, &httpapi.StatusError{
			Status:  http.StatusBadRequest,
			Code:    httpapi.CodeUpdateFailed,
			Message: err.Error(),
		}
	}
	if b.opts.cache != nil {
		// Hygiene, not correctness: superseded generations' entries can no
		// longer be looked up (the generation is in the key); dropping them
		// just returns their memory ahead of LRU aging.
		b.opts.cache.dropBelow(rep.Generation)
	}
	if b.opts.updateLog != nil {
		b.opts.updateLog(rep)
	}
	return &httpapi.UpdateResponse{
		Generation:       rep.Generation,
		Documents:        rep.Documents,
		TombstonedSlots:  rep.TombstonedSlots,
		Compacted:        rep.Compacted,
		Added:            rawHandles(handles),
		Removed:          rep.Removed,
		SignaturesSigned: rep.SignaturesSigned,
		ShardsReused:     rep.ShardsReused,
		RebuildMillis:    rep.RebuildMillis,
	}, nil
}

// Health reads the collection shape and the generation off ONE pinned server.
func (b *backend) Health() httpapi.Health {
	h := b.pin().v.health()
	h.Status = "ok"
	h.UptimeMillis = time.Since(b.start).Milliseconds()
	h.QueriesServed = b.served.Load()
	h.QueriesFailed = b.failed.Load()
	if b.opts.cache != nil {
		h.Cache = b.opts.cache.health()
	}
	return h
}

// wireSearchResponse converts one facade result of col to the wire form,
// each hit with its content digest (wire.Hit.Digest). Deliberately a pure
// function of (req, res, col): ServerMillis echoes the engine-measured
// per-query time, not a handler wall clock, so replaying a cached result
// yields the identical bytes.
func wireSearchResponse(req *httpapi.SearchRequest, res *SearchResult, col *engine.Collection) *httpapi.SearchResponse {
	out := &httpapi.SearchResponse{
		Query:      req.Query,
		R:          req.R,
		Algo:       req.Algo,
		Scheme:     req.Scheme,
		Generation: res.Generation,
		Hits:       make([]httpapi.Hit, len(res.Hits)),
		VO:         res.VO,
		Stats: httpapi.SearchStats{
			QueryTerms:     res.Stats.QueryTerms,
			EntriesRead:    res.Stats.EntriesRead,
			EntriesPerTerm: res.Stats.EntriesPerTerm,
			PctListRead:    res.Stats.PctListRead,
			BlockReads:     res.Stats.BlockReads,
			RandomReads:    res.Stats.RandomReads,
			IOMillis:       float64(res.Stats.IOTime),
			VOBytes:        res.Stats.VOBytes,
			ServerMillis:   float64(res.Stats.ServerTime),
		},
	}
	for i, h := range res.Hits {
		out.Hits[i] = httpapi.Hit{DocID: h.DocID, Score: h.Score, Content: h.Content,
			Digest: col.ContentDigest(index.DocID(h.DocID))}
	}
	return out
}

// wireShardedResponse is wireSearchResponse for a fan-out answer over the
// shard collections cols — a pure function of (req, res, cols) for the same
// reason: ServerMillis is the engine-measured fan-out wall stored in the
// result.
func wireShardedResponse(req *httpapi.SearchRequest, res *SearchResult, cols []*engine.Collection) *httpapi.ShardedSearchResponse {
	out := &httpapi.ShardedSearchResponse{
		Query:      req.Query,
		R:          req.R,
		Algo:       req.Algo,
		Scheme:     req.Scheme,
		Generation: res.Generation,
		Shards:     make([]httpapi.SearchResponse, len(res.PerShard)),
		Merged:     make([]httpapi.MergedHit, len(res.Hits)),
		Stats: httpapi.ShardedSearchStats{
			Shards:       res.Stats.Shards,
			EntriesRead:  res.Stats.EntriesRead,
			VOBytes:      res.Stats.VOBytes,
			IOMillis:     float64(res.Stats.IOTime),
			ServerMillis: float64(res.Stats.ServerTime),
		},
	}
	for i, sr := range res.PerShard {
		out.Shards[i] = *wireSearchResponse(req, sr, cols[i])
	}
	for i, m := range res.Hits {
		out.Merged[i] = httpapi.MergedHit{Shard: m.Shard, DocID: m.DocID, GlobalID: m.GlobalID, Score: m.Score}
	}
	return out
}
