package authtext

import (
	"io"
	"net/http"
	"sync"
	"time"

	"authtext/internal/engine"
	"authtext/internal/obs"
	"authtext/internal/shard"
	"authtext/internal/sig"
	"authtext/internal/snapshot"
)

// Metrics is the serving fleet's metric registry: per-stage search cost
// decomposition, live-path generation telemetry, VO-cache counters and
// client-side verification costs, exposed in the Prometheus text format at
// /v1/metrics (docs/OBSERVABILITY.md is the catalog). One Metrics may be
// shared by any number of servers, handlers and clients — series are
// atomics, and every instrument is pre-bound at construction so the hot
// search path never takes the registry lock.
//
// A nil *Metrics is valid everywhere one is accepted and records nothing:
// servers without metrics attached pay only a nil check.
type Metrics struct {
	reg *obs.Registry

	stageEngine      *obs.Histogram
	stageVOEncode    *obs.Histogram
	stageCacheLookup *obs.Histogram
	stageMerge       *obs.Histogram
	stageWireDecode  *obs.Histogram

	phaseIndexWalk     *obs.Histogram
	phaseProofAssembly *obs.Histogram

	searchSingle  *obs.Counter
	searchSharded *obs.Counter

	liveGeneration  *obs.Gauge
	liveSwaps       *obs.Counter
	liveSwapSeconds *obs.Histogram
	liveReuseRatio  *obs.Gauge
	liveDocuments   *obs.Gauge
	liveTombstones  *obs.Gauge
	liveCompactions *obs.Counter
	snapshotOpen    *obs.Histogram

	clientVerify      *obs.Histogram
	clientTamper      *obs.Counter
	clientSigVerified *obs.Counter
	clientSigMemoHit  *obs.Counter

	fleetCrosschecks   *obs.Counter
	fleetEquivocations *obs.Counter
	fleetReplicaLag    *obs.Gauge

	cacheOnce sync.Once
}

// swapBuckets spans 1ms to 30s: generation rebuilds are index builds, not
// request-scale events.
var swapBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30}

// NewMetrics returns a registry with every server-side instrument
// registered (so /v1/metrics serves the full catalog from the first
// scrape, zero-valued until traffic arrives).
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{reg: r}

	const stageHelp = "Per-stage server cost decomposition of one search (seconds)."
	stage := func(name string) *obs.Histogram {
		return r.Histogram("authtext_search_stage_seconds", stageHelp,
			obs.DefLatencyBuckets, obs.L("stage", name))
	}
	m.stageEngine = stage("engine")
	m.stageVOEncode = stage("vo_encode")
	m.stageCacheLookup = stage("cache_lookup")
	m.stageMerge = stage("merge")
	// wire_decode is the remote clients' response decode cost (JSON parse or
	// frame check+inflate+decode), the receive-side mirror of wire_encode.
	m.stageWireDecode = stage("wire_decode")
	// The wire_encode stage is observed by the HTTP layer against the same
	// family; registering it here keeps the catalog complete pre-traffic.
	stage("wire_encode")

	// The engine stage again, split in two. A family of its own: the stages
	// above are disjoint and sum towards the request, these sum to one of them.
	const phaseHelp = "The engine stage of one search, split into its two phases (seconds): " +
		"index_walk + proof_assembly = authtext_search_stage_seconds{stage=\"engine\"}."
	m.phaseIndexWalk = r.Histogram("authtext_engine_phase_seconds", phaseHelp,
		obs.DefLatencyBuckets, obs.L("phase", "index_walk"))
	m.phaseProofAssembly = r.Histogram("authtext_engine_phase_seconds", phaseHelp,
		obs.DefLatencyBuckets, obs.L("phase", "proof_assembly"))

	m.reg.GaugeFunc("authtext_snapshot_mapped_bytes",
		"Snapshot bytes currently memory-mapped by this process (zero-copy opens).",
		func() float64 { return float64(snapshot.MappedBytes()) })

	const searchHelp = "Searches answered, by collection kind."
	m.searchSingle = r.Counter("authtext_searches_total", searchHelp, obs.L("kind", "single"))
	m.searchSharded = r.Counter("authtext_searches_total", searchHelp, obs.L("kind", "sharded"))

	m.liveGeneration = r.Gauge("authtext_live_generation",
		"Latest published (or loaded) collection generation.")
	m.liveSwaps = r.Counter("authtext_live_swaps_total",
		"Generation swaps served: accepted update batches plus replica reloads.")
	m.liveSwapSeconds = r.Histogram("authtext_live_swap_seconds",
		"Wall time from accepting an update batch to swapping the served generation (seconds).",
		swapBuckets)
	m.liveReuseRatio = r.Gauge("authtext_live_signature_reuse_ratio",
		"Signatures reused from the previous generation over the signatures the last update's "+
			"rebuild produced (reuse-eligible structures only; tombstoned slots don't dilute it).")
	m.liveDocuments = r.Gauge("authtext_live_documents",
		"Live documents in the served generation (tombstoned slots excluded).")
	m.liveTombstones = r.Gauge("authtext_live_tombstoned_slots",
		"Removed-but-still-indexed slots the served generation carries.")
	m.liveCompactions = r.Counter("authtext_live_compactions_total",
		"Rebuilds that compacted accumulated tombstoned slots away (full re-signs).")
	m.snapshotOpen = r.Histogram("authtext_live_snapshot_open_seconds",
		"Wall time to open and verify a snapshot during a replica reload (seconds).",
		swapBuckets)

	m.clientVerify = r.Histogram("authtext_client_verify_seconds",
		"Client-side result verification wall time (seconds).", obs.DefLatencyBuckets)
	m.clientTamper = r.Counter("authtext_client_tamper_rejections_total",
		"Results rejected by client verification as tampered.")
	const sigHelp = "Owner signatures a verifying client accepted: verified = the public-key check ran, " +
		"memo_hit = the same signature over the same message had already passed it."
	m.clientSigVerified = r.Counter("authtext_client_signature_checks_total", sigHelp, obs.L("outcome", "verified"))
	m.clientSigMemoHit = r.Counter("authtext_client_signature_checks_total", sigHelp, obs.L("outcome", "memo_hit"))

	m.fleetCrosschecks = r.Counter("authtext_fleet_crosschecks_total",
		"Cross-replica manifest cross-checks performed by fleet clients.")
	m.fleetEquivocations = r.Counter("authtext_fleet_equivocations_total",
		"Cross-checks that detected fleet equivocation (split views, forks, frozen replicas).")
	m.fleetReplicaLag = r.Gauge("authtext_fleet_replica_lag_generations",
		"Generations between the most and least advanced reachable replica at the last cross-check.")
	return m
}

// WritePrometheus renders every series in the Prometheus text exposition
// format (the /v1/metrics payload).
func (m *Metrics) WritePrometheus(w io.Writer) error { return m.reg.WritePrometheus(w) }

// Handler serves the registry in the exposition format (GET only). Handlers
// built with WithMetrics mount it at /v1/metrics automatically; use this to
// mount the same registry elsewhere.
func (m *Metrics) Handler() http.Handler { return m.reg.Handler() }

// BindVOCache registers the cache's counters as scrape-time series
// (authtext_vocache_*). The series read the SAME atomics /v1/healthz
// reports, so the two surfaces can never disagree. The first bound cache
// wins; binding again (or binding a second cache) is a no-op — which is
// the right behaviour for the supported topology of one shared cache.
// Handlers built with both WithMetrics and WithVOCache bind automatically.
func (m *Metrics) BindVOCache(c *VOCache) {
	if m == nil || c == nil {
		return
	}
	m.cacheOnce.Do(func() {
		counter := func(name, help string, get func(VOCacheStats) int64) {
			m.reg.CounterFunc(name, help, func() float64 { return float64(get(c.Stats())) })
		}
		gauge := func(name, help string, get func(VOCacheStats) int64) {
			m.reg.GaugeFunc(name, help, func() float64 { return float64(get(c.Stats())) })
		}
		counter("authtext_vocache_hits_total", "VO cache lookups answered from memory.",
			func(s VOCacheStats) int64 { return s.Hits })
		counter("authtext_vocache_misses_total", "VO cache lookups that fell through to the engine.",
			func(s VOCacheStats) int64 { return s.Misses })
		counter("authtext_vocache_evictions_total", "VO cache entries dropped by the LRU bound.",
			func(s VOCacheStats) int64 { return s.Evictions })
		counter("authtext_vocache_invalidations_total", "VO cache entries reclaimed after a generation bump.",
			func(s VOCacheStats) int64 { return s.Invalidations })
		gauge("authtext_vocache_entries", "VO cache resident entries.",
			func(s VOCacheStats) int64 { return s.Entries })
		gauge("authtext_vocache_bytes", "VO cache resident bytes.",
			func(s VOCacheStats) int64 { return s.Bytes })
		gauge("authtext_vocache_capacity_bytes", "VO cache configured byte bound.",
			func(s VOCacheStats) int64 { return s.CapacityBytes })
	})
}

// registry exposes the underlying registry to the HTTP layer (same module;
// internal/httpapi registers its request instruments on it).
func (m *Metrics) registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// --- recording helpers (all nil-safe; callers hold pre-bound handles) ---

func (m *Metrics) observeCacheLookup(d time.Duration) {
	if m == nil {
		return
	}
	m.stageCacheLookup.Observe(d.Seconds())
}

// recordSearchHit counts a search answered from the VO cache (no engine
// stages to observe), by the kind of collection that answered.
func (m *Metrics) recordSearchHit(sharded bool) {
	if m == nil {
		return
	}
	if sharded {
		m.searchSharded.Inc()
	} else {
		m.searchSingle.Inc()
	}
}

// observeEngine records what one collection spent on one answer: the engine
// and VO-encode stages, and the two phases the engine stage splits into.
func (m *Metrics) observeEngine(st *engine.QueryStats) {
	m.stageEngine.Observe((st.ServerWall - st.EncodeWall).Seconds())
	m.stageVOEncode.Observe(st.EncodeWall.Seconds())
	m.phaseIndexWalk.Observe(st.WalkWall.Seconds())
	m.phaseProofAssembly.Observe(st.ProofWall.Seconds())
}

// recordSearch observes one single-collection answer's stage costs.
func (m *Metrics) recordSearch(st *engine.QueryStats) {
	if m == nil {
		return
	}
	m.searchSingle.Inc()
	m.observeEngine(st)
}

// recordShardedSearch observes one fan-out answer: every shard's stage
// costs (k observations — real per-collection work) plus the merge.
func (m *Metrics) recordShardedSearch(res *shard.SetResult) {
	if m == nil {
		return
	}
	m.searchSharded.Inc()
	for i := range res.PerShard {
		m.observeEngine(res.PerShard[i].Stats)
	}
	m.stageMerge.Observe(res.MergeWall.Seconds())
}

// recordUpdate observes one accepted live update batch.
func (m *Metrics) recordUpdate(rep *UpdateReport) {
	if m == nil || rep == nil {
		return
	}
	m.liveGeneration.Set(float64(rep.Generation))
	m.liveSwaps.Inc()
	m.liveSwapSeconds.Observe(rep.RebuildMillis / 1000)
	if total := rep.SignaturesSigned + rep.SignaturesReused; total > 0 {
		m.liveReuseRatio.Set(float64(rep.SignaturesReused) / float64(total))
	}
	m.liveDocuments.Set(float64(rep.Documents))
	m.liveTombstones.Set(float64(rep.TombstonedSlots))
	if rep.Compacted {
		m.liveCompactions.Inc()
	}
}

// recordSnapshotOpen observes one replica reload.
func (m *Metrics) recordSnapshotOpen(generation uint64, d time.Duration) {
	if m == nil {
		return
	}
	m.liveGeneration.Set(float64(generation))
	m.liveSwaps.Inc()
	m.snapshotOpen.Observe(d.Seconds())
}

// setGeneration records the serving generation without counting a swap
// (initial publication / handler construction).
func (m *Metrics) setGeneration(g uint64) {
	if m == nil {
		return
	}
	m.liveGeneration.Set(float64(g))
}

// observeVerify records one client-side verification outcome, and collects
// the signature checks v (the verifying client's memo) has accepted since it
// was last collected.
func (m *Metrics) observeVerify(d time.Duration, err error, v *sig.MemoVerifier) {
	if m == nil {
		return
	}
	m.clientVerify.Observe(d.Seconds())
	if IsTampered(err) {
		m.clientTamper.Inc()
	}
	verified, hits := v.TakeCounts()
	m.clientSigVerified.Add(verified)
	m.clientSigMemoHit.Add(hits)
}

// observeWireDecode records one response-body decode on a remote client.
func (m *Metrics) observeWireDecode(d time.Duration) {
	if m == nil {
		return
	}
	m.stageWireDecode.Observe(d.Seconds())
}

// countTamper counts a tamper rejection detected before verification ran
// (a response frame that failed its integrity checks).
func (m *Metrics) countTamper() {
	if m == nil {
		return
	}
	m.clientTamper.Inc()
}

// recordCrossCheck observes one fleet cross-check: the generation spread
// between the most and least advanced reachable replica, and whether the
// check detected equivocation.
func (m *Metrics) recordCrossCheck(lagGenerations uint64, equivocated bool) {
	if m == nil {
		return
	}
	m.fleetCrosschecks.Inc()
	m.fleetReplicaLag.Set(float64(lagGenerations))
	if equivocated {
		m.fleetEquivocations.Inc()
		m.clientTamper.Inc()
	}
}
