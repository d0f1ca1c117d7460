package main

import (
	"fmt"
	"io"
	"math"
)

// metricDef names one metric the benchmark reports. BENCHMARK.json lists
// the same names (TestBenchmarkJSONMatchesTheProgram keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression. Per-layer metrics explain, they do not gate: bound 0.
	bound float64
	// everywhere is false for per-layer metrics that only some workloads
	// have (the live.* timings, the daemon's cache-lookup stage). They are
	// printed and written to -json where measured, but are not part of the
	// BENCHMARK.json contract, which wants every listed metric from every
	// workload.
	everywhere bool
}

// endToEnd is what a user of the system sees. The driver accepts a
// benchmark only if the spread of each metric over ten runs with ten
// different seeds stays inside its bound, and on the shared 2-core box
// whole minutes run 15-40 % slow (README.md records the baseline runs), so
// every timing sits at the contract's cap of 25 %. Bytes depend on the
// seed's query mix alone.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, true},
	{"verified_p50_ms", "ms", "lower", 0.25, true},
	{"capacity_qps", "1/s", "higher", 0.25, true},
	{"client_cpu_ms_per_query", "ms", "lower", 0.25, true},
	{"server_cpu_ms_per_query", "ms", "lower", 0.25, true},
	{"response_bytes_per_query", "B", "lower", 0.18, true},
	{"server_rss_mb", "MiB", "lower", 0.25, true},
}

// perLayer decomposes the same requests by module. The order is the
// order of printing: the run's own health first, then the request path
// from the client inwards, then set-up.
var perLayer = []metricDef{
	{"loadgen.sent", "count", "higher", 0, true},
	{"loadgen.achieved_qps", "1/s", "higher", 0, true},
	{"loadgen.late_p99_ms", "ms", "lower", 0, true},
	{"loadgen.max_backlog", "count", "lower", 0, true},
	{"loadgen.verified_p95_ms", "ms", "lower", 0, true},
	{"loadgen.verified_p99_ms", "ms", "lower", 0, true},
	{"loadgen.slo_miss_share", "share", "lower", 0, true},

	{"remote.search_p50_us", "us", "lower", 0, true},
	{"remote.search_mean_us", "us", "lower", 0, true},
	{"remote.wire_decode_us", "us", "lower", 0, true},
	{"remote.verify_us", "us", "lower", 0, true},
	{"remote.unaccounted_us", "us", "lower", 0, true},
	{"remote.tamper_rejections", "count", "higher", 0, true},

	{"httpapi.request_us", "us", "lower", 0, true},
	{"httpapi.overhead_us", "us", "lower", 0, true},
	{"httpapi.binary_frame_share", "share", "higher", 0, true},

	{"vocache.hit_ratio", "share", "higher", 0, true},
	{"vocache.lookup_us", "us", "lower", 0, false},
	{"vocache.evictions", "count", "lower", 0, true},
	{"vocache.invalidations", "count", "lower", 0, true},
	{"vocache.resident_mb", "MiB", "lower", 0, true},
	{"vocache.hit_path_us", "us", "lower", 0, true},

	{"textproc.terms_us", "us", "lower", 0, true},

	{"engine.stage_us", "us", "lower", 0, true},
	{"engine.search_us", "us", "lower", 0, true},
	{"engine.allocs_per_query", "count", "lower", 0, true},
	{"engine.alloc_kb_per_query", "KiB", "lower", 0, true},
	{"engine.entries_read_per_query", "count", "lower", 0, true},
	{"engine.pct_list_read", "%", "lower", 0, true},
	{"engine.build_s", "s", "lower", 0, false},
	{"engine.signatures", "count", "lower", 0, false},

	{"store.block_reads_per_query", "count", "lower", 0, true},
	{"store.random_reads_per_query", "count", "lower", 0, true},

	{"vo.encode_us", "us", "lower", 0, true},
	{"vo.decode_us", "us", "lower", 0, true},
	{"vo.decode_allocs_per_query", "count", "lower", 0, true},
	{"vo.bytes_per_query", "B", "lower", 0, true},
	{"vo.digest_share", "share", "lower", 0, true},

	{"wire.encode_us", "us", "lower", 0, true},
	{"wire.decode_us", "us", "lower", 0, true},
	{"wire.frame_bytes_per_query", "B", "lower", 0, true},
	{"wire.compress_ratio", "ratio", "higher", 0, true},

	{"core.verify_us", "us", "lower", 0, true},
	{"core.verify_allocs_per_query", "count", "lower", 0, true},
	{"core.verify_alloc_kb_per_query", "KiB", "lower", 0, true},

	{"sig.verify_us", "us", "lower", 0, true},
	{"sig.signatures_per_vo", "count", "lower", 0, true},

	{"snapshot.write_s", "s", "lower", 0, false},
	{"snapshot.bytes", "B", "lower", 0, true},
	{"snapshot.boot_ms", "ms", "lower", 0, true},

	{"live.generations", "count", "higher", 0, true},
	{"live.signatures_signed_per_update", "count", "lower", 0, true},
	{"live.signature_reuse_ratio", "share", "higher", 0, true},
	{"live.update_visible_p50_ms", "ms", "lower", 0, false},
	{"live.update_http_ms", "ms", "lower", 0, false},
	{"live.swap_lag_ms", "ms", "lower", 0, false},
	{"live.rebuild_ms", "ms", "lower", 0, false},
	{"live.vocab_growth_rebuild_s", "s", "lower", 0, false},

	{"trace.overhead_pct", "%", "lower", 0, true},
	{"trace.spans", "count", "lower", 0, true},
}

// measured is one reported value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports: the driver's contract line,
// and one entry of the -json document -compare reads.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// set records a value under a catalogued name; an unknown name is a bug
// in the benchmark, not in the system under test.
func (r *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.Metrics[name] = measured{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("bench: metric " + name + " is not in the catalog")
}

// contract returns the subset of r the driver's contract asks for: every
// end-to-end metric for an untraced run, every per-layer metric that all
// workloads have for a traced one.
func (r *result) contract(traced bool) (*result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := &result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]measured{}}
	for _, d := range defs {
		if !d.everywhere {
			continue
		}
		m, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = m
	}
	return out, nil
}

// print writes every measured metric by name with its unit, in catalog
// order.
func (r *result) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "workload %s: correct=%v attempted_ops=%d failed_ops=%d\n", workload, r.Correct, r.Attempted, r.Failed)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := r.Metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
}
