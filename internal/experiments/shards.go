package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"authtext/internal/core"
	"authtext/internal/corpus"
	"authtext/internal/engine"
	"authtext/internal/shard"
	"authtext/internal/sig"
	"authtext/internal/workload"
)

// ShardPoint is one row of the sharding experiment: the same corpus built
// and queried as a k-shard set.
type ShardPoint struct {
	Shards int
	// Build is the owner-side wall time for the full (parallel) build.
	Build time.Duration
	// ShardLatency is the mean critical-path query latency: the slowest
	// shard's server wall time per fanned-out query. This is the latency a
	// deployment with one core (or host) per shard observes, and the
	// figure of merit for fan-out: per-shard work shrinks with k.
	ShardLatency time.Duration
	// ShardListed and ShardEntries are the deterministic side of per-shard
	// work (they repeat exactly from run to run): the mean, over queries,
	// of the most query-list entries any one shard holds — the bound on
	// what a shard can be made to read, which shrinks as documents spread
	// over more shards — and of the most entries any one shard actually
	// read, which for top-r TNRA barely moves: early termination already
	// reads a prefix sized by r, not by the list.
	ShardListed  float64
	ShardEntries float64
	// FanoutWall is the mean end-to-end fan-out wall time on THIS host —
	// it approaches ShardLatency only when spare cores back the shards.
	FanoutWall time.Duration
	// Verify is the mean client-side verification time (all shard VOs +
	// the merge).
	Verify time.Duration
	// Throughput is queries/second with GOMAXPROCS concurrent clients.
	Throughput float64
	// VOBytes is the mean summed VO size across shards per query.
	VOBytes float64
}

// ShardReport is the result of ShardCompare.
type ShardReport struct {
	Points []ShardPoint
}

// ShardCompare builds the profile's corpus as 1-, 2-, 4- and 8-shard sets
// (shard counts above the document count are skipped), asks each the same
// queries — drawn once from the unsharded dictionary, so the rows are
// comparable — and reports build time, per-shard critical-path latency
// and its deterministic counterparts, end-to-end fan-out wall time,
// verification time and parallel throughput. Every answer is fully
// verified (every shard VO plus the merged ranking).
func ShardCompare(p corpus.Profile, queries int, w io.Writer) (*ShardReport, error) {
	signer, err := sig.NewHMACSigner([]byte("shards-"+p.Name), 128)
	if err != nil {
		return nil, err
	}
	docs := corpus.Generate(p)
	if queries < 1 {
		queries = 20
	}

	rep := &ShardReport{}
	var qs [][]string // drawn once, from the unsharded dictionary: every k answers the same queries
	fmt.Fprintln(w, "Sharded fan-out vs a single collection (TNRA-CMHT, r=10)")
	fmt.Fprintf(w, "  shard-latency is the slowest shard per query (one core/host per shard);\n")
	fmt.Fprintf(w, "  fanout-wall is end-to-end on this host (GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "  %-7s %10s %14s %12s %13s %12s %10s %12s %9s\n",
		"shards", "build", "shard-latency", "shard-listed", "shard-entries", "fanout-wall", "verify", "queries/sec", "vo-bytes")
	for _, k := range []int{1, 2, 4, 8} {
		if k > len(docs) {
			continue
		}
		start := time.Now()
		set, err := shard.Build(docs, shard.Config{Engine: engine.DefaultConfig(signer), Shards: k})
		if err != nil {
			return nil, fmt.Errorf("experiments: %d shards: %w", k, err)
		}
		point := ShardPoint{Shards: k, Build: time.Since(start)}

		if qs == nil {
			qs = workload.Synthetic(set.Col(0).Index(), queries, 3, 101)
		}
		var voSum, critPath, critListed, critEntries float64
		var fanout, verify time.Duration
		for _, q := range qs {
			start = time.Now()
			res, err := set.Search(q, 10, core.AlgoTNRA, core.SchemeCMHT)
			if err != nil {
				return nil, err
			}
			fanout += time.Since(start)
			var worst, worstListed float64
			var worstEntries int
			for _, sr := range res.PerShard {
				voSum += float64(len(sr.VO))
				if s := sr.Stats.ServerWall.Seconds(); s > worst {
					worst = s
				}
				if sr.Stats.EntriesRead > worstEntries {
					worstEntries = sr.Stats.EntriesRead
				}
				if l := sr.Stats.AvgListLen * float64(sr.Stats.QueryTerms); l > worstListed {
					worstListed = l
				}
			}
			critPath += worst
			critEntries += float64(worstEntries)
			critListed += worstListed
			start = time.Now()
			if err := set.VerifyResult(q, 10, res); err != nil {
				return nil, fmt.Errorf("experiments: %d shards: %w", k, err)
			}
			verify += time.Since(start)
		}
		n := len(qs)
		point.ShardLatency = time.Duration(critPath / float64(n) * float64(time.Second))
		point.ShardEntries = critEntries / float64(n)
		point.ShardListed = critListed / float64(n)
		point.FanoutWall = fanout / time.Duration(n)
		point.Verify = verify / time.Duration(n)
		point.VOBytes = voSum / float64(n)

		// Throughput: concurrent clients hammering the same set.
		clients := runtime.GOMAXPROCS(0)
		start = time.Now()
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < queries; i++ {
					if _, err := set.Search(qs[(c+i)%len(qs)], 10, core.AlgoTNRA, core.SchemeCMHT); err != nil {
						errs[c] = err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		point.Throughput = float64(clients*queries) / time.Since(start).Seconds()

		rep.Points = append(rep.Points, point)
		fmt.Fprintf(w, "  %-7d %10v %14v %12.1f %13.1f %12v %10v %12.0f %9.0f\n",
			k, point.Build.Round(time.Millisecond), point.ShardLatency.Round(time.Microsecond),
			point.ShardListed, point.ShardEntries,
			point.FanoutWall.Round(time.Microsecond), point.Verify.Round(time.Microsecond),
			point.Throughput, point.VOBytes)
	}
	return rep, nil
}
