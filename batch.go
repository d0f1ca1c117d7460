package authtext

import (
	"runtime"
	"sync"
)

// This file is the facade's batch query API. A built collection is an
// immutable, concurrently searchable structure (docs/CONCURRENCY.md), so a
// batch of queries is executed by a bounded pool of workers pulling from a
// shared queue — per-query stats are exactly what each query would report
// alone, because every query runs on its own store session.

// BatchQuery is one query of a SearchBatch call.
type BatchQuery struct {
	Query     string
	R         int
	Algorithm Algorithm
	Scheme    Scheme
}

// BatchItem is the outcome of one batch query: the verified-result payload
// (with its VO and per-query stats) or the error that query produced.
// Index i of SearchBatch's result corresponds to index i of its input.
type BatchItem struct {
	Result *SearchResult
	Err    error
}

// BatchConcurrency resolves a worker-count argument: values < 1 default to
// GOMAXPROCS, and the count never exceeds the number of queries.
func batchConcurrency(workers, queries int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > queries {
		workers = queries
	}
	return workers
}

// runBatch executes one job per index with a bounded worker pool.
func runBatch(n, workers int, job func(i int)) {
	workers = batchConcurrency(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// SearchBatch answers a batch of queries concurrently with at most workers
// goroutines (workers < 1 defaults to GOMAXPROCS). Results (or per-query
// errors) come back in input order; one failing query does not abort the
// rest. Each query carries the same per-query statistics it would report if
// executed alone. Over a shard set every query still fans out to every shard,
// so the total shard-query concurrency is workers × shards.
func (s *Server) SearchBatch(queries []BatchQuery, workers int) []BatchItem {
	out := make([]BatchItem, len(queries))
	runBatch(len(queries), workers, func(i int) {
		q := queries[i]
		out[i].Result, out[i].Err = s.Search(q.Query, q.R, q.Algorithm, q.Scheme)
	})
	return out
}
