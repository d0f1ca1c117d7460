package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// searchFunc issues request number i of the workload's stream and returns
// once the answer has been VERIFIED (or failed). The load generator only
// sees this function, so tests can put a stalling fake behind it.
type searchFunc func(ctx context.Context, i int) error

// requestTimeout bounds one request; a request that exceeds it counts as
// failed and as an SLO miss.
const requestTimeout = 5 * time.Second

// sample is one finished request, with times as offsets from the start of
// its phase.
type sample struct {
	from time.Duration // open loop: the SCHEDULED send; closed loop: the actual send
	done time.Duration
	ok   bool
}

func (s sample) latencyMs() float64 { return float64(s.done-s.from) / float64(time.Millisecond) }

// phaseResult is what one timed phase measured.
type phaseResult struct {
	samples []sample
	// length is the planned phase length (windows are cut from it);
	// elapsed additionally covers draining the last requests.
	length, elapsed time.Duration
	// lateMs is how late the dispatcher itself ran, per request (open loop).
	lateMs     []float64
	maxBacklog int
}

func (p *phaseResult) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// latenciesByWindow groups the latencies of successful requests by the
// window their send time falls into.
func (p *phaseResult) latenciesByWindow() (byWindow [windows][]float64, all []float64) {
	for _, s := range p.samples {
		if !s.ok {
			continue
		}
		w := windowIndex(s.from.Seconds(), p.length.Seconds())
		byWindow[w] = append(byWindow[w], s.latencyMs())
		all = append(all, s.latencyMs())
	}
	sort.Float64s(all)
	return byWindow, all
}

// throughputByWindow returns verified answers per second for each window
// of the phase, by completion time. Completions after the planned length
// (the drain) belong to no window.
func (p *phaseResult) throughputByWindow() []float64 {
	var counts [windows]int
	for _, s := range p.samples {
		if s.ok && s.done < p.length {
			counts[windowIndex(s.done.Seconds(), p.length.Seconds())]++
		}
	}
	per := make([]float64, windows)
	for i, c := range counts {
		per[i] = float64(c) / (p.length.Seconds() / windows)
	}
	return per
}

// sloMissShare is the share of attempted requests that failed or took
// longer than limitMs.
func (p *phaseResult) sloMissShare(limitMs float64) float64 {
	miss := 0
	for _, s := range p.samples {
		if !s.ok || s.latencyMs() > limitMs {
			miss++
		}
	}
	return ratio(float64(miss), float64(len(p.samples)))
}

// openLoop sends requests on a fixed schedule — request k is due at
// start + k/rate — whatever the system under test does. A dispatcher
// feeds a queue that `workers` connections drain, so a stall shows up as
// queueing delay on the requests behind it, never as fewer requests
// (no coordinated omission): latency runs from the scheduled send time.
// next hands out stream positions so consecutive phases continue the
// stream instead of replaying it.
func openLoop(ctx context.Context, search searchFunc, next *atomic.Int64, rate float64, length time.Duration, workers int) *phaseResult {
	type job struct {
		i   int
		due time.Duration
	}
	n := int(rate * length.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	// Sized to the number of sends: the dispatcher must never block on a
	// slow system, the backlog must grow instead.
	queue := make(chan job, n)
	res := &phaseResult{length: length, lateMs: make([]float64, 0, n)}

	start := time.Now()
	perWorker := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range queue {
				rctx, cancel := context.WithTimeout(ctx, requestTimeout)
				err := search(rctx, j.i)
				cancel()
				perWorker[w] = append(perWorker[w], sample{from: j.due, done: time.Since(start), ok: err == nil})
			}
		}(w)
	}
dispatch:
	for k := 0; k < n; k++ {
		due := time.Duration(k) * interval
		if wait := due - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				break dispatch
			}
		}
		res.lateMs = append(res.lateMs, float64(time.Since(start)-due)/float64(time.Millisecond))
		queue <- job{i: int(next.Add(1) - 1), due: due}
		if b := len(queue); b > res.maxBacklog {
			res.maxBacklog = b
		}
	}
	close(queue)
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, s := range perWorker {
		res.samples = append(res.samples, s...)
	}
	sort.Float64s(res.lateMs)
	return res
}

// closedLoop runs `workers` clients back to back for the given length:
// each sends its next request as soon as the previous answer is verified.
// It measures capacity, and by construction hides queueing.
func closedLoop(ctx context.Context, search searchFunc, next *atomic.Int64, length time.Duration, workers int) *phaseResult {
	res := &phaseResult{length: length}
	start := time.Now()
	perWorker := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				from := time.Since(start)
				if from >= length {
					return
				}
				rctx, cancel := context.WithTimeout(ctx, requestTimeout)
				err := search(rctx, int(next.Add(1)-1))
				cancel()
				perWorker[w] = append(perWorker[w], sample{from: from, done: time.Since(start), ok: err == nil})
			}
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, s := range perWorker {
		res.samples = append(res.samples, s...)
	}
	return res
}
