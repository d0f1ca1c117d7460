package engine

import (
	"sync"
	"sync/atomic"
)

// buildChunk is how many items' computed bytes the build holds between the
// compute and layout phases: enough work per barrier (hundreds of signatures)
// to keep every core busy, while the transient copy of the device contents
// stays a sliver of a large collection rather than a second full copy.
const buildChunk = 512

// computeThenLayout is the shape of the owner's build. compute(i) — hashing,
// signing, encoding — runs for each i in [0, n) on workers goroutines, in no
// particular order; layout(i, v) then consumes the results on the calling
// goroutine in strictly ascending i, which is what keeps device extents
// identical whatever the parallelism. compute may write to per-i slots of
// shared tables but must not touch anything layout mutates.
//
// The first compute error stops the build: workers finish the item in hand,
// claim no more, and the error is returned once all of them have exited — no
// goroutine outlives the call.
func computeThenLayout[T any](n, workers int, compute func(i int) (T, error), layout func(i int, v T)) error {
	out := make([]T, min(n, buildChunk))
	for lo := 0; lo < n; lo += len(out) {
		span := min(len(out), n-lo)
		var (
			next     atomic.Int64 // offset of the next unclaimed item of the chunk
			wg       sync.WaitGroup
			failed   atomic.Bool
			firstErr error // written by the worker that set failed, read after Wait
		)
		for w := min(workers, span); w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !failed.Load() {
					j := int(next.Add(1)) - 1
					if j >= span {
						return
					}
					v, err := compute(lo + j)
					if err != nil {
						if failed.CompareAndSwap(false, true) {
							firstErr = err
						}
						return
					}
					out[j] = v
				}
			}()
		}
		wg.Wait()
		if failed.Load() {
			return firstErr
		}
		for j := 0; j < span; j++ {
			layout(lo+j, out[j])
		}
	}
	return nil
}
