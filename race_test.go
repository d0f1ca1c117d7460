package authtext

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// The Client's one-time manifest check must be safe under concurrent
// Verify calls (it used to be a racy bool; now a sync.Once). Run with
// -race to enforce.
func TestClientVerifyConcurrent(t *testing.T) {
	owner, err := NewOwner(snapshotTestDocs())
	if err != nil {
		t.Fatal(err)
	}
	server, client := owner.Server(), owner.Client()
	res, err := server.Search("merkle tree", 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := client.Verify("merkle tree", 3, res); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// The session-refactor regression: one UNSHARDED collection hammered with
// parallel Search+Verify across all four Algorithm×Scheme variants. The
// old engine kept disk-head position and I/O statistics in device-wide
// shared state — Device.Stats/ResetStats raced unless a collection-wide mutex serialized every query. Sessions
// replaced that API; this test (run with -race in CI) would fail on any
// return to shared per-device accounting.
func TestUnshardedParallelSearchVerifyRace(t *testing.T) {
	owner, err := NewOwner(snapshotTestDocs())
	if err != nil {
		t.Fatal(err)
	}
	server, client := owner.Server(), owner.Client()
	queries := []string{"merkle tree", "inverted index", "verification object", "threshold", "signed root"}
	variants := []struct {
		algo   Algorithm
		scheme Scheme
	}{{TRA, MHT}, {TRA, ChainMHT}, {TNRA, MHT}, {TNRA, ChainMHT}}

	const goroutines = 17
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q := queries[(g+i)%len(queries)]
				v := variants[(g+i)%len(variants)]
				res, err := server.Search(q, 3, v.algo, v.scheme)
				if err != nil {
					errs[g] = err
					return
				}
				if err := client.Verify(q, 3, res); err != nil {
					errs[g] = err
					return
				}
				if len(res.Hits) > 0 && res.Stats.BlockReads == 0 {
					errs[g] = fmt.Errorf("query %q returned hits without I/O", q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// The cache-under-update regression: 16 goroutines hammer one VO cache,
// through a server re-pinned to the live owner's current generation per
// query — the Zipf head repeating (cache hits) alongside unique
// tails (misses and fills) — while updates swap the generation under
// them. The cache is lock-sharded and the generation lives inside every
// key, so the only acceptable outcomes per response are a clean verify
// or ErrStaleGeneration from a client that hasn't caught up; anything
// else (a torn entry, a cross-generation hit, a tampered VO) fails. Run
// with -race to enforce.
func TestCachedLiveOwnerConcurrentHammer(t *testing.T) {
	owner, _, err := NewLiveOwner(snapshotTestDocs(),
		WithFastSigner([]byte("cache-hammer")), WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewVOCache(8 << 20)
	pin := func() *Server {
		srv := owner.Server()
		srv.SetVOCache(cache)
		return srv
	}
	hot := []string{"merkle tree", "inverted index", "verification object", "signed root"}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	var verified atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := owner.Client()
			for i := 0; i < 30; i++ {
				q := hot[(g+i)%len(hot)]
				if i%7 == 0 {
					// A cold tail query keeps the miss/fill path busy too.
					q = fmt.Sprintf("unique%dtail%d", g, i)
				}
				algo := TNRA
				if (g+i)%2 == 0 {
					algo = TRA
				}
				res, err := pin().Search(q, 3, algo, ChainMHT)
				if err != nil {
					errs[g] = err
					return
				}
				err = client.Verify(q, 3, res)
				if errors.Is(err, ErrStaleGeneration) {
					// The generation moved under us; catch up and retry once.
					if err := client.Advance(owner.ManifestUpdate()); err != nil {
						errs[g] = err
						return
					}
					err = client.Verify(q, 3, res)
					if errors.Is(err, ErrStaleGeneration) {
						continue // moved again between Search and Advance
					}
				}
				if err != nil {
					errs[g] = fmt.Errorf("iter %d %q: %w", i, q, err)
					return
				}
				verified.Add(1)
			}
		}(g)
	}
	// The updater swaps generations under the readers the whole time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for u := 0; u < 12; u++ {
			doc := Document{Content: fmt.Appendf(nil, "hammer update document %d merkle", u)}
			if _, _, err := owner.Update([]Document{doc}, nil); err != nil {
				errs[0] = err
				return
			}
		}
	}()
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	st := cache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("hammer never exercised both cache paths: %+v", st)
	}
	if verified.Load() == 0 {
		t.Error("no response ever verified")
	}
}
