package authtext

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
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

// RemoteClient shares one Client across concurrent Search calls; the same
// once-guard covers it. Run with -race to enforce.
func TestRemoteClientConcurrentSearch(t *testing.T) {
	owner, err := NewOwner(snapshotTestDocs())
	if err != nil {
		t.Fatal(err)
	}
	handler, err := owner.HTTPHandler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := rc.Search(ctx, "inverted index", 2, TNRA, ChainMHT); err != nil {
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

// One Server hammered from many goroutines: the engine's read path is
// lock-free (per-query store sessions over an immutable collection), and
// every concurrent answer must still verify. Run with -race to enforce.
func TestServerConcurrentSearch(t *testing.T) {
	owner, err := NewOwner(snapshotTestDocs())
	if err != nil {
		t.Fatal(err)
	}
	server, client := owner.Server(), owner.Client()
	queries := []string{"merkle tree", "inverted index", "verification object", "threshold"}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q := queries[(g+i)%len(queries)]
				algo := TNRA
				if (g+i)%2 == 0 {
					algo = TRA
				}
				res, err := server.Search(q, 3, algo, ChainMHT)
				if err != nil {
					errs[g] = err
					return
				}
				if err := client.Verify(q, 3, res); err != nil {
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
// parallel Search+Verify across all four Algorithm×Scheme variants, with
// SearchBatch calls mixed in. The old engine kept disk-head position and
// I/O statistics in device-wide shared state — Device.Stats/ResetStats
// raced unless a collection-wide mutex serialized every query. Sessions
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

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines+1)
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
	// One more goroutine drives the batch API against the same collection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := make([]BatchQuery, 2*len(queries))
		for i := range batch {
			v := variants[i%len(variants)]
			batch[i] = BatchQuery{Query: queries[i%len(queries)], R: 3, Algorithm: v.algo, Scheme: v.scheme}
		}
		for round := 0; round < 4; round++ {
			for i, item := range server.SearchBatch(batch, 4) {
				if item.Err != nil {
					errs[goroutines] = item.Err
					return
				}
				if err := client.Verify(batch[i].Query, 3, item.Result); err != nil {
					errs[goroutines] = err
					return
				}
			}
		}
	}()
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// The cache-under-update regression: 16 goroutines hammer one cached
// LiveServer — the Zipf head repeating (cache hits) alongside unique
// tails (misses and fills) — while updates swap the generation under
// them. The cache is lock-sharded and the generation lives inside every
// key, so the only acceptable outcomes per response are a clean verify
// or ErrStaleGeneration from a client that hasn't caught up; anything
// else (a torn entry, a cross-generation hit, a tampered VO) fails. Run
// with -race to enforce.
func TestCachedLiveServerConcurrentHammer(t *testing.T) {
	owner, _, err := NewLiveOwner(snapshotTestDocs(),
		WithFastSigner([]byte("cache-hammer")), WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	srv := owner.Server()
	cache := NewVOCache(8 << 20)
	srv.SetVOCache(cache)
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
				res, err := srv.Search(q, 3, algo, ChainMHT)
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

// A ShardedServer fans every query out to goroutines internally AND is
// hammered from many client goroutines here; every merged answer must
// verify, including the merge recomputation. Run with -race to enforce.
func TestShardedServerConcurrentSearch(t *testing.T) {
	owner, err := NewShardedOwner(snapshotTestDocs(), 4,
		WithFastSigner([]byte("sharded-race")), WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	server, client := owner.Server(), owner.Client()
	queries := []string{"merkle tree", "inverted index", "verification object", "signed root"}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q := queries[(g+i)%len(queries)]
				algo := TNRA
				if (g+i)%2 == 0 {
					algo = TRA
				}
				res, err := server.Search(q, 3, algo, ChainMHT)
				if err != nil {
					errs[g] = err
					return
				}
				if err := client.Verify(q, 3, res); err != nil {
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

// ShardedRemoteClient shares one ShardedClient across concurrent Search
// calls over a real HTTP boundary. Run with -race to enforce.
func TestShardedRemoteClientConcurrentSearch(t *testing.T) {
	owner, err := NewShardedOwner(snapshotTestDocs(), 3,
		WithFastSigner([]byte("sharded-remote-race")), WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	handler, err := owner.HTTPHandler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const goroutines = 6
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := rc.Search(ctx, "inverted index", 2, TNRA, ChainMHT); err != nil {
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
