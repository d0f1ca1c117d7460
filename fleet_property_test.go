package authtext_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"authtext"
)

// Randomized fleet property test: replicas join, leave and crash, the
// owner keeps publishing generations, and every verified answer each
// client receives must satisfy two invariants regardless of the
// interleaving:
//
//  1. no tampering classification, ever — membership churn, crashes and
//     mid-swap routing are availability events, and the fleet serves
//     only honest data here;
//  2. per-client generation monotonicity — once a client has verified a
//     generation-G answer it never verifies an answer from G' < G, even
//     when a request lands on a replica that has not reloaded yet.
//
// The schedule is driven by a fixed seed so a failure replays; the suite
// is part of the -race battery (frontend routing state, replica reload
// swaps and client advances all interleave here).

// propReplica is one snapshot-serving replica with its own reload loop.
type propReplica struct {
	srv  *httptest.Server
	stop chan struct{}
	done chan struct{}
}

func startPropReplica(t *testing.T, dir string) *propReplica {
	t.Helper()
	rep, err := authtext.OpenLiveSnapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	handler, err := rep.HTTPHandler()
	if err != nil {
		t.Fatal(err)
	}
	p := &propReplica{
		srv:  httptest.NewServer(handler),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				rep.Reload()
			}
		}
	}()
	return p
}

// halt stops the reload loop and the server (crash or graceful removal —
// from the fleet's perspective both are just a dead address).
func (p *propReplica) halt() {
	close(p.stop)
	<-p.done
	p.srv.CloseClientConnections()
	p.srv.Close()
}

func TestFleetRandomizedChurnInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second randomized fleet schedule")
	}
	rng := rand.New(rand.NewSource(20260808))
	owner, _, err := authtext.NewLiveOwner(liveRemoteDocs(0, 12))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := owner.PersistGenerations(dir, nil); err != nil {
		t.Fatal(err)
	}

	// Replica 0 lives for the whole run so the fleet never goes fully
	// dark; churn only ever touches the extras.
	anchor := startPropReplica(t, dir)
	defer anchor.halt()
	fe, err := authtext.NewFrontend([]string{anchor.srv.URL},
		authtext.WithFrontendProbeInterval(15*time.Millisecond),
		authtext.WithFrontendRetry(3, 500*time.Millisecond),
		authtext.WithFrontendEjection(2, 30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fes := httptest.NewServer(fe)
	defer fes.Close()

	extras := make(map[string]*propReplica)
	defer func() {
		for _, p := range extras {
			p.halt()
		}
	}()

	// Query workers: each holds its OWN verifying client (monotonicity is
	// a per-client property) and hammers the front end until told to stop.
	const workers = 4
	ctx := context.Background()
	queries := []string{"merkle tree", "signature verification", "inverted index", "digest root"}
	stop := make(chan struct{})
	violations := make([]error, workers)
	var searches atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rc, err := authtext.NewRemoteClient(fes.URL)
			if err != nil {
				violations[w] = err
				return
			}
			var lastGen uint64
			algo := authtext.TRA
			if w%2 == 1 {
				algo = authtext.TNRA
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := rc.Search(ctx, queries[(w+i)%len(queries)], 5, algo, authtext.ChainMHT)
				if err != nil {
					// Transient refusals (a crashed replica mid-request, a
					// momentarily dark rotation) are legitimate; tampering is
					// not — the fleet is honest throughout this test.
					if authtext.IsTampered(err) {
						violations[w] = fmt.Errorf("worker %d: honest churn classified as tampering: %w", w, err)
						return
					}
					continue
				}
				searches.Add(1)
				if res.Generation < lastGen {
					violations[w] = fmt.Errorf("worker %d: verified generation regressed %d -> %d", w, lastGen, res.Generation)
					return
				}
				lastGen = res.Generation
			}
		}(w)
	}

	// The chaos schedule: publish generations, add/remove/crash replicas.
	nextDoc := 12
	for op := 0; op < 24; op++ {
		switch rng.Intn(4) {
		case 0: // owner publishes a new generation
			if _, _, err := owner.AddDocuments(liveRemoteDocs(nextDoc, 1)); err != nil {
				t.Fatal(err)
			}
			nextDoc++
		case 1: // a replica joins
			if len(extras) < 4 {
				p := startPropReplica(t, dir)
				// A crashed backend stays registered until ejection has no
				// more work to do; if the OS hands its port to the newcomer
				// the add is a duplicate — skip, don't fail.
				if err := fe.AddBackend(p.srv.URL); err != nil {
					p.halt()
					break
				}
				extras[p.srv.URL] = p
			}
		case 2: // a replica leaves gracefully
			for url, p := range extras {
				fe.RemoveBackend(url)
				p.halt()
				delete(extras, url)
				break
			}
		case 3: // a replica crashes and stays in rotation (ejection's job)
			for url, p := range extras {
				p.halt()
				delete(extras, url)
				break
			}
		}
		time.Sleep(time.Duration(20+rng.Intn(60)) * time.Millisecond)
	}

	close(stop)
	wg.Wait()
	for _, err := range violations {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := searches.Load(); n < int64(workers)*10 {
		t.Fatalf("only %d verified searches completed across the schedule; the fleet was effectively dark", n)
	}
	if got, want := fe.Generation(), owner.Generation(); got != want {
		// The anchor reloads every 10ms and probes run every 15ms, so by
		// the end of the schedule the watermark must have caught up.
		deadline := time.Now().Add(5 * time.Second)
		for fe.Generation() != want && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if fe.Generation() != want {
			t.Fatalf("fleet watermark %d never reached owner generation %d", got, want)
		}
	}
}
