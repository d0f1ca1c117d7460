package authtext_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"authtext"
	"authtext/internal/fleet"
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
	handler http.Handler
	stop    chan struct{}
	done    chan struct{}
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
		handler: handler,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
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

// halt stops the reload loop.
func (p *propReplica) halt() {
	close(p.stop)
	<-p.done
}

// propSlot is one address in the front end's fixed backend list. Its
// handler switches atomically between a replica's handler and a stub that
// closes the connection: a front end started with a fixed -fleet list sees
// replicas join, leave and crash only as an address that starts or stops
// answering.
type propSlot struct {
	srv     *httptest.Server
	replica atomic.Pointer[propReplica]
}

func newPropSlot() *propSlot {
	s := &propSlot{}
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p := s.replica.Load(); p != nil {
			p.handler.ServeHTTP(w, r)
			return
		}
		panic(http.ErrAbortHandler) // a dark address: hang up without answering
	}))
	return s
}

// darken switches the slot to the hang-up stub and stops its replica; a
// crash also cuts the connections already open to it.
func (s *propSlot) darken(crash bool) {
	p := s.replica.Swap(nil)
	if crash {
		s.srv.CloseClientConnections()
	}
	p.halt()
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

	// Slot 0 holds a replica for the whole run so the fleet never goes
	// fully dark; churn only ever touches the four extra slots, which
	// start dark.
	slots := make([]*propSlot, 5)
	urls := make([]string, len(slots))
	for i := range slots {
		slots[i] = newPropSlot()
		urls[i] = slots[i].srv.URL
	}
	slots[0].replica.Store(startPropReplica(t, dir))
	defer func() {
		for _, s := range slots {
			if p := s.replica.Load(); p != nil {
				p.halt()
			}
			s.srv.CloseClientConnections()
			s.srv.Close()
		}
	}()
	fe, err := fleet.New(fleet.Config{
		Backends:       urls,
		ProbeInterval:  15 * time.Millisecond,
		AttemptTimeout: 500 * time.Millisecond,
		MaxAttempts:    3,
		EjectAfter:     2,
		EjectFor:       30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fes := httptest.NewServer(fe)
	defer fes.Close()

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

	// The chaos schedule: publish generations; replicas join, leave and
	// crash behind the extra slots.
	extra := func(live bool) *propSlot {
		for _, s := range slots[1:] {
			if (s.replica.Load() != nil) == live {
				return s
			}
		}
		return nil
	}
	nextDoc := 12
	for op := 0; op < 24; op++ {
		switch rng.Intn(4) {
		case 0: // owner publishes a new generation
			if _, _, err := owner.Update(liveRemoteDocs(nextDoc, 1), nil); err != nil {
				t.Fatal(err)
			}
			nextDoc++
		case 1: // a replica joins
			if s := extra(false); s != nil {
				s.replica.Store(startPropReplica(t, dir))
			}
		case 2: // a replica leaves gracefully
			if s := extra(true); s != nil {
				s.darken(false)
			}
		case 3: // a replica crashes (ejection's job)
			if s := extra(true); s != nil {
				s.darken(true)
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
	// The anchor reloads every 10ms and probes run every 15ms, so by the
	// end of the schedule the watermark /v1/fleet/healthz reports must
	// catch up with the owner.
	watermark := func() uint64 {
		resp, err := http.Get(fes.URL + fleet.PathFleetHealthz)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h fleet.FleetHealth
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h.Generation
	}
	want := owner.Generation()
	deadline := time.Now().Add(5 * time.Second)
	got := watermark()
	for got != want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		got = watermark()
	}
	if got != want {
		t.Fatalf("fleet watermark %d never reached owner generation %d", got, want)
	}
}
