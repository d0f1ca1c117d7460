package authtext_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"authtext"
	"authtext/internal/fleet"
)

// Chaos battery: every availability fault a flaky network or dying
// replica can inject — connection drops, injected 5xx, multi-second
// stalls, responses truncated mid-body — must surface to the verifying
// client as a PLAIN error. None of them can forge signed data, so a
// single IsTampered misclassification here would teach operators to
// ignore the one alarm that matters. The chaos proxy lives in
// internal/fleet and is shared with the front-end ride-through tests.

func chaosOwner(t *testing.T) (*authtext.LiveOwner, http.Handler) {
	t.Helper()
	owner, _, err := authtext.NewLiveOwner(liveRemoteDocs(0, 12))
	if err != nil {
		t.Fatal(err)
	}
	h, err := owner.HTTPHandler()
	if err != nil {
		t.Fatal(err)
	}
	return owner, h
}

var chaosModes = []struct {
	name string
	mode fleet.FaultMode
}{
	{"Drop", fleet.Drop},
	{"Err500", fleet.Err500},
	{"Err503", fleet.Err503},
	{"Delay", fleet.Delay},
	{"Truncate", fleet.Truncate},
}

// A client talking straight to a chaos-wrapped replica: every fault mode
// yields an error, never a tamper classification, and the client
// recovers the moment the fault clears — no poisoned state.
func TestChaosFaultsNeverClassifyAsTampering(t *testing.T) {
	_, handler := chaosOwner(t)
	replica := httptest.NewServer(handler)
	defer replica.Close()
	p := fleet.NewChaosProxy(replica.URL)
	defer p.Close()

	rc, err := authtext.NewRemoteClient(p.URL(),
		authtext.WithHTTPClient(&http.Client{Timeout: 500 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	search := func() error {
		_, err := rc.Search(ctx, "merkle tree proof", 5, authtext.TNRA, authtext.ChainMHT)
		return err
	}
	if err := search(); err != nil {
		t.Fatalf("bootstrap through passive proxy: %v", err)
	}

	p.SetDelay(time.Second) // > client timeout
	for _, tc := range chaosModes {
		t.Run(tc.name, func(t *testing.T) {
			p.SetMode(tc.mode)
			err := search()
			if err == nil {
				t.Fatalf("%s: search succeeded through an injected fault", tc.name)
			}
			if authtext.IsTampered(err) {
				t.Fatalf("%s: transport fault misclassified as tampering: %v", tc.name, err)
			}
			p.SetMode(fleet.Pass)
			if err := search(); err != nil {
				t.Fatalf("%s: client did not recover once the fault cleared: %v", tc.name, err)
			}
		})
	}
	if p.Faults() == 0 {
		t.Fatal("chaos proxy injected no faults")
	}
}

// End-to-end failover: two real replicas behind a real front end, one of
// them wrapped in chaos. Under every fault mode the client must keep
// getting VERIFIED answers via the healthy replica, with zero tampering
// classifications along the way.
func TestFrontendFailoverUnderChaos(t *testing.T) {
	_, handler := chaosOwner(t)
	clean := httptest.NewServer(handler)
	defer clean.Close()
	victim := httptest.NewServer(handler)
	defer victim.Close()
	p := fleet.NewChaosProxy(victim.URL)
	defer p.Close()

	fe, err := fleet.New(fleet.Config{
		Backends:       []string{clean.URL, p.URL()},
		ProbeInterval:  20 * time.Millisecond,
		AttemptTimeout: 300 * time.Millisecond,
		MaxAttempts:    3,
		EjectAfter:     2,
		EjectFor:       50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fes := httptest.NewServer(fe)
	defer fes.Close()

	rc, err := authtext.NewRemoteClient(fes.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := rc.Search(ctx, "merkle tree proof", 5, authtext.TRA, authtext.ChainMHT); err != nil {
		t.Fatalf("bootstrap through front end: %v", err)
	}

	p.SetDelay(time.Second) // > per-attempt timeout
	for _, tc := range chaosModes {
		p.SetMode(tc.mode)
		// The fault window may cost a request or two while probes catch up
		// (Truncate in particular fails after the status line was already
		// relayed, so the front end cannot retry it); what is forbidden is
		// a tamper classification or a failure to converge.
		deadline := time.Now().Add(10 * time.Second)
		streak := 0
		for streak < 8 {
			_, err := rc.Search(ctx, "merkle tree proof", 5, authtext.TNRA, authtext.ChainMHT)
			if err != nil {
				if authtext.IsTampered(err) {
					t.Fatalf("%s: fault through front end misclassified as tampering: %v", tc.name, err)
				}
				streak = 0
			} else {
				streak++
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: front end never converged to steady verified answers (last err: %v)", tc.name, err)
			}
		}
		p.SetMode(fleet.Pass)
	}
}

// The cross-check detector sees a chaos-dropped replica as unavailable —
// a crash is not evidence of equivocation.
func TestFleetCrossCheckThroughChaos(t *testing.T) {
	_, handler := chaosOwner(t)
	a := httptest.NewServer(handler)
	defer a.Close()
	b := httptest.NewServer(handler)
	defer b.Close()
	p := fleet.NewChaosProxy(b.URL)
	defer p.Close()

	fc, err := authtext.NewFleetClient(a.URL, []string{a.URL, p.URL()},
		authtext.WithFleetRemoteOptions(
			authtext.WithHTTPClient(&http.Client{Timeout: 500 * time.Millisecond})))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := fc.CrossCheck(ctx); err != nil {
		t.Fatalf("healthy cross-check: %v", err)
	}

	p.SetMode(fleet.Drop)
	rep, err := fc.CrossCheck(ctx)
	if err != nil {
		t.Fatalf("cross-check with one dropped replica must not fail: %v", err)
	}
	st := rep.Replicas[1]
	if st.Err == nil || !st.Unavailable {
		t.Fatalf("dropped replica status: err=%v unavailable=%v, want a transport error", st.Err, st.Unavailable)
	}
	if rep.Equivocation != nil {
		t.Fatalf("drop misclassified as equivocation: %v", rep.Equivocation)
	}
}
