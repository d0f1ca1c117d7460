package authtext

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"authtext/internal/core"
	"authtext/internal/httpapi"
	"authtext/internal/obs"
)

// Equivocation battery (docs/FLEET.md): a fleet of replicas — unlike a
// single server — can show different users different SIGNED states of
// the collection, each of which verifies in isolation. The FleetClient's
// cross-check must classify every such conflict as tampering
// (ErrEquivocation, IsTampered true) and must never promote plain
// unavailability into that class. Three attack shapes are pinned here,
// each for both query algorithms:
//
//   - split view: two different signed manifests for one generation
//   - forked chain: a replica invents a future generation the owner
//     never published, diverging from the honest history
//   - frozen replica: one replica withholds updates indefinitely while
//     the fleet advances (equivocation by omission)
//
// The forgeries are made with the owner's real signer, so signature
// verification alone accepts them — exactly the gap cross-replica
// comparison exists to close.

// forgeExport builds a client-export blob whose manifest is a mutated
// copy of the owner's current one, genuinely signed with the owner's
// key. mutate must keep the manifest Validate-clean.
func forgeExport(t *testing.T, owner *LiveOwner, mutate func(*core.Manifest)) []byte {
	t.Helper()
	honest, err := owner.Client().Export()
	if err != nil {
		t.Fatal(err)
	}
	raw, _, der, err := splitClientExport(honest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	mutate(m)
	enc := m.Encode()
	sg, err := owner.lc.Signer().Sign(enc)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), exportMagic...)
	out = appendChunk(out, enc)
	out = appendChunk(out, sg)
	return appendChunk(out, der)
}

// manifestStub is a minimal replica that serves a swappable export on
// /v1/manifest — the mouthpiece for forged or frozen views.
type manifestStub struct {
	srv    *httptest.Server
	export atomic.Value // []byte
	gen    atomic.Uint64
}

func newManifestStub(export []byte, gen uint64) *manifestStub {
	s := &manifestStub{}
	s.export.Store(export)
	s.gen.Store(gen)
	s.srv = httptest.NewServer(http.HandlerFunc(s.serve))
	return s
}

func (s *manifestStub) SetExport(export []byte, gen uint64) {
	s.export.Store(export)
	s.gen.Store(gen)
}

func (s *manifestStub) URL() string { return s.srv.URL }
func (s *manifestStub) Close()      { s.srv.Close() }

func (s *manifestStub) serve(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case httpapi.PathManifest:
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(httpapi.ManifestResponse{
			Format: httpapi.FormatATCX,
			Export: s.export.Load().([]byte),
		})
	case httpapi.PathHealthz:
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(httpapi.Health{Status: "ok", Generation: s.gen.Load()})
	default:
		http.NotFound(w, r)
	}
}

// equivFixture is one scenario's cast: an honest owner serving as both
// the query path and replica A, and a stub replica B the test scripts.
type equivFixture struct {
	owner *LiveOwner
	fes   *httptest.Server
	stub  *manifestStub
	fc    *FleetClient
}

func newEquivFixture(t *testing.T, stubExport []byte, stubGen uint64, opts ...FleetOption) *equivFixture {
	t.Helper()
	owner, _, err := NewLiveOwner(liveDocs(0, 12))
	if err != nil {
		t.Fatal(err)
	}
	handler, err := owner.HTTPHandler()
	if err != nil {
		t.Fatal(err)
	}
	fes := httptest.NewServer(handler)
	t.Cleanup(fes.Close)
	if stubExport == nil {
		if stubExport, err = owner.Client().Export(); err != nil {
			t.Fatal(err)
		}
		stubGen = owner.Generation()
	}
	stub := newManifestStub(stubExport, stubGen)
	t.Cleanup(stub.Close)
	fc, err := NewFleetClient(fes.URL, []string{fes.URL, stub.URL()}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return &equivFixture{owner: owner, fes: fes, stub: stub, fc: fc}
}

// verifiedSearch runs one query through the serving path with the given
// algorithm and fails the test on any error: every scenario proves the
// honest pipeline works for that algorithm before judging the detector.
func (fx *equivFixture) verifiedSearch(t *testing.T, algo Algorithm) {
	t.Helper()
	res, err := fx.fc.Search(context.Background(), "merkle tree proof", 5, algo, ChainMHT)
	if err != nil {
		t.Fatalf("honest search (%v): %v", algo, err)
	}
	if res.Generation != fx.owner.Generation() {
		t.Fatalf("honest search generation %d, owner at %d", res.Generation, fx.owner.Generation())
	}
}

func mustEquivocation(t *testing.T, rep *CrossCheckReport, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("cross-check found no equivocation")
	}
	if !errors.Is(err, ErrEquivocation) {
		t.Fatalf("error does not match ErrEquivocation: %v", err)
	}
	if !IsTampered(err) {
		t.Fatalf("equivocation not classified as tampering: %v", err)
	}
	if rep == nil || rep.Equivocation == nil {
		t.Fatal("report carries no equivocation verdict")
	}
}

func eachAlgorithm(t *testing.T, f func(t *testing.T, algo Algorithm)) {
	for _, tc := range []struct {
		name string
		algo Algorithm
	}{{"TRA", TRA}, {"TNRA", TNRA}} {
		t.Run(tc.name, func(t *testing.T) { f(t, tc.algo) })
	}
}

// A second signed manifest for the generation the client already holds
// is a split view: tampering, pinned on the replica that presented it.
// The forgery is owner-signed, so only the cross-replica comparison can
// catch it.
func TestFleetCrossCheckSplitView(t *testing.T) {
	eachAlgorithm(t, func(t *testing.T, algo Algorithm) {
		metrics := NewMetrics()
		fx := newEquivFixture(t, nil, 0, WithFleetRemoteOptions(WithClientMetrics(metrics)))
		fx.verifiedSearch(t, algo)
		fx.stub.SetExport(forgeExport(t, fx.owner, func(m *core.Manifest) {
			m.AvgLen++ // divergent statistics, same generation, valid signature
		}), fx.owner.Generation())

		rep, err := fx.fc.CrossCheck(context.Background())
		mustEquivocation(t, rep, err)
		if a := rep.Replicas[0]; a.Err != nil {
			t.Fatalf("honest replica flagged: %v", a.Err)
		}
		b := rep.Replicas[1]
		if b.Err == nil || b.Unavailable {
			t.Fatalf("forging replica status: err=%v unavailable=%v, want a non-transient error", b.Err, b.Unavailable)
		}
		if !strings.Contains(b.Err.Error(), "conflicting manifest") {
			t.Fatalf("split view not named in the error: %v", b.Err)
		}

		var buf bytes.Buffer
		if err := metrics.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := obs.Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var equivocations, checks float64
		for _, s := range samples {
			switch s.Name {
			case "authtext_fleet_equivocations_total":
				equivocations = s.Value
			case "authtext_fleet_crosschecks_total":
				checks = s.Value
			}
		}
		if equivocations != 1 || checks != 1 {
			t.Fatalf("metrics: equivocations=%v crosschecks=%v, want 1 and 1", equivocations, checks)
		}
	})
}

// A forged FUTURE generation is invisible at first sight — the client
// has no honest generation-2 view to compare against, so it (correctly,
// per the stale/fresh rules) advances. The fork becomes detectable the
// moment the honest chain reaches the same generation: one generation,
// two signed manifests. Note the verdict lands on whichever replica
// presented the SECOND view for that generation — here the honest one.
// Attribution between diverged replicas is inherently ambiguous without
// a trusted log; the detector's contract is detection, not blame.
func TestFleetCrossCheckForkedChain(t *testing.T) {
	eachAlgorithm(t, func(t *testing.T, algo Algorithm) {
		fx := newEquivFixture(t, nil, 0)
		fx.verifiedSearch(t, algo)
		forkGen := fx.owner.Generation() + 1
		fx.stub.SetExport(forgeExport(t, fx.owner, func(m *core.Manifest) {
			m.Generation = forkGen
			m.AvgLen++
		}), forkGen)

		// First sighting: the fork masquerades as an ordinary swap and the
		// client advances to it. No verdict is possible yet.
		rep, err := fx.fc.CrossCheck(context.Background())
		if err != nil {
			t.Fatalf("fork's first sighting misclassified: %v", err)
		}
		if rep.Generation != forkGen {
			t.Fatalf("fleet generation %d, want forged %d", rep.Generation, forkGen)
		}
		if got := fx.fc.Generation(); got != forkGen {
			t.Fatalf("client advanced to %d, want forged %d", got, forkGen)
		}

		// The honest owner now publishes its own generation 2 — the chains
		// have visibly diverged and the next check must say tampering.
		if _, _, err := fx.owner.Update(liveDocs(12, 1), nil); err != nil {
			t.Fatal(err)
		}
		rep, err = fx.fc.CrossCheck(context.Background())
		mustEquivocation(t, rep, err)
		if !strings.Contains(rep.Equivocation.Error(), "conflicting manifest") {
			t.Fatalf("fork not reported as conflicting signed state: %v", rep.Equivocation)
		}
	})
}

// A replica pinned at an old generation while the fleet advances is
// equivocation by omission: its users never see removals or updates. One
// lagging sighting is indistinguishable from a swap in progress, so with
// tolerance 1 the verdict must arrive exactly on the second check.
func TestFleetCrossCheckFrozenReplica(t *testing.T) {
	eachAlgorithm(t, func(t *testing.T, algo Algorithm) {
		fx := newEquivFixture(t, nil, 0, WithFleetLagTolerance(1))
		frozen, err := fx.owner.Client().Export()
		if err != nil {
			t.Fatal(err)
		}
		fx.stub.SetExport(frozen, fx.owner.Generation())
		if _, _, err := fx.owner.Update(liveDocs(12, 2), nil); err != nil {
			t.Fatal(err)
		}
		fx.verifiedSearch(t, algo)

		rep, err := fx.fc.CrossCheck(context.Background())
		if err != nil {
			t.Fatalf("first lagging sighting misclassified (could be a swap in progress): %v", err)
		}
		if rep.Lag != 1 {
			t.Fatalf("lag %d, want 1", rep.Lag)
		}
		rep, err = fx.fc.CrossCheck(context.Background())
		mustEquivocation(t, rep, err)
		b := rep.Replicas[1]
		if b.Err == nil || b.Unavailable || !strings.Contains(b.Err.Error(), "frozen") {
			t.Fatalf("frozen replica status: err=%v unavailable=%v", b.Err, b.Unavailable)
		}
	})
}

// Crashes are not equivocation: a dead replica presented no signed state
// to hold against it. With one replica down the check reports it
// Unavailable and returns no verdict; with everything down the check
// fails with a PLAIN error — never a tamper-classified one.
func TestFleetCrossCheckUnavailabilityIsNotTampering(t *testing.T) {
	eachAlgorithm(t, func(t *testing.T, algo Algorithm) {
		fx := newEquivFixture(t, nil, 0)
		fx.verifiedSearch(t, algo)
		if _, err := fx.fc.CrossCheck(context.Background()); err != nil {
			t.Fatalf("healthy fleet cross-check: %v", err)
		}

		fx.stub.Close()
		rep, err := fx.fc.CrossCheck(context.Background())
		if err != nil {
			t.Fatalf("one dead replica must not fail the check: %v", err)
		}
		b := rep.Replicas[1]
		if b.Err == nil || !b.Unavailable {
			t.Fatalf("dead replica status: err=%v unavailable=%v, want a transport error", b.Err, b.Unavailable)
		}
		if rep.Equivocation != nil {
			t.Fatalf("crash misclassified as equivocation: %v", rep.Equivocation)
		}

		fx.fes.Close()
		rep, err = fx.fc.CrossCheck(context.Background())
		if err == nil {
			t.Fatal("fully dark fleet reported success")
		}
		if IsTampered(err) {
			t.Fatalf("total outage misclassified as tampering: %v", err)
		}
		if rep != nil && rep.Reachable != 0 {
			t.Fatalf("reachable=%d with every replica down", rep.Reachable)
		}
	})
}
