package authtext

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"authtext/internal/core"
	"authtext/internal/httpapi"
)

// FleetClient is a RemoteClient pointed at a fleet front end, plus the
// client-side defence the fleet topology demands: an equivocation
// detector that periodically cross-checks the signed manifests of ≥ 2
// replicas over a direct side channel, bypassing the front end.
//
// A single untrusted server can at worst serve stale or broken answers —
// verification catches both. A FLEET of servers (or a front end) can
// additionally equivocate: show different users different signed states
// of the same collection, each internally consistent. Signatures alone
// cannot catch that — both views verify — so the client compares views
// ACROSS replicas and across time: two different manifests for one
// generation (a split view or a forked generation chain), or a replica
// frozen at an old generation while the fleet advances, are classified
// as ErrEquivocation, a tamper class (IsTampered reports true), never as
// a transient failure. Plain unavailability — crashes, drops, timeouts,
// truncated responses — is reported as ordinary non-tamper errors.
// docs/FLEET.md describes the trust model; the fault-injection battery
// in fleet_equivocation_test.go pins the classification.
type FleetClient struct {
	*RemoteClient
	replicas []string
	maxLag   int

	// mu guards the cross-check history below.
	mu sync.Mutex
	// seen maps generation -> hash of the manifest encoding accepted for
	// it. One generation never has two honest encodings, so a second
	// hash for a seen generation is proof of equivocation.
	seen map[uint64][sha256.Size]byte
	// lagging counts consecutive cross-checks each replica has trailed
	// the fleet maximum (freeze detection).
	lagging map[string]int
}

// FleetOption customises NewFleetClient.
type FleetOption func(*fleetClientConfig)

type fleetClientConfig struct {
	remote []RemoteOption
	maxLag int
}

// WithFleetLagTolerance sets how many consecutive cross-checks a replica
// may trail the fleet's newest generation before the lag is classified
// as a frozen-replica equivocation rather than an in-progress swap
// (default 2; 0 flags any replica still behind on its second sighting).
func WithFleetLagTolerance(n int) FleetOption {
	return func(c *fleetClientConfig) { c.maxLag = n }
}

// WithFleetRemoteOptions forwards options to the underlying RemoteClient
// (transport, metrics, out-of-band export).
func WithFleetRemoteOptions(opts ...RemoteOption) FleetOption {
	return func(c *fleetClientConfig) { c.remote = append(c.remote, opts...) }
}

// NewFleetClient prepares a verifying client for a replica fleet:
// frontendURL is the load-balanced serving path (searches go through
// it), replicaURLs are ≥ 2 direct replica addresses used only for
// manifest cross-checks. The replica set should bypass the front end —
// a front end that can choose which replicas the detector sees can hide
// a split view.
func NewFleetClient(frontendURL string, replicaURLs []string, opts ...FleetOption) (*FleetClient, error) {
	cfg := fleetClientConfig{maxLag: 2}
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(replicaURLs) < 2 {
		return nil, fmt.Errorf("authtext: fleet cross-checking needs at least 2 replicas, got %d", len(replicaURLs))
	}
	replicas := make([]string, len(replicaURLs))
	for i, raw := range replicaURLs {
		u, err := url.Parse(strings.TrimRight(raw, "/"))
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("authtext: bad replica URL %q", raw)
		}
		replicas[i] = u.String()
	}
	rc, err := NewRemoteClient(frontendURL, cfg.remote...)
	if err != nil {
		return nil, err
	}
	return &FleetClient{
		RemoteClient: rc,
		replicas:     replicas,
		maxLag:       cfg.maxLag,
		seen:         make(map[uint64][sha256.Size]byte),
		lagging:      make(map[string]int),
	}, nil
}

// ReplicaStatus is one replica's outcome inside a CrossCheckReport.
type ReplicaStatus struct {
	URL string
	// Generation is the verified generation the replica presented (0 when
	// Err is non-nil).
	Generation uint64
	// Err is nil when the replica's manifest fetched and verified.
	Err error
	// Unavailable reports that Err is transport-shaped (crash, timeout,
	// truncation, 5xx) — NOT evidence of tampering. A false Unavailable
	// with a non-nil Err means the replica presented data that failed
	// verification.
	Unavailable bool
}

// CrossCheckReport is the outcome of one fleet cross-check.
type CrossCheckReport struct {
	Replicas []ReplicaStatus
	// Generation is the highest verified generation observed fleet-wide.
	Generation uint64
	// Lag is the spread between the most and least advanced reachable
	// replica (0 when fewer than two were reachable).
	Lag uint64
	// Reachable counts replicas whose manifest fetched and verified.
	Reachable int
	// Equivocation is non-nil when this check (combined with history)
	// proved conflicting signed states; errors.Is(…, ErrEquivocation) and
	// IsTampered report true for it.
	Equivocation error
}

// fetchedManifest is one replica's raw manifest response.
type fetchedManifest struct {
	raw    []byte
	sig    []byte
	netErr error
}

// CrossCheck fetches every replica's signed manifest directly and
// compares the views against each other and against this client's
// history. It returns the report plus an error summarising the worst
// finding: ErrEquivocation-classified (tampering) when conflicting
// signed states were proven, a plain error when no replica was reachable
// at all, nil otherwise. Transient failures of individual replicas never
// produce a tamper-classified error. On a healthy fleet the check also
// advances this client to the newest generation it verified.
func (fc *FleetClient) CrossCheck(ctx context.Context) (*CrossCheckReport, error) {
	client, err := fc.bootstrapAnywhere(ctx)
	if err != nil {
		return nil, err
	}
	if client.Shards() > 0 {
		return nil, errors.New("authtext: fleet cross-checks compare collection manifests; a fleet of shard sets is not supported")
	}

	// Fetch all replicas concurrently over the direct side channel,
	// always as plain JSON: cross-checks are rare and small, and the
	// JSON path keeps transport damage (truncation, resets) surfacing as
	// plain errors rather than anything verification-shaped.
	fetched := make([]fetchedManifest, len(fc.replicas))
	var wg sync.WaitGroup
	for i, u := range fc.replicas {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			export, err := fc.replicaExport(ctx, u)
			if err != nil {
				fetched[i].netErr = err
				return
			}
			fetched[i].raw, fetched[i].sig, _, fetched[i].netErr = splitClientExport(export)
		}(i, u)
	}
	wg.Wait()

	rep := &CrossCheckReport{Replicas: make([]ReplicaStatus, len(fc.replicas))}
	type verified struct {
		idx int
		m   *core.Manifest
	}
	var ok []verified
	minGen := ^uint64(0)
	for i, u := range fc.replicas {
		st := &rep.Replicas[i]
		st.URL = u
		if f := fetched[i]; f.netErr != nil {
			// Transport or malformed-blob failure: the replica presented
			// nothing signed, so there is nothing to hold against it.
			st.Err = f.netErr
			st.Unavailable = !IsTampered(f.netErr)
			continue
		}
		m, derr := core.DecodeManifest(fetched[i].raw)
		if derr == nil {
			// Verify against the PINNED key, never the key the replica
			// embeds: a replica substituting its own key pair must fail
			// here, not get judged against its own material.
			derr = core.VerifyManifest(m, fetched[i].sig, client.verifier)
		}
		if derr != nil {
			st.Err = fmt.Errorf("authtext: replica %s: %w", u, derr)
			st.Unavailable = !IsTampered(st.Err)
			continue
		}
		st.Generation = m.Generation
		rep.Reachable++
		if m.Generation > rep.Generation {
			rep.Generation = m.Generation
		}
		if m.Generation < minGen {
			minGen = m.Generation
		}
		ok = append(ok, verified{idx: i, m: m})
	}
	if rep.Reachable == 0 {
		first := "no error detail"
		for _, st := range rep.Replicas {
			if st.Err != nil {
				first = st.Err.Error()
				break
			}
		}
		fc.metrics.recordCrossCheck(0, false)
		return rep, fmt.Errorf("authtext: fleet cross-check: no replica reachable (%s)", first)
	}
	if rep.Reachable >= 2 {
		rep.Lag = rep.Generation - minGen
	}

	// Compare the verified views against each other and against every
	// view this client has ever accepted.
	fc.mu.Lock()
	// Seed the history with the client's own accepted manifest.
	client.mu.Lock()
	ownGen, ownRaw := client.generationLocked(), client.encodingLocked()
	client.mu.Unlock()
	fc.noteManifest(ownGen, ownRaw)
	for _, v := range ok {
		st := &rep.Replicas[v.idx]
		if prev, okSeen := fc.seen[v.m.Generation]; okSeen && prev != sha256.Sum256(fetched[v.idx].raw) {
			st.Err = equivErr("replica %s presents a conflicting manifest for generation %d (split view or forked generation chain)",
				st.URL, v.m.Generation)
			if rep.Equivocation == nil {
				rep.Equivocation = st.Err
			}
			continue
		}
		fc.noteManifest(v.m.Generation, fetched[v.idx].raw)
	}
	// Freeze detection: a replica persistently behind the fleet's newest
	// generation is withholding updates from the users it serves —
	// equivocation by omission. A swap in progress looks the same for one
	// check, so lag only becomes a verdict after maxLag consecutive
	// sightings.
	for _, v := range ok {
		st := &rep.Replicas[v.idx]
		if st.Err != nil {
			continue
		}
		if v.m.Generation < rep.Generation {
			fc.lagging[st.URL]++
			if fc.lagging[st.URL] > fc.maxLag {
				st.Err = equivErr("replica %s frozen at generation %d while the fleet serves %d (%d consecutive checks)",
					st.URL, v.m.Generation, rep.Generation, fc.lagging[st.URL])
				if rep.Equivocation == nil {
					rep.Equivocation = st.Err
				}
			}
		} else {
			delete(fc.lagging, st.URL)
		}
	}
	fc.mu.Unlock()

	// Advance the verifying client to the newest verified view, so the
	// cross-check doubles as a freshness push even when searches are
	// idle. A failure here is conflicting-signed-state evidence too
	// (Advance re-checks signature, monotonicity and same-generation
	// consistency under its own lock).
	if rep.Equivocation == nil && rep.Generation > client.Generation() {
		for _, v := range ok {
			if v.m.Generation != rep.Generation {
				continue
			}
			if aerr := client.Advance(fetched[v.idx].raw, fetched[v.idx].sig); aerr != nil && IsTampered(aerr) {
				rep.Equivocation = equivErr("advancing to replica %s generation %d: %v",
					rep.Replicas[v.idx].URL, v.m.Generation, aerr)
			}
			break
		}
	}

	fc.metrics.recordCrossCheck(rep.Lag, rep.Equivocation != nil)
	return rep, rep.Equivocation
}

// noteManifest records one generation's accepted manifest hash (caller
// holds fc.mu).
func (fc *FleetClient) noteManifest(gen uint64, raw []byte) {
	if _, ok := fc.seen[gen]; !ok {
		fc.seen[gen] = sha256.Sum256(raw)
	}
}

// bootstrapAnywhere bootstraps the verification client from the front
// end, falling back to the direct replicas when the front end is down —
// the detector must keep working through exactly the outages it exists
// to observe.
func (fc *FleetClient) bootstrapAnywhere(ctx context.Context) (*Client, error) {
	client, ferr := fc.bootstrapped(ctx)
	if ferr == nil {
		return client, nil
	}
	fc.RemoteClient.mu.Lock()
	defer fc.RemoteClient.mu.Unlock()
	if fc.RemoteClient.client != nil {
		return fc.RemoteClient.client, nil
	}
	for _, u := range fc.replicas {
		export, err := fc.replicaExport(ctx, u)
		if err != nil {
			continue
		}
		c, err := NewClientFromExport(export)
		if err != nil {
			continue
		}
		fc.RemoteClient.client = c
		return c, nil
	}
	return nil, ferr
}

// replicaExport fetches one replica's ATCX export over the direct side
// channel, always as plain JSON.
func (fc *FleetClient) replicaExport(ctx context.Context, replicaURL string) ([]byte, error) {
	m, err := roundTrip[httpapi.ManifestResponse](ctx, &transport{base: replicaURL, hc: fc.hc},
		http.MethodGet, httpapi.PathManifest, nil, nil)
	if err != nil {
		return nil, err
	}
	if m.Format != httpapi.FormatATCX {
		return nil, fmt.Errorf("authtext: replica manifest format %q not supported", m.Format)
	}
	return m.Export, nil
}

// equivErr builds an equivocation-classified error (matches
// ErrEquivocation under errors.Is; IsTampered reports true).
func equivErr(format string, args ...interface{}) error {
	return fmt.Errorf("authtext: fleet cross-check: %w",
		&core.VerifyError{Code: core.CodeEquivocation, Detail: fmt.Sprintf(format, args...)})
}
