package authtext

import (
	"log/slog"
	"net/http"
	"time"

	"authtext/internal/fleet"
)

// Frontend fans /v1 traffic out across a fleet of replica backends
// (docs/FLEET.md): health-aware load balancing (power of two choices over
// in-flight load), ejection with exponential backoff after consecutive
// failures, retries across distinct replicas, and generation-consistent
// routing — once the fleet has served generation G, no client receives an
// answer from an earlier generation, even mid-swap with lagging replicas
// still in rotation.
//
// The front end is untrusted, like the replicas behind it: clients verify
// every answer against the owner's public key regardless of the path it
// took. It implements http.Handler; Close stops its health probes.
type Frontend struct {
	f *fleet.Frontend
}

// FrontendOption customises NewFrontend.
type FrontendOption func(*frontendConfig)

type frontendConfig struct {
	probe   time.Duration
	metrics *Metrics
	logger  *slog.Logger
}

// WithFrontendProbeInterval sets the health-probe period (default 500ms).
// Probes learn replica generations and drive ejection/recovery
// independent of request traffic, so a dead replica is routed around
// within roughly one interval.
func WithFrontendProbeInterval(d time.Duration) FrontendOption {
	return func(c *frontendConfig) { c.probe = d }
}

// WithFrontendMetrics records authtext_fleet_* series (backends in
// rotation, generation watermark, proxied/retried/ejected counts) in m
// and serves the registry at /v1/metrics.
func WithFrontendMetrics(m *Metrics) FrontendOption {
	return func(c *frontendConfig) { c.metrics = m }
}

// WithFrontendLogger receives ejection and recovery events.
func WithFrontendLogger(l *slog.Logger) FrontendOption {
	return func(c *frontendConfig) { c.logger = l }
}

// NewFrontend starts a fleet front end over the given replica base URLs
// (at least one). Close it to stop the health probes.
func NewFrontend(backends []string, opts ...FrontendOption) (*Frontend, error) {
	var c frontendConfig
	for _, opt := range opts {
		opt(&c)
	}
	f, err := fleet.New(fleet.Config{
		Backends:      backends,
		ProbeInterval: c.probe,
		Registry:      c.metrics.registry(),
		Logger:        c.logger,
	})
	if err != nil {
		return nil, err
	}
	return &Frontend{f: f}, nil
}

// ServeHTTP implements http.Handler: /v1/search, /v1/manifest and the
// sharded read endpoints are load-balanced across the fleet;
// /v1/healthz is synthesized from the fleet's view; /v1/fleet/healthz
// reports per-replica status; /v1/admin/update answers 403 (updates
// happen at the owner); /v1/metrics serves the registry when
// WithFrontendMetrics was given.
func (f *Frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.f.ServeHTTP(w, r) }

// Close stops the health probes. In-flight requests finish normally.
func (f *Frontend) Close() { f.f.Close() }
