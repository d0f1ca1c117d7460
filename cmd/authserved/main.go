// Command authserved serves an authenticated document collection over
// HTTP. It plays the untrusted-server role of the Pang & Mouratidis
// three-party protocol: it either opens a pre-built snapshot (the
// production deployment — the owner built and signed elsewhere, this host
// holds no private key) or indexes a directory of .txt files / the
// built-in demo corpus on startup, and then answers concurrent queries on
// the versioned JSON API documented in docs/PROTOCOL.md:
//
//	POST /v1/search   top-r query → hits + verification object
//	GET  /v1/manifest signed manifest + public key (client bootstrap)
//	GET  /v1/healthz  liveness, collection shape, serving counters
//	GET  /v1/metrics  Prometheus text exposition (docs/OBSERVABILITY.md)
//
// Remote users verify every answer locally with authtext.RemoteClient (or
// `authsearch -remote URL`); nothing the daemon returns needs to be
// trusted — a tampered snapshot, index or response fails client
// verification (docs/SNAPSHOT.md describes the trust model).
//
// Usage:
//
//	authserved [-addr :8470] [-snapshot FILE|DIR | -dir PATH] [-shards N]
//	           [-variants all|V,V,...] [-live [-live-snapshots DIR]]
//	           [-watch DUR] [-cache-mb N]
//	           [-fleet URL,URL,... [-fleet-probe DUR]]
//	           [-quiet] [-log-format text|json]
//	           [-log-level LEVEL] [-pprof-addr ADDR]
//
// With -snapshot the daemon boots in milliseconds from an artifact
// produced by `authsearch -build -o FILE`; nothing is re-tokenised,
// re-indexed or re-signed. When the snapshot path is a DIRECTORY written
// by `authsearch -build -shards N -o DIR`, the daemon serves the sharded
// protocol (/v1/shards/search, /v1/shards/manifest) with parallel query
// fan-out over every shard; when it is a per-generation snapshot
// directory written by a live owner (gen-NNNNNNNNNNNN.atsn files, or
// gen-NNNNNNNNNNNN/ shard sets; docs/UPDATES.md), the daemon serves the
// latest generation and — with -watch — hot-swaps to newer ones. Every
// snapshot file is read into memory and checksummed at open, so the daemon
// serves a private copy: rebuilding a served file in place affects only the
// next boot (or, in a watched directory, the next generation). Without
// -snapshot the daemon performs the owner role in-process for
// convenience; adding -shards N splits the corpus into N independently
// signed shards at startup, and -live additionally accepts document
// add/remove batches on /v1/admin/update, publishing a new signed
// generation per batch (persisted per generation with -live-snapshots).
// A collection the daemon builds itself carries only the TNRA-CMHT structures
// unless -variants asks for more. Like every authtext owner it is built in
// dictionary mode (§3.4): one dictionary-MHT per variant commits every list
// root, so the signed manifest is the only signature of a TNRA build and of
// each of its live generations (a TRA variant adds one per document record;
// docs/ARCHITECTURE.md, step 1), and out-of-dictionary query terms get
// non-membership proofs. Signing is the whole build bill; a snapshot carries
// its own signed variant set and mode, so an older list-mode artifact still
// serves with -snapshot. A live shard set places documents by content hash.
//
// With -fleet the daemon serves no collection of its own: it becomes a
// fleet FRONT END that load-balances the /v1 read surface across the
// listed replica URLs with health probes, ejection, retries, and
// generation-consistent routing during snapshot swaps (docs/FLEET.md).
// Per-replica status is served at /v1/fleet/healthz.
//
// Every deployment shape serves its metric registry at /v1/metrics and
// logs one structured record per request, request IDs included. -quiet
// silences the per-query lines and the records of answered requests: only
// requests that failed (status 400 and above) are still logged.
// -log-format json switches the whole log stream to JSON for ingestion;
// -pprof-addr starts net/http/pprof on a SEPARATE listener so profiling is
// never exposed on the serving port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"authtext"
	"authtext/internal/demo"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "authserved:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "authserved:", err)
		os.Exit(1)
	}
}

// config is the fully validated command line. Producing it must not build
// anything: flag errors and -help exit before any indexing or signing
// happens.
type config struct {
	addr       string
	dir        string
	snapshot   string
	shards     int
	variants   []authtext.Variant // what a build signs; nil: defaultVariants
	quiet      bool
	live       bool
	liveSnaps  string
	watch      time.Duration
	cacheMB    int
	fleet      string
	fleetProbe time.Duration
	logFormat  string
	logLevel   slog.Level
	pprofAddr  string
}

// defaultVariants is what the daemon builds without -variants: the
// paper's dominant variant (§4), which the /v1 protocol asks for when a
// request names none.
var defaultVariants = []authtext.Variant{{Algorithm: authtext.TNRA, Scheme: authtext.ChainMHT}}

// logLevels maps the -log-level spellings to slog levels.
var logLevels = map[string]slog.Level{
	"debug": slog.LevelDebug,
	"info":  slog.LevelInfo,
	"warn":  slog.LevelWarn,
	"error": slog.LevelError,
}

// parseFlags parses and cross-validates the command line. It is the only
// step allowed to fail with a usage error, and it runs to completion
// before any collection work starts.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("authserved", flag.ContinueOnError)
	var cfg config
	var logLevel, variants string
	fs.StringVar(&cfg.addr, "addr", ":8470", "listen address")
	fs.StringVar(&cfg.dir, "dir", "", "directory of .txt files to index (default: demo corpus)")
	fs.StringVar(&cfg.snapshot, "snapshot", "", "boot from this snapshot file (or sharded or per-generation snapshot directory), read into memory at open, instead of building a collection")
	fs.IntVar(&cfg.shards, "shards", 0, "split the corpus into N independently signed shards (build mode)")
	fs.StringVar(&variants, "variants", "", "variants to build (build mode; dictionary mode, so lists carry no signatures): all, or a comma-separated list of tra-mht, tra-cmht, tnra-mht, tnra-cmht (default tnra-cmht)")
	fs.BoolVar(&cfg.quiet, "quiet", false, "suppress per-query log lines and the request records of answered requests (failed requests are still logged)")
	fs.BoolVar(&cfg.live, "live", false, "accept document updates on /v1/admin/update (build mode); every batch publishes a new signed generation")
	fs.StringVar(&cfg.liveSnaps, "live-snapshots", "", "with -live: persist every published generation as an ATSN snapshot in this directory")
	fs.DurationVar(&cfg.watch, "watch", 0, "with -snapshot DIR of per-generation snapshots: poll at this interval and hot-swap to new generations")
	fs.IntVar(&cfg.cacheMB, "cache-mb", 0, "serve repeat queries from an in-memory VO cache bounded by N MiB of encoded answers (0 disables); document updates invalidate it automatically")
	fs.StringVar(&cfg.fleet, "fleet", "", "run as a fleet front end over these comma-separated replica base URLs instead of serving a collection")
	fs.DurationVar(&cfg.fleetProbe, "fleet-probe", 0, "with -fleet: health-probe interval (default 500ms)")
	fs.StringVar(&cfg.logFormat, "log-format", "text", "log output format: text or json")
	fs.StringVar(&logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	fs.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this SEPARATE address (empty disables); never expose it publicly")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	var variantsSet bool
	fs.Visit(func(f *flag.Flag) { variantsSet = variantsSet || f.Name == "variants" })
	if variantsSet {
		switch {
		case cfg.snapshot != "":
			return config{}, errors.New("-variants and -snapshot are mutually exclusive: a snapshot's signed manifest fixes its own variant set")
		case cfg.fleet != "":
			return config{}, errors.New("-variants and -fleet are mutually exclusive: a front end serves replicas, not a collection")
		}
		var err error
		if cfg.variants, err = authtext.ParseVariants(variants); err != nil {
			return config{}, fmt.Errorf("-variants: %w", err)
		}
	}
	if cfg.snapshot != "" && cfg.dir != "" {
		return config{}, errors.New("-snapshot and -dir are mutually exclusive: the snapshot already contains its collection")
	}
	if cfg.addr == "" {
		return config{}, errors.New("-addr must not be empty")
	}
	if cfg.shards < 0 {
		return config{}, fmt.Errorf("-shards %d out of range", cfg.shards)
	}
	if cfg.shards > 0 && cfg.snapshot != "" {
		return config{}, errors.New("-shards and -snapshot are mutually exclusive: a sharded snapshot directory fixes its own shard count")
	}
	if cfg.snapshot != "" {
		if _, err := os.Stat(cfg.snapshot); err != nil {
			return config{}, fmt.Errorf("snapshot: %w", err)
		}
	}
	if cfg.live && cfg.snapshot != "" {
		return config{}, errors.New("-live and -snapshot are mutually exclusive: a snapshot boot has no signing key; use -watch to follow a live owner's snapshot directory")
	}
	if cfg.liveSnaps != "" && !cfg.live {
		return config{}, errors.New("-live-snapshots requires -live")
	}
	if cfg.watch < 0 {
		return config{}, fmt.Errorf("-watch %s out of range", cfg.watch)
	}
	if cfg.watch > 0 && cfg.snapshot == "" {
		return config{}, errors.New("-watch requires -snapshot DIR (a per-generation snapshot directory)")
	}
	if cfg.cacheMB < 0 {
		return config{}, fmt.Errorf("-cache-mb %d out of range", cfg.cacheMB)
	}
	if cfg.fleet != "" {
		// A front end serves no collection: every collection-shaped flag is
		// a configuration mistake worth stopping on.
		switch {
		case cfg.snapshot != "":
			return config{}, errors.New("-fleet and -snapshot are mutually exclusive: a front end serves replicas, not a collection")
		case cfg.dir != "":
			return config{}, errors.New("-fleet and -dir are mutually exclusive: a front end serves replicas, not a collection")
		case cfg.shards > 0:
			return config{}, errors.New("-fleet and -shards are mutually exclusive")
		case cfg.live:
			return config{}, errors.New("-fleet and -live are mutually exclusive: updates happen at the owner, not the front end")
		case cfg.watch > 0:
			return config{}, errors.New("-fleet and -watch are mutually exclusive")
		case cfg.cacheMB > 0:
			return config{}, errors.New("-fleet and -cache-mb are mutually exclusive: replicas own their caches")
		}
	}
	if cfg.fleetProbe != 0 {
		if cfg.fleet == "" {
			return config{}, errors.New("-fleet-probe requires -fleet")
		}
		if cfg.fleetProbe < 0 {
			return config{}, fmt.Errorf("-fleet-probe %s out of range", cfg.fleetProbe)
		}
	}
	if cfg.logFormat != "text" && cfg.logFormat != "json" {
		return config{}, fmt.Errorf("-log-format %q: must be text or json", cfg.logFormat)
	}
	level, ok := logLevels[strings.ToLower(logLevel)]
	if !ok {
		return config{}, fmt.Errorf("-log-level %q: must be debug, info, warn or error", logLevel)
	}
	cfg.logLevel = level
	if cfg.pprofAddr != "" && sameListenPort(cfg.pprofAddr, cfg.addr) {
		return config{}, errors.New("-pprof-addr must use a different port than -addr: profiling stays off the serving listener")
	}
	return cfg, nil
}

// sameListenPort reports whether two listen addresses would contend for
// the same port: string equality misses spellings like ":8470" vs
// "0.0.0.0:8470". Ports are compared literally; equal ports collide when
// the hosts match or either side binds a wildcard interface. Port "0"
// (kernel-assigned) never collides. Unparsable addresses fail at bind
// time with a clearer error than flag validation could give.
func sameListenPort(a, b string) bool {
	hostA, portA, errA := net.SplitHostPort(a)
	hostB, portB, errB := net.SplitHostPort(b)
	if errA != nil || errB != nil || portA != portB || portA == "0" {
		return false
	}
	wildcard := func(h string) bool {
		return h == "" || h == "0.0.0.0" || h == "::" || h == "[::]"
	}
	return hostA == hostB || wildcard(hostA) || wildcard(hostB)
}

// newLogger builds the process-wide structured logger the -log-format and
// -log-level flags ask for.
func newLogger(cfg config) *slog.Logger {
	opts := &slog.HandlerOptions{Level: cfg.logLevel}
	if cfg.logFormat == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}

func run(cfg config) error {
	logger := newLogger(cfg)
	handler, err := buildHandler(cfg, logger)
	if err != nil {
		return err
	}

	// The operator explicitly asked for profiling, so a pprof listener
	// that cannot bind is fatal — logging and carrying on would leave the
	// process running with profiling silently absent.
	pprofErrc := make(chan error, 1)
	if cfg.pprofAddr != "" {
		go func() { pprofErrc <- servePprof(cfg.pprofAddr, logger) }()
	}

	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", cfg.addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case err := <-pprofErrc:
		return fmt.Errorf("pprof listener on %s: %w", cfg.pprofAddr, err)
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// servePprof runs the net/http/pprof handlers on their own mux and
// listener, so the profiling surface never shares a port with the public
// protocol (and an empty -pprof-addr costs nothing). It only returns on
// listener failure, which run treats as fatal.
func servePprof(addr string, logger *slog.Logger) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof listening", "addr", addr)
	return http.ListenAndServe(addr, mux)
}

// buildHandler produces the /v1 handler: warm start from a snapshot, or
// cold build from documents. Every shape takes the same options, so it
// carries the same observability: a metric registry on /v1/metrics, one
// structured log record per request, the VO cache, the per-query log.
func buildHandler(cfg config, logger *slog.Logger) (http.Handler, error) {
	metrics := authtext.NewMetrics()
	if cfg.fleet != "" {
		return buildFleetHandler(cfg, metrics, logger)
	}
	reqLog := logger
	if cfg.quiet {
		reqLog = slog.New(failedRequestsOnly{logger.Handler()})
	}
	hopts := []authtext.HandlerOption{
		authtext.WithMetrics(metrics),
		authtext.WithRequestLog(reqLog),
	}
	if cache := newCache(cfg, logger); cache != nil {
		hopts = append(hopts, authtext.WithVOCache(cache))
	}
	if !cfg.quiet {
		hopts = append(hopts, authtext.WithQueryLog(
			func(query string, r int, st authtext.Stats, wall time.Duration) {
				logger.Info("query",
					"q", query, "r", r,
					"algo", st.Algorithm.String(), "scheme", st.Scheme.String(),
					"shards", st.Shards, "terms", st.QueryTerms, "entries", st.EntriesRead,
					"io_ms", float64(st.IOTime), "vo_bytes", st.VOBytes,
					"wall", wall.Round(time.Microsecond))
			}))
	}
	if cfg.snapshot != "" {
		return openSnapshot(cfg, hopts, logger)
	}

	docs, _, err := demo.Load(cfg.dir)
	if err != nil {
		return nil, err
	}
	if cfg.variants == nil {
		cfg.variants = defaultVariants
	}
	opts := []authtext.Option{authtext.WithVariants(cfg.variants...)}
	if cfg.live {
		return buildLiveHandler(cfg, docs, opts, hopts, logger)
	}
	var owner *authtext.Owner
	if cfg.shards > 0 {
		logger.Info("indexing into shards, building authentication structures (RSA-1024)",
			"documents", len(docs), "shards", cfg.shards, "variants", cfg.variants)
		owner, err = authtext.NewShardedOwner(docs, cfg.shards, opts...)
	} else {
		logger.Info("indexing and building authentication structures (RSA-1024)", "documents", len(docs), "variants", cfg.variants)
		owner, err = authtext.NewOwner(docs, opts...)
	}
	if err != nil {
		return nil, err
	}
	buildMs, sigs, devBytes := owner.Stats()
	built := []any{"build_ms", buildMs, "signatures", sigs, "device_mb", float64(devBytes) / (1 << 20)}
	if cfg.shards > 0 {
		logger.Info("built shards (parallel)", append([]any{"shards", owner.Shards()}, built...)...)
	} else {
		logger.Info("built collection", built...)
	}
	return owner.HTTPHandler(hopts...)
}

// openSnapshot routes -snapshot PATH by what is on disk: a per-generation
// directory becomes a replica that -watch can follow, anything else — a
// snapshot file, or a shard set's snapshot directory — a static server.
func openSnapshot(cfg config, hopts []authtext.HandlerOption, logger *slog.Logger) (http.Handler, error) {
	start := time.Now()
	opened := func(what string, attrs ...any) {
		logger.Info("opened "+what+" (no re-indexing, no re-signing)", append(attrs,
			"path", cfg.snapshot, "elapsed", time.Since(start).Round(time.Millisecond))...)
	}
	if authtext.IsLiveSnapshotDir(cfg.snapshot) {
		rep, err := authtext.OpenLiveSnapshotDir(cfg.snapshot)
		if err != nil {
			return nil, err
		}
		opened("live snapshot directory", "sharded", rep.Client().Shards() > 0, "generation", rep.Generation())
		if cfg.watch > 0 {
			go watchReplica(rep, cfg.watch, logger)
		}
		return rep.HTTPHandler(hopts...)
	}
	if cfg.watch > 0 {
		// Catch this here (the check needs the filesystem, so it cannot
		// live in parseFlags) instead of silently serving frozen state
		// while the operator believes hot-reload is active.
		return nil, errors.New("-watch requires -snapshot to be a per-generation snapshot directory (gen-NNNNNNNNNNNN.atsn files or gen-NNNNNNNNNNNN/ shard sets)")
	}
	server, client, err := authtext.OpenSnapshotFile(cfg.snapshot)
	if err != nil {
		return nil, err
	}
	// Export from what was opened (not a second read of the files), so the
	// published material always matches the serving collection.
	export, err := client.Export()
	if err != nil {
		return nil, fmt.Errorf("snapshot has no publishable key (fast-signer build?): %w", err)
	}
	if server.Shards() > 0 {
		opened("sharded snapshot", "shards", server.Shards())
	} else {
		opened("snapshot")
	}
	return authtext.NewHTTPHandler(server, export, hopts...), nil
}

// buildFleetHandler runs the daemon as a fleet front end: no collection,
// no signing key — just health-probed, generation-consistent fan-out over
// the replica URLs (docs/FLEET.md).
func buildFleetHandler(cfg config, metrics *authtext.Metrics, logger *slog.Logger) (http.Handler, error) {
	var backends []string
	for _, u := range strings.Split(cfg.fleet, ",") {
		if u = strings.TrimSpace(u); u != "" {
			backends = append(backends, u)
		}
	}
	opts := []authtext.FrontendOption{
		authtext.WithFrontendMetrics(metrics),
		authtext.WithFrontendLogger(logger),
	}
	if cfg.fleetProbe > 0 {
		opts = append(opts, authtext.WithFrontendProbeInterval(cfg.fleetProbe))
	}
	fe, err := authtext.NewFrontend(backends, opts...)
	if err != nil {
		return nil, err
	}
	// The front end lives for the process lifetime; its probe loop stops
	// with the process.
	logger.Info("serving as fleet front end", "replicas", len(backends), "status_path", "/v1/fleet/healthz")
	return fe, nil
}

// failedRequestsOnly is the request log under -quiet: it passes on the
// records of requests that failed (status 400 and above) and drops the rest,
// which formats and writes nothing for an answered request.
type failedRequestsOnly struct{ slog.Handler }

func (h failedRequestsOnly) Handle(ctx context.Context, r slog.Record) error {
	failed := false
	r.Attrs(func(a slog.Attr) bool {
		if a.Key != "status" {
			return true
		}
		failed = a.Value.Kind() == slog.KindInt64 && a.Value.Int64() >= 400
		return false
	})
	if !failed {
		return nil
	}
	return h.Handler.Handle(ctx, r)
}

func (h failedRequestsOnly) WithAttrs(attrs []slog.Attr) slog.Handler {
	return failedRequestsOnly{h.Handler.WithAttrs(attrs)}
}

func (h failedRequestsOnly) WithGroup(name string) slog.Handler {
	return failedRequestsOnly{h.Handler.WithGroup(name)}
}

// newCache builds the serve-side VO cache -cache-mb asks for (nil when
// disabled). Every deployment shape takes it the same way: cached answers
// are generation-keyed, so live updates and watched reloads invalidate
// them automatically, and clients verify hits exactly like misses.
func newCache(cfg config, logger *slog.Logger) *authtext.VOCache {
	if cfg.cacheMB <= 0 {
		return nil
	}
	cache := authtext.NewVOCache(int64(cfg.cacheMB) << 20)
	logger.Info("VO cache enabled (stats on /v1/healthz and /v1/metrics)", "mib", cfg.cacheMB)
	return cache
}

// buildLiveHandler performs the live owner role in-process: every
// accepted /v1/admin/update batch publishes a new signed generation, and
// (with -live-snapshots) persists it as a snapshot. The handler options
// arrive from buildHandler so the observability wiring (metrics, request
// log, cache, query log) is identical across shapes.
func buildLiveHandler(cfg config, docs []authtext.Document, opts []authtext.Option,
	hopts []authtext.HandlerOption, logger *slog.Logger) (http.Handler, error) {
	logger.Info("indexing live documents (RSA-1024)", "documents", len(docs), "shards", cfg.shards, "variants", cfg.variants)
	var owner *authtext.LiveOwner
	var err error
	if cfg.shards > 0 {
		owner, _, err = authtext.NewLiveShardedOwner(docs, cfg.shards, opts...)
	} else {
		owner, _, err = authtext.NewLiveOwner(docs, opts...)
	}
	if err != nil {
		return nil, err
	}
	if cfg.liveSnaps != "" {
		// PersistGenerations writes inside the update critical section, so
		// every published generation gets its own snapshot even when admin
		// updates race one another.
		path, err := owner.PersistGenerations(cfg.liveSnaps, func(gen uint64, err error) {
			logger.Error("generation snapshot failed", "generation", gen, "err", err)
		})
		if err != nil {
			return nil, fmt.Errorf("initial generation snapshot: %w", err)
		}
		logger.Info("persisting generations", "path", path)
	}
	logger.Info("serving live collection",
		"shards", cfg.shards, "generation", owner.Generation(), "update_path", "/v1/admin/update")
	return owner.HTTPHandler(append(hopts, authtext.WithUpdateLog(func(rep *authtext.UpdateReport) {
		logger.Info("published generation",
			"generation", rep.Generation, "documents", rep.Documents,
			"added", rep.Added, "removed", rep.Removed,
			"signatures_signed", rep.SignaturesSigned, "signatures_reused", rep.SignaturesReused,
			"rebuild_ms", rep.RebuildMillis)
	}))...)
}

// watchReplica polls a per-generation snapshot directory and hot-swaps
// the replica to every new generation that appears.
func watchReplica(r *authtext.LiveReplica, every time.Duration, logger *slog.Logger) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for range ticker.C {
		swapped, err := r.Reload()
		if err != nil {
			logger.Warn("watch reload failed", "err", err)
			continue
		}
		if swapped {
			logger.Info("watch swapped generation", "generation", r.Generation())
		}
	}
}
