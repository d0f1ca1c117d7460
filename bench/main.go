// Command bench is the repository's benchmark: it measures what a
// verifying user of an authenticated search engine pays, end to end and
// layer by layer. It builds a collection with the paper-faithful RSA-1024
// signer, starts the real cmd/authserved as a child process on a loopback
// port, drives it from this one process with authtext.RemoteClient over
// GOMAXPROCS connections, and counts a request as done only when its
// answer has been verified. README.md in this directory documents the
// workloads, the metrics, how they should move together, and the measured
// noise of each.
//
// Usage, from the module root:
//
//	go run ./bench -seed N [-workload NAME] [-seconds S] [-trace 0|1|both]
//	               [-trace-out FILE] [-json FILE] [-smoke]
//	go run ./bench -compare A.json B.json
//
// Without -workload every workload runs in turn. The last line of
// standard output is one JSON object: for a single workload the driver's
// contract line {"correct","attempted","failed","metrics"}, otherwise the
// same document -json writes and -compare reads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"authtext/internal/corpus"
)

// defaultSeconds is BENCHMARK.json's run_seconds: two thirds of it is the
// open-loop phase, one third the closed-loop phase.
const defaultSeconds = 18

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    traceMode
	traceOut string
	jsonOut  string
	smoke    bool
	// workRoot receives build outputs and per-run scratch directories
	// (default: .bench_build under the module root).
	workRoot string
}

// document is what -json writes and -compare reads.
type document struct {
	Seed      int64              `json:"seed"`
	Env       map[string]string  `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		opts    options
		trace   string
		compare bool
	)
	fs.StringVar(&opts.workload, "workload", "", "run only this workload (default: all)")
	fs.Int64Var(&opts.seed, "seed", 1, "seed of the query and update streams")
	fs.IntVar(&opts.seconds, "seconds", defaultSeconds, "measured seconds per workload: 2/3 open loop, 1/3 closed loop")
	fs.StringVar(&trace, "trace", "both", "0: end-to-end metrics only; 1: per-layer metrics only; both")
	fs.StringVar(&opts.traceOut, "trace-out", "", "write the recorded spans to this file")
	fs.StringVar(&opts.jsonOut, "json", "", "write the result document to this file (input of -compare)")
	fs.BoolVar(&opts.smoke, "smoke", false, "tiny corpus, one set-up, short traced pass: a functional check, not a measurement")
	fs.BoolVar(&compare, "compare", false, "compare two result documents: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result documents: -compare A.json B.json")
			return 2
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	switch trace {
	case "0":
		opts.trace = traceOff
	case "1":
		opts.trace = traceOn
	case "both":
		opts.trace = traceBoth
	default:
		fmt.Fprintf(stderr, "bench: -trace %q: want 0, 1 or both\n", trace)
		return 2
	}
	if fs.NArg() > 0 || opts.seconds < 1 {
		fmt.Fprintln(stderr, "bench: unexpected arguments or -seconds below 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// run executes the selected workloads and prints their metrics. Every
// daemon it starts is stopped and every directory it creates removed
// before it returns, on success, failure, SIGINT or panic alike.
func run(ctx context.Context, opts options, stdout, stderr io.Writer) error {
	specs := append([]workloadSpec(nil), workloads...)
	if opts.workload != "" {
		w, err := workloadByName(opts.workload)
		if err != nil {
			return err
		}
		specs = []workloadSpec{*w}
	}
	root, err := findModuleRoot()
	if err != nil {
		return err
	}
	if opts.workRoot == "" {
		opts.workRoot = filepath.Join(root, ".bench_build")
	}
	if err := os.MkdirAll(opts.workRoot, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(opts.workRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	bin, err := buildDaemon(ctx, root, workDir)
	if err != nil {
		return err
	}

	total := time.Duration(opts.seconds) * time.Second
	e := &env{
		seed: opts.seed, trace: opts.trace, profile: benchProfile,
		open: total * 2 / 3, closed: total / 3, warm: 1500 * time.Millisecond,
		setups: 3, conns: runtime.GOMAXPROCS(0), bin: bin, workDir: workDir, log: stderr,
	}
	if opts.trace == traceOn {
		// A traced run reports no setup_s; once is enough.
		e.setups = 1
	}
	if opts.smoke {
		e.profile, e.setups, e.warm = corpus.Tiny(), 1, 300*time.Millisecond
	}

	doc := &document{Seed: opts.seed, Env: environment(), Workloads: map[string]*result{}}
	var traces []workloadTrace
	for i := range specs {
		w := &specs[i]
		if opts.smoke && w.traced > 40 {
			w.traced = 40
		}
		fmt.Fprintf(stderr, "bench: %s (seed %d, open %s at %g/s, closed %s, %d connections)\n",
			w.name, e.seed, e.open, w.rate, e.closed, e.conns)
		res, tr, err := runWorkload(ctx, e, w)
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		res.print(stdout, w.name)
		if late, ok := res.Metrics["loadgen.late_p99_ms"]; ok && late.Value > 5 {
			fmt.Fprintf(stdout, "  INVALID RUN: the load generator itself ran %.1f ms late at p99 (limit 5 ms)\n", late.Value)
		}
		doc.Workloads[w.name] = res
		if tr != nil {
			traces = append(traces, workloadTrace{Workload: w.name, Spans: tr.spans})
		}
	}
	if opts.traceOut != "" {
		if err := writeTraces(opts.traceOut, traces); err != nil {
			return err
		}
	}
	if opts.jsonOut != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}

	// Last line: one JSON object.
	var last interface{} = doc
	if opts.workload != "" && opts.trace != traceBoth {
		line, err := doc.Workloads[opts.workload].contract(opts.trace == traceOn)
		if err != nil {
			return err
		}
		last = line
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	for name, res := range doc.Workloads {
		if !res.Correct {
			return fmt.Errorf("workload %s: an honest answer was rejected as tampering", name)
		}
	}
	return nil
}

// environment describes the machine and build the numbers came from.
func environment() map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}
