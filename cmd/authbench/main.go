// Command authbench regenerates the tables and figures of the paper's
// evaluation (§4) on a synthetic WSJ-like collection and the simulated
// disk, and nothing else: systems numbers (cache, wire, fleet, updates,
// snapshot boot, capacity) come from `go run ./bench` and bench_test.go.
//
// Usage:
//
//	authbench [-profile tiny|small|medium|wsj]
//	          [-fig all|4|13|table2|14|15|space|headline[,...]]
//	          [-queries N] [-rsa] [-out FILE]
//
// The medium profile (20,000 documents) reproduces the shape of every
// figure in minutes; wsj runs at full paper scale (172,961 documents).
// With -rsa the owner signs with RSA-1024 as in the paper (slow at scale);
// the default keyed-hash signer emits RSA-sized signatures so VO sizes and
// I/O are unaffected (docs/ARCHITECTURE.md, "Departures from the paper").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"authtext/internal/corpus"
	"authtext/internal/experiments"
)

// figures lists the accepted -fig names in the order "all" prints them.
var figures = []struct {
	name string
	run  func(*experiments.Fixture, experiments.Options, io.Writer) error
}{
	{"4", func(f *experiments.Fixture, _ experiments.Options, w io.Writer) error {
		experiments.Fig4(f, w)
		fmt.Fprintln(w)
		return nil
	}},
	{"13", func(f *experiments.Fixture, o experiments.Options, w io.Writer) error {
		_, err := experiments.Fig13(f, o, w)
		return err
	}},
	{"table2", func(f *experiments.Fixture, o experiments.Options, w io.Writer) error {
		if _, err := experiments.Table2(f, o, w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		return nil
	}},
	{"14", func(f *experiments.Fixture, o experiments.Options, w io.Writer) error {
		_, err := experiments.Fig14(f, o, w)
		return err
	}},
	{"15", func(f *experiments.Fixture, o experiments.Options, w io.Writer) error {
		_, err := experiments.Fig15(f, o, w)
		return err
	}},
	{"space", func(f *experiments.Fixture, _ experiments.Options, w io.Writer) error {
		experiments.SpaceReport(f, w)
		fmt.Fprintln(w)
		return nil
	}},
	{"headline", func(f *experiments.Fixture, o experiments.Options, w io.Writer) error {
		if _, err := experiments.Headline(f, o, w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		return nil
	}},
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "authbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	valid := "all"
	for _, f := range figures {
		valid += ", " + f.name
	}
	fs := flag.NewFlagSet("authbench", flag.ContinueOnError)
	profileName := fs.String("profile", "medium", "corpus profile: tiny, small, medium, wsj")
	fig := fs.String("fig", "all", "comma-separated figures: "+valid)
	queries := fs.Int("queries", 0, "queries per sweep point (0 = profile default)")
	rsa := fs.Bool("rsa", false, "sign with RSA-1024 instead of the fast keyed-hash signer")
	outPath := fs.String("out", "", "write output to this file as well as stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*fig, ",") {
		known := name == "all"
		for _, f := range figures {
			known = known || f.name == name
		}
		if !known {
			return fmt.Errorf("unknown figure %q; valid -fig values: %s", name, valid)
		}
		want[name] = true
	}

	profile, err := corpus.ProfileByName(*profileName)
	if err != nil {
		return err
	}
	opts := experiments.DefaultOptions()
	switch profile.Name {
	case "tiny":
		opts.Queries = 20
	case "small":
		opts.Queries = 50
	}
	if *queries > 0 {
		opts.Queries = *queries
	}

	w := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(stdout, f)
	}

	fmt.Fprintf(w, "authbench: profile=%s docs=%d vocab=%d queries/point=%d rsa=%v\n",
		profile.Name, profile.Docs, profile.Vocab, opts.Queries, *rsa)
	start := time.Now()
	fixture, err := experiments.NewFixture(profile, *rsa)
	if err != nil {
		return err
	}
	bs := fixture.Col.BuildStats()
	idx := fixture.Col.Index()
	fmt.Fprintf(w, "built collection: n=%d m=%d signatures=%d build=%v device=%.1f MB\n\n",
		idx.N, idx.M(), bs.Signatures, bs.BuildTime.Round(time.Millisecond),
		float64(fixture.Col.Space().DeviceBytes)/(1<<20))

	for _, f := range figures {
		if !want["all"] && !want[f.name] {
			continue
		}
		if err := f.run(fixture, opts, w); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "total experiment time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
