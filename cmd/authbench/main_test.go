package main

import (
	"bytes"
	"strings"
	"testing"
)

// headers maps every accepted figure to the first line it prints.
var headers = map[string]string{
	"4":        "Figure 4 — inverted list length distribution",
	"13":       "Figure 13 — synthetic workload, varying query size (r=10)",
	"table2":   "Table 2 — Breakdown of VO size (TRA), data% vs digest%",
	"14":       "Figure 14 — synthetic workload, varying result size (q=3)",
	"15":       "Figure 15 — TREC-like workload, varying result size",
	"space":    "Space overhead over plain corpus + inverted index (§4.1)",
	"headline": "Headline TNRA-CMHT costs (§4.5, r=20)",
}

func runTiny(t *testing.T, fig string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run([]string{"-profile", "tiny", "-queries", "5", "-fig", fig}, &out)
	return out.String(), err
}

func TestEachFigurePrintsItsHeaderAndOnlyIts(t *testing.T) {
	if len(headers) != len(figures) {
		t.Fatalf("%d headers for %d figures", len(headers), len(figures))
	}
	for _, f := range figures {
		out, err := runTiny(t, f.name)
		if err != nil {
			t.Fatalf("-fig %s: %v", f.name, err)
		}
		for name, h := range headers {
			if got := strings.Contains(out, h); got != (name == f.name) {
				t.Errorf("-fig %s: header of %s present = %v", f.name, name, got)
			}
		}
	}
}

func TestFigAllPrintsEveryFigureInOrder(t *testing.T) {
	out, err := runTiny(t, "all")
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for _, f := range figures {
		i := strings.Index(out[at:], headers[f.name])
		if i < 0 {
			t.Fatalf("-fig all: header of %s missing after offset %d", f.name, at)
		}
		at += i
	}
	if !strings.Contains(out[at:], "total experiment time: ") {
		t.Error("-fig all: no closing line")
	}
}

// The systems figures this command used to carry are gone; a stale script
// naming one — or any typo — must fail loudly rather than run nothing.
func TestUnknownAndDeletedFiguresAreRejected(t *testing.T) {
	for _, fig := range []string{"nosuchfig", "4,nosuchfig", "",
		"snapshot", "shards", "concurrency", "updates", "cache", "wire", "fleet"} {
		out, err := runTiny(t, fig)
		if err == nil {
			t.Errorf("-fig %q accepted", fig)
			continue
		}
		if out != "" {
			t.Errorf("-fig %q printed %q before failing", fig, out)
		}
		for _, f := range figures {
			if !strings.Contains(err.Error(), f.name) {
				t.Errorf("-fig %q: error %q does not list %s", fig, err, f.name)
			}
		}
	}
	for _, flag := range []string{"-json", "-metrics-dump", "-reuse-floor"} {
		if err := run([]string{flag, "x"}, &bytes.Buffer{}); err == nil {
			t.Errorf("deleted flag %s accepted", flag)
		}
	}
}
