package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, for every workload × end-to-end metric present in
// both result documents, the two values, the relative difference, the
// metric's bound and a verdict; it reports whether anything regressed.
// It is how two runs of the same code are shown to agree, and how a later
// change is held to the bounds.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-16s %-26s %14s %14s %8s %7s  %s\n", "workload", "metric", "A", "B", "diff", "bound", "verdict")
	compared := 0
	for _, spec := range workloads {
		name := spec.name
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, okA := ra.Metrics[d.name]
			mb, okB := rb.Metrics[d.name]
			if !okA || !okB {
				continue
			}
			compared++
			verdict := verdictOf(d, ma.Value, mb.Value)
			if verdict == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-26s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n",
				name, d.name, ma.Value, mb.Value, 100*ratio(mb.Value-ma.Value, ma.Value), 100*d.bound, verdict)
		}
		// The share of failed operations must not rise.
		shareA, shareB := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted))
		verdict := "ok"
		if shareB > shareA {
			verdict, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-16s %-26s %14.6f %14.6f %8s %7s  %s\n", name, "failed_ops/attempted_ops", shareA, shareB, "", "", verdict)
	}
	if compared == 0 {
		return false, fmt.Errorf("%s and %s share no workload with end-to-end metrics", pathA, pathB)
	}
	return regressed, nil
}

// verdictOf judges B against baseline A: worse by more than the bound is
// a regression, better by more than the bound an improvement.
func verdictOf(d metricDef, a, b float64) string {
	change := ratio(b-a, a)
	if d.better == "higher" {
		change = -change
	}
	switch {
	case change > d.bound:
		return "regressed"
	case change < -d.bound:
		return "improved"
	}
	return "ok"
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}
