// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): the list-length distribution (Fig 4), the synthetic
// query-size sweep (Fig 13a–e), the VO breakdown (Table 2), the synthetic
// result-size sweep (Fig 14a–e), the TREC-like sweep (Fig 15a–e), the §4.1
// space-overhead claims and the §4.5 headline numbers.
//
// Each experiment runs the four algorithm/scheme variants over a workload,
// verifies every answer client-side (the verification wall time is the
// "CPU time" panel), and reports the same five metrics as the paper's
// figures: entries read per term, fraction of list read, I/O time
// (simulated), VO size, and client CPU time.
package experiments

import (
	"fmt"
	"io"
	"time"

	"authtext/internal/core"
	"authtext/internal/corpus"
	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/sig"
	"authtext/internal/workload"
)

// Variant identifies one algorithm/scheme combination.
type Variant struct {
	Algo   core.Algo
	Scheme core.Scheme
}

// String implements fmt.Stringer ("TRA-MHT", ...).
func (v Variant) String() string { return v.Algo.String() + "-" + v.Scheme.String() }

// Variants lists the four combinations evaluated throughout §4.
var Variants = []Variant{
	{core.AlgoTRA, core.SchemeMHT},
	{core.AlgoTRA, core.SchemeCMHT},
	{core.AlgoTNRA, core.SchemeMHT},
	{core.AlgoTNRA, core.SchemeCMHT},
}

// Metrics are per-query averages for one variant at one sweep point.
type Metrics struct {
	EntriesPerTerm float64 // panel (a)
	PctListRead    float64 // panel (b)
	IOMillis       float64 // panel (c), simulated disk time
	VOKB           float64 // panel (d)
	ClientMillis   float64 // panel (e), verification wall time
	ListLen        float64 // "List Length" baseline of panel (a)
	VOData         float64 // bytes, for Table 2
	VODigest       float64 // bytes, for Table 2
	ServerMillis   float64
	RandomIOs      float64
}

type agg struct {
	n int
	m Metrics
}

func (a *agg) add(st *engine.QueryStats, clientMs float64) {
	a.n++
	a.m.EntriesPerTerm += st.EntriesPerTerm
	a.m.PctListRead += st.PctListRead
	a.m.IOMillis += float64(st.IO.SimTime) / float64(time.Millisecond)
	a.m.VOKB += float64(st.VO.Total()) / 1024
	a.m.ClientMillis += clientMs
	a.m.ListLen += st.AvgListLen
	a.m.VOData += float64(st.VO.Data)
	a.m.VODigest += float64(st.VO.Digest)
	a.m.ServerMillis += float64(st.ServerWall) / float64(time.Millisecond)
	a.m.RandomIOs += float64(st.IO.RandomReads)
}

func (a *agg) mean() Metrics {
	if a.n == 0 {
		return Metrics{}
	}
	f := 1 / float64(a.n)
	m := a.m
	m.EntriesPerTerm *= f
	m.PctListRead *= f
	m.IOMillis *= f
	m.VOKB *= f
	m.ClientMillis *= f
	m.ListLen *= f
	m.VOData *= f
	m.VODigest *= f
	m.ServerMillis *= f
	m.RandomIOs *= f
	return m
}

// Fixture is a built collection shared by the experiments.
type Fixture struct {
	Profile corpus.Profile
	Col     *engine.Collection
}

// NewFixture generates the corpus and builds the collection. With rsa set
// it signs with RSA-1024 (paper-faithful but slow at scale); otherwise it
// uses the keyed-hash signer with RSA-sized signatures
// (docs/ARCHITECTURE.md, "Departures from the paper").
func NewFixture(p corpus.Profile, rsa bool) (*Fixture, error) {
	var signer sig.Signer
	var err error
	if rsa {
		signer, err = sig.NewRSASigner(sig.DefaultRSABits)
	} else {
		signer, err = sig.NewHMACSigner([]byte("experiments-"+p.Name), 128)
	}
	if err != nil {
		return nil, err
	}
	docs := corpus.Generate(p)
	col, err := engine.BuildCollection(docs, engine.DefaultConfig(signer))
	if err != nil {
		return nil, err
	}
	return &Fixture{Profile: p, Col: col}, nil
}

// RunPoint executes the workload at result size r for all four variants and
// returns per-variant mean metrics. Every result is verified; a
// verification failure aborts the experiment (it would mean the
// implementation, not the adversary, is wrong).
func RunPoint(col *engine.Collection, queries [][]string, r int) (map[Variant]Metrics, error) {
	aggs := make(map[Variant]*agg, len(Variants))
	for _, v := range Variants {
		aggs[v] = &agg{}
	}
	for _, qTokens := range queries {
		for _, v := range Variants {
			res, voBytes, st, err := col.Search(qTokens, r, v.Algo, v.Scheme)
			if err != nil {
				return nil, fmt.Errorf("experiments: %v on %v: %w", v, qTokens, err)
			}
			dur, err := col.VerifyResult(qTokens, r, res, voBytes)
			if err != nil {
				return nil, fmt.Errorf("experiments: %v on %v: verification: %w", v, qTokens, err)
			}
			aggs[v].add(st, float64(dur)/float64(time.Millisecond))
		}
	}
	out := make(map[Variant]Metrics, len(Variants))
	for v, a := range aggs {
		out[v] = a.mean()
	}
	return out, nil
}

// Options tunes experiment scale.
type Options struct {
	// Queries per sweep point (the paper uses 1000 synthetic queries and
	// the 100 TREC topics).
	Queries int
	// QSizes is the Fig 13 / Table 2 query-size sweep.
	QSizes []int
	// RValues is the Fig 14 / Fig 15 result-size sweep.
	RValues []int
	// Seed for workload generation.
	Seed int64
}

// DefaultOptions mirrors the paper's sweeps at a tractable query count.
func DefaultOptions() Options {
	return Options{
		Queries: 100,
		QSizes:  []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20},
		RValues: []int{10, 20, 40, 60, 80},
		Seed:    42,
	}
}

// SweepResult holds per-variant metrics across a sweep.
type SweepResult struct {
	X      []int // sweep variable (query size or result size)
	Points []map[Variant]Metrics
}

// Fig13 runs the synthetic workload varying query size with r = 10.
func Fig13(f *Fixture, opts Options, w io.Writer) (*SweepResult, error) {
	res := &SweepResult{}
	for _, qs := range opts.QSizes {
		queries := workload.Synthetic(f.Col.Index(), opts.Queries, qs, opts.Seed+int64(qs))
		point, err := RunPoint(f.Col, queries, 10)
		if err != nil {
			return nil, err
		}
		res.X = append(res.X, qs)
		res.Points = append(res.Points, point)
	}
	printSweep(w, "Figure 13 — synthetic workload, varying query size (r=10)", "q", res)
	return res, nil
}

// Fig14 runs the synthetic workload varying result size with q = 3.
func Fig14(f *Fixture, opts Options, w io.Writer) (*SweepResult, error) {
	queries := workload.Synthetic(f.Col.Index(), opts.Queries, 3, opts.Seed)
	res := &SweepResult{}
	for _, r := range opts.RValues {
		point, err := RunPoint(f.Col, queries, r)
		if err != nil {
			return nil, err
		}
		res.X = append(res.X, r)
		res.Points = append(res.Points, point)
	}
	printSweep(w, "Figure 14 — synthetic workload, varying result size (q=3)", "r", res)
	return res, nil
}

// Fig15 runs the TREC-like workload varying result size.
func Fig15(f *Fixture, opts Options, w io.Writer) (*SweepResult, error) {
	queries := workload.TRECLike(f.Col.Index(), opts.Queries, opts.Seed)
	res := &SweepResult{}
	for _, r := range opts.RValues {
		point, err := RunPoint(f.Col, queries, r)
		if err != nil {
			return nil, err
		}
		res.X = append(res.X, r)
		res.Points = append(res.Points, point)
	}
	printSweep(w, "Figure 15 — TREC-like workload, varying result size", "r", res)
	return res, nil
}

// Table2 reports the VO composition (data% vs digest%) of the TRA variants
// across query sizes.
func Table2(f *Fixture, opts Options, w io.Writer) (*SweepResult, error) {
	res := &SweepResult{}
	for _, qs := range opts.QSizes {
		queries := workload.Synthetic(f.Col.Index(), opts.Queries, qs, opts.Seed+int64(qs))
		point, err := RunPoint(f.Col, queries, 10)
		if err != nil {
			return nil, err
		}
		res.X = append(res.X, qs)
		res.Points = append(res.Points, point)
	}
	fmt.Fprintln(w, "Table 2 — Breakdown of VO size (TRA), data% vs digest%")
	fmt.Fprintf(w, "%-8s", "QSize")
	for _, x := range res.X {
		fmt.Fprintf(w, "%8d", x)
	}
	fmt.Fprintln(w)
	for _, v := range []Variant{{core.AlgoTRA, core.SchemeMHT}, {core.AlgoTRA, core.SchemeCMHT}} {
		fmt.Fprintf(w, "%s:\n", map[core.Scheme]string{core.SchemeMHT: "MHT", core.SchemeCMHT: "CMHT"}[v.Scheme])
		fmt.Fprintf(w, "%-8s", "Data(%)")
		for _, p := range res.Points {
			m := p[v]
			d, _ := share(m.VOData, m.VODigest)
			fmt.Fprintf(w, "%8.0f", d)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-8s", "Dig(%)")
		for _, p := range res.Points {
			m := p[v]
			_, g := share(m.VOData, m.VODigest)
			fmt.Fprintf(w, "%8.0f", g)
		}
		fmt.Fprintln(w)
	}
	return res, nil
}

func share(data, digest float64) (float64, float64) {
	t := data + digest
	if t == 0 {
		return 0, 0
	}
	return 100 * data / t, 100 * digest / t
}

// Fig4 prints the inverted-list length distribution.
func Fig4(f *Fixture, w io.Writer) corpus.Distribution {
	idx := f.Col.Index()
	d := corpus.Describe(idx.ListLengths(), idx.N)
	fmt.Fprintln(w, "Figure 4 — inverted list length distribution")
	fmt.Fprintf(w, "  documents n = %d, dictionary m = %d\n", idx.N, d.Terms)
	fmt.Fprintf(w, "  terms with 2-5 postings: %.1f%% (paper: >50%%)\n", 100*d.ShortShare)
	fmt.Fprintf(w, "  longest list: %d = %.2f·n (paper: 127,848 = 0.74·n)\n", d.MaxLen, d.MaxLenRatio)
	fmt.Fprintln(w, "  cumulative distribution:")
	for _, c := range d.Cumulative {
		fmt.Fprintf(w, "    ≤ %-8d : %5.1f%%\n", c.MaxLen, 100*c.Frac)
	}
	return d
}

// SpaceReport prints the storage overhead of each variant relative to a
// plain (unauthenticated) corpus + inverted index, the quantity behind the
// §4.1 claims (TNRA < 1 %, TRA ≈ 25 %).
func SpaceReport(f *Fixture, w io.Writer) map[string]float64 {
	sp := f.Col.Space()
	base := float64(sp.ContentBytes + sp.PlainListBytes)
	sigShare := float64(sp.TermSigBytes) / 4 // one structure kind's signatures
	over := map[string]float64{
		"TNRA-MHT":  100 * sigShare / base,
		"TNRA-CMHT": 100 * (float64(sp.ChainTNRABytes-sp.PlainListBytes) + sigShare) / base,
		"TRA-MHT":   100 * (float64(sp.DocRecordBytes) + sigShare) / base,
		"TRA-CMHT":  100 * (float64(sp.ChainTRABytes-sp.PlainListBytes) + float64(sp.DocRecordBytes) + sigShare) / base,
	}
	fmt.Fprintln(w, "Space overhead over plain corpus + inverted index (§4.1)")
	fmt.Fprintf(w, "  corpus %0.1f MB, plain index %0.1f MB, doc records %0.1f MB\n",
		mb(sp.ContentBytes), mb(sp.PlainListBytes), mb(sp.DocRecordBytes))
	for _, v := range []string{"TNRA-MHT", "TNRA-CMHT", "TRA-MHT", "TRA-CMHT"} {
		fmt.Fprintf(w, "  %-10s %+6.2f%%\n", v, over[v])
	}
	fmt.Fprintln(w, "  paper: TNRA < 1% extra, TRA ≈ 25% extra (document-MHTs)")
	return over
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// Headline reproduces the §4.5 summary numbers: synthetic q=3 r=20 and
// TREC r=20, for TNRA-CMHT.
func Headline(f *Fixture, opts Options, w io.Writer) (map[string]Metrics, error) {
	out := make(map[string]Metrics, 2)
	syn := workload.Synthetic(f.Col.Index(), opts.Queries, 3, opts.Seed)
	p, err := RunPoint(f.Col, syn, 20)
	if err != nil {
		return nil, err
	}
	best := Variant{core.AlgoTNRA, core.SchemeCMHT}
	out["synthetic"] = p[best]
	trec := workload.TRECLike(f.Col.Index(), opts.Queries, opts.Seed)
	p, err = RunPoint(f.Col, trec, 20)
	if err != nil {
		return nil, err
	}
	out["trec"] = p[best]
	fmt.Fprintln(w, "Headline TNRA-CMHT costs (§4.5, r=20)")
	fmt.Fprintf(w, "  synthetic q=3: I/O %.1f ms, VO %.1f KB, verify %.1f ms (paper: <50 ms, ~1 KB, <10 ms)\n",
		out["synthetic"].IOMillis, out["synthetic"].VOKB, out["synthetic"].ClientMillis)
	fmt.Fprintf(w, "  TREC-like:     I/O %.1f ms, VO %.1f KB, verify %.1f ms (paper: ~60 ms, 32 KB, 40 ms)\n",
		out["trec"].IOMillis, out["trec"].VOKB, out["trec"].ClientMillis)
	return out, nil
}

// printSweep renders the five panels of a figure as aligned text tables.
func printSweep(w io.Writer, title, xName string, res *SweepResult) {
	fmt.Fprintln(w, title)
	panels := []struct {
		name string
		get  func(Metrics) float64
		base bool // include the List-Length baseline column
	}{
		{"(a) entries read per term", func(m Metrics) float64 { return m.EntriesPerTerm }, true},
		{"(b) % of inverted list read", func(m Metrics) float64 { return m.PctListRead }, false},
		{"(c) I/O time (ms, simulated)", func(m Metrics) float64 { return m.IOMillis }, false},
		{"(d) VO size (KB)", func(m Metrics) float64 { return m.VOKB }, false},
		{"(e) client CPU time (ms)", func(m Metrics) float64 { return m.ClientMillis }, false},
	}
	for _, panel := range panels {
		fmt.Fprintf(w, "\n%s\n", panel.name)
		fmt.Fprintf(w, "%-5s", xName)
		if panel.base {
			fmt.Fprintf(w, "%12s", "ListLen")
		}
		for _, v := range Variants {
			fmt.Fprintf(w, "%12s", v)
		}
		fmt.Fprintln(w)
		for i, x := range res.X {
			fmt.Fprintf(w, "%-5d", x)
			if panel.base {
				fmt.Fprintf(w, "%12.1f", res.Points[i][Variants[0]].ListLen)
			}
			for _, v := range Variants {
				fmt.Fprintf(w, "%12.2f", panel.get(res.Points[i][v]))
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}

// BuildIndexOnly builds just the inverted index for a profile (Fig 4 needs
// no authentication structures); exposed for the distribution benchmark.
func BuildIndexOnly(p corpus.Profile) (*index.Index, error) {
	return index.Build(corpus.Generate(p), index.DefaultOptions())
}
