package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"authtext/internal/core"
	"authtext/internal/corpus"
	"authtext/internal/engine"
	"authtext/internal/sig"
	"authtext/internal/workload"
)

var (
	fixtureOnce sync.Once
	fixture     *Fixture
	fixtureErr  error
)

func tinyFixture(t *testing.T) *Fixture {
	t.Helper()
	fixtureOnce.Do(func() {
		fixture, fixtureErr = NewFixture(corpus.Tiny(), false)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture
}

func tinyOptions() Options {
	return Options{
		Queries: 5,
		QSizes:  []int{2, 5},
		RValues: []int{5, 10},
		Seed:    7,
	}
}

func TestFig4(t *testing.T) {
	f := tinyFixture(t)
	var buf bytes.Buffer
	d := Fig4(f, &buf)
	if d.Terms == 0 || d.MaxLen == 0 {
		t.Fatalf("degenerate distribution: %+v", d)
	}
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Fatal("missing header")
	}
}

func TestFig13Smoke(t *testing.T) {
	f := tinyFixture(t)
	var buf bytes.Buffer
	res, err := Fig13(f, tinyOptions(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.X) != 2 || len(res.Points) != 2 {
		t.Fatalf("sweep shape: %+v", res.X)
	}
	// Larger queries read at least as many entries in total; check the
	// baseline column exists and is positive.
	for _, p := range res.Points {
		for _, v := range Variants {
			m := p[v]
			if m.EntriesPerTerm <= 0 || m.VOKB <= 0 || m.ListLen <= 0 {
				t.Fatalf("%v: empty metrics %+v", v, m)
			}
			if m.EntriesPerTerm > m.ListLen+1e-9 {
				t.Fatalf("%v read more entries than the lists hold", v)
			}
		}
	}
	out := buf.String()
	for _, panel := range []string{"(a)", "(b)", "(c)", "(d)", "(e)"} {
		if !strings.Contains(out, panel) {
			t.Fatalf("missing panel %s", panel)
		}
	}
}

func TestFig14Smoke(t *testing.T) {
	f := tinyFixture(t)
	var buf bytes.Buffer
	res, err := Fig14(f, tinyOptions(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Costs must not shrink as r grows.
	for _, v := range Variants {
		if res.Points[1][v].EntriesPerTerm+1e-9 < res.Points[0][v].EntriesPerTerm {
			t.Fatalf("%v: entries read shrank with larger r", v)
		}
	}
}

func TestFig15Smoke(t *testing.T) {
	f := tinyFixture(t)
	var buf bytes.Buffer
	res, err := Fig15(f, tinyOptions(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatal("sweep shape")
	}
}

func TestTable2Smoke(t *testing.T) {
	f := tinyFixture(t)
	var buf bytes.Buffer
	res, err := Table2(f, tinyOptions(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	// CMHT's buddy inclusion must shift VO composition toward data
	// relative to MHT (Table 2's finding), comparing the same sweep point.
	mht := res.Points[0][Variant{core.AlgoTRA, core.SchemeMHT}]
	cmht := res.Points[0][Variant{core.AlgoTRA, core.SchemeCMHT}]
	dMHT, _ := share(mht.VOData, mht.VODigest)
	dCMHT, _ := share(cmht.VOData, cmht.VODigest)
	if dCMHT < dMHT {
		t.Fatalf("CMHT data share %.1f%% below MHT %.1f%%", dCMHT, dMHT)
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatal("missing header")
	}
}

func TestSpaceReport(t *testing.T) {
	f := tinyFixture(t)
	var buf bytes.Buffer
	over := SpaceReport(f, &buf)
	if over["TRA-MHT"] <= over["TNRA-MHT"] {
		t.Fatalf("TRA overhead (%.2f%%) must exceed TNRA (%.2f%%): doc records dominate",
			over["TRA-MHT"], over["TNRA-MHT"])
	}
	for v, pct := range over {
		if pct <= 0 {
			t.Fatalf("%s overhead %.2f%% not positive", v, pct)
		}
	}
}

func TestHeadlineSmoke(t *testing.T) {
	f := tinyFixture(t)
	var buf bytes.Buffer
	h, err := Headline(f, tinyOptions(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if h["synthetic"].VOKB <= 0 || h["trec"].VOKB <= 0 {
		t.Fatalf("degenerate headline: %+v", h)
	}
}

// TestShapeTNRACMHTWins asserts the paper's §4.5 conclusion at test scale:
// TNRA-CMHT beats TRA variants on I/O and VO size, and beats TNRA-MHT on
// I/O.
func TestShapeTNRACMHTWins(t *testing.T) {
	f := tinyFixture(t)
	var buf bytes.Buffer
	opts := tinyOptions()
	opts.Queries = 10
	opts.QSizes = []int{3}
	res, err := Fig13(f, opts, &buf)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	winner := p[Variant{core.AlgoTNRA, core.SchemeCMHT}]
	traMHT := p[Variant{core.AlgoTRA, core.SchemeMHT}]
	tnraMHT := p[Variant{core.AlgoTNRA, core.SchemeMHT}]
	if winner.IOMillis > traMHT.IOMillis {
		t.Fatalf("TNRA-CMHT I/O %.2f ms not below TRA-MHT %.2f ms", winner.IOMillis, traMHT.IOMillis)
	}
	if winner.IOMillis > tnraMHT.IOMillis {
		t.Fatalf("TNRA-CMHT I/O %.2f ms not below TNRA-MHT %.2f ms", winner.IOMillis, tnraMHT.IOMillis)
	}
	if winner.VOKB > traMHT.VOKB {
		t.Fatalf("TNRA-CMHT VO %.2f KB not below TRA-MHT %.2f KB", winner.VOKB, traMHT.VOKB)
	}
}

// TestTable2ProgressionWithQuerySize asserts Table 2's trend: the data
// share of TRA VOs grows with query size under both schemes (more terms →
// more revealed leaves relative to shared digests).
func TestTable2ProgressionWithQuerySize(t *testing.T) {
	f := tinyFixture(t)
	opts := tinyOptions()
	opts.QSizes = []int{2, 8}
	opts.Queries = 15
	res, err := Table2(f, opts, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
		v := Variant{Algo: core.AlgoTRA, Scheme: scheme}
		small := res.Points[0][v]
		large := res.Points[1][v]
		dSmall, _ := share(small.VOData, small.VODigest)
		dLarge, _ := share(large.VOData, large.VODigest)
		if dLarge+2 < dSmall { // small tolerance for workload noise
			t.Fatalf("%v: data share fell from %.1f%% to %.1f%% as q grew", v, dSmall, dLarge)
		}
	}
}

// TestBoostedFixtureRunsThroughHarness exercises the experiment runner on a
// boosted collection: every variant must still verify.
func TestBoostedFixtureRunsThroughHarness(t *testing.T) {
	signer, err := sig.NewHMACSigner([]byte("boost-harness"), 128)
	if err != nil {
		t.Fatal(err)
	}
	docs := corpus.Generate(corpus.Tiny())
	authority := make([]float64, len(docs))
	for i := range authority {
		authority[i] = float64(i%10) / 10
	}
	cfg := engine.DefaultConfig(signer)
	cfg.Authority = authority
	cfg.Beta = 1.0
	col, err := engine.BuildCollection(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.Synthetic(col.Index(), 5, 3, 3)
	if _, err := RunPoint(col, queries, 5); err != nil {
		t.Fatal(err)
	}
}
