// Package corpus generates synthetic document collections whose
// inverted-list length distribution reproduces the WSJ corpus of §4.1
// (docs/ARCHITECTURE.md, "Departures from the paper", documents the
// substitution).
//
// The WSJ properties the evaluation depends on:
//
//   - n = 172,961 documents averaging ≈ 3 KB;
//   - m = 181,978 dictionary terms after stopword and singleton removal;
//   - a highly skewed list-length distribution (Fig 4): more than 50 % of
//     terms have 2–5 postings while the longest list has 127,848 (≈ 0.74·n);
//   - log-normal-ish document lengths.
//
// Terms are drawn from a Zipf law over a synthetic vocabulary; scaled-down
// profiles keep the shape while shrinking n for CI and bench budgets.
package corpus

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"authtext/internal/index"
)

// Profile parameterises a synthetic collection.
type Profile struct {
	Name string
	// Docs is the collection size n.
	Docs int
	// Vocab is the size of the vocabulary documents draw from (the
	// dictionary ends up smaller after singleton removal).
	Vocab int
	// AvgLen is the mean document length in tokens.
	AvgLen float64
	// SigmaLen is the log-normal σ of document lengths.
	SigmaLen float64
	// ZipfS and ZipfV parameterise the term distribution
	// P(k) ∝ 1/(v+k)^s.
	ZipfS, ZipfV float64
	// Seed makes generation deterministic.
	Seed int64
}

// Tiny is a unit-test profile (hundreds of documents).
func Tiny() Profile {
	return Profile{Name: "tiny", Docs: 300, Vocab: 2000, AvgLen: 60, SigmaLen: 0.6, ZipfS: 1.35, ZipfV: 2, Seed: 1}
}

// Small is the go-test/bench profile (a few thousand documents).
func Small() Profile {
	return Profile{Name: "small", Docs: 3000, Vocab: 20000, AvgLen: 120, SigmaLen: 0.6, ZipfS: 1.3, ZipfV: 2, Seed: 2}
}

// Medium is the default experiment profile (tens of thousands of documents;
// the shape of every figure is stable at this scale).
func Medium() Profile {
	return Profile{Name: "medium", Docs: 20000, Vocab: 120000, AvgLen: 180, SigmaLen: 0.6, ZipfS: 1.25, ZipfV: 2, Seed: 3}
}

// WSJ is the full paper-scale profile (172,961 documents). Building all
// four authentication structures at this scale takes minutes and gigabytes;
// use it for headline numbers only.
func WSJ() Profile {
	return Profile{Name: "wsj", Docs: 172961, Vocab: 900000, AvgLen: 255, SigmaLen: 0.6, ZipfS: 1.22, ZipfV: 2, Seed: 4}
}

// ProfileByName resolves a profile name.
func ProfileByName(name string) (Profile, error) {
	switch strings.ToLower(name) {
	case "tiny":
		return Tiny(), nil
	case "small":
		return Small(), nil
	case "medium":
		return Medium(), nil
	case "wsj":
		return WSJ(), nil
	}
	return Profile{}, fmt.Errorf("corpus: unknown profile %q", name)
}

// word derives a deterministic pseudo-word for a vocabulary rank. Rank 0 is
// the most frequent term. Words are built from syllables so examples read
// plausibly; every word is ≥ 3 letters and never collides with another rank.
func word(rank int) string {
	syllables := []string{
		"ba", "co", "da", "fe", "gi", "ho", "ju", "ka", "le", "mi",
		"no", "pu", "ra", "se", "ti", "vo", "wa", "xe", "yi", "zu",
	}
	var b strings.Builder
	r := rank
	for {
		b.WriteString(syllables[r%len(syllables)])
		r = r / len(syllables)
		if r == 0 {
			break
		}
		r--
	}
	// Suffix with the rank to guarantee uniqueness for big vocabularies.
	fmt.Fprintf(&b, "%d", rank)
	return b.String()
}

// Generate produces the document collection for a profile.
func Generate(p Profile) []index.Document {
	rng := rand.New(rand.NewSource(p.Seed))
	zipf := rand.NewZipf(rng, p.ZipfS, p.ZipfV, uint64(p.Vocab-1))
	vocab := make([]string, p.Vocab)
	for i := range vocab {
		vocab[i] = word(i)
	}
	docs := make([]index.Document, p.Docs)
	mu := math.Log(p.AvgLen) - p.SigmaLen*p.SigmaLen/2
	for d := range docs {
		ln := int(math.Exp(rng.NormFloat64()*p.SigmaLen + mu))
		if ln < 8 {
			ln = 8
		}
		toks := make([]string, ln)
		for i := range toks {
			toks[i] = vocab[zipf.Uint64()]
		}
		content := []byte(fmt.Sprintf("synthetic-doc-%d %s", d, strings.Join(toks, " ")))
		docs[d] = index.Document{Content: content, Tokens: toks}
	}
	return docs
}

// Distribution summarises an inverted-list length distribution (the data of
// Fig 4).
type Distribution struct {
	Terms       int
	MaxLen      int
	MaxLenRatio float64 // longest list / n
	// ShortShare is the fraction of terms with 2–5 postings (the paper
	// reports > 50 % for WSJ).
	ShortShare float64
	// Cumulative holds (length bound, cumulative fraction of terms) pairs
	// at power-of-ten bounds, mirroring Fig 4's axes.
	Cumulative []CumPoint
}

// CumPoint is one point of the cumulative list-length distribution.
type CumPoint struct {
	MaxLen int
	Frac   float64
}

// Describe computes the distribution of the given list lengths for a
// collection of n documents.
func Describe(lengths []int, n int) Distribution {
	d := Distribution{Terms: len(lengths)}
	short := 0
	for _, l := range lengths {
		if l > d.MaxLen {
			d.MaxLen = l
		}
		if l >= 2 && l <= 5 {
			short++
		}
	}
	if n > 0 {
		d.MaxLenRatio = float64(d.MaxLen) / float64(n)
	}
	if len(lengths) > 0 {
		d.ShortShare = float64(short) / float64(len(lengths))
	}
	for bound := 10; ; bound *= 10 {
		cnt := 0
		for _, l := range lengths {
			if l <= bound {
				cnt++
			}
		}
		d.Cumulative = append(d.Cumulative, CumPoint{MaxLen: bound, Frac: float64(cnt) / float64(len(lengths))})
		if bound >= d.MaxLen {
			break
		}
	}
	return d
}
