// Package workload generates the two query workloads of §4.1:
//
//   - Synthetic: fixed-size queries of terms drawn uniformly at random from
//     the dictionary (resembling short Web queries, §4.5).
//   - TREC-like: verbose queries of 2–20 terms mixing document-frequency-
//     biased terms (common words hitting long inverted lists) with uniform
//     ones, reproducing the two properties of the TREC-2/3 ad-hoc topics
//     that drive Fig 15 (docs/ARCHITECTURE.md, "Departures from the paper",
//     documents the substitution).
//
// Beyond the paper, Zipfian produces the repeat-heavy streams of
// production traffic: a fixed pool of distinct queries replayed with
// Zipf-distributed popularity (the same rand.Zipf machinery
// internal/corpus uses for term frequencies), which is the workload the
// server-side VO cache is sized against.
package workload

import (
	"math/rand"
	"sort"

	"authtext/internal/index"
)

// Synthetic returns count queries of exactly qsize distinct dictionary
// terms drawn uniformly at random.
func Synthetic(idx *index.Index, count, qsize int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	m := idx.M()
	if qsize > m {
		qsize = m
	}
	out := make([][]string, count)
	for i := range out {
		seen := make(map[int]struct{}, qsize)
		q := make([]string, 0, qsize)
		for len(q) < qsize {
			t := rng.Intn(m)
			if _, dup := seen[t]; dup {
				continue
			}
			seen[t] = struct{}{}
			q = append(q, idx.Name(index.TermID(t)))
		}
		out[i] = q
	}
	return out
}

// ZipfRanks returns count pool indices in [0, poolSize) drawn from a Zipf
// law with exponent s (must be > 1; larger s = heavier head). Rank 0 is the
// most popular. Callers that already have a pool of queries (or anything
// else) use the ranks to replay it with production-shaped repetition.
func ZipfRanks(count, poolSize int, s float64, seed int64) []int {
	if poolSize < 1 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, s, 1, uint64(poolSize-1))
	out := make([]int, count)
	for i := range out {
		out[i] = int(zipf.Uint64())
	}
	return out
}

// Zipfian returns a repeat-heavy stream of count queries: a pool of
// poolSize distinct qsize-term queries (drawn like Synthetic) replayed
// with Zipf(s)-distributed popularity. Entries of the returned stream
// alias pool queries, so repeats are pointer-identical — exactly what a
// query cache sees from head-skewed traffic.
func Zipfian(idx *index.Index, count, poolSize, qsize int, s float64, seed int64) [][]string {
	pool := Synthetic(idx, poolSize, qsize, seed)
	ranks := ZipfRanks(count, len(pool), s, seed+1)
	out := make([][]string, count)
	for i, r := range ranks {
		out[i] = pool[r]
	}
	return out
}

// TRECLike returns count verbose queries. Lengths are drawn from 2–20
// (centre-weighted, like topics 101–200); with probability commonBias each
// term comes from the top decile of document frequencies, so that longer
// queries hit several long inverted lists — the defining property of the
// TREC workload in §4.4.
func TRECLike(idx *index.Index, count int, seed int64) [][]string {
	const commonBias = 0.4
	rng := rand.New(rand.NewSource(seed))
	m := idx.M()

	// Terms sorted by descending document frequency; the top decile are
	// the "common words".
	byDF := make([]int, m)
	for i := range byDF {
		byDF[i] = i
	}
	sort.Slice(byDF, func(a, b int) bool {
		return idx.FT(index.TermID(byDF[a])) > idx.FT(index.TermID(byDF[b]))
	})
	topDecile := m / 10
	if topDecile < 1 {
		topDecile = 1
	}

	out := make([][]string, count)
	for i := range out {
		// Triangular length distribution over [2, 20] with mode ≈ 8.
		qsize := 2 + int(float64(18)*triangular(rng, 6.0/18.0))
		if qsize > m {
			qsize = m
		}
		seen := make(map[int]struct{}, qsize)
		q := make([]string, 0, qsize)
		for len(q) < qsize && len(seen) < m {
			var t int
			if rng.Float64() < commonBias {
				t = byDF[rng.Intn(topDecile)]
			} else {
				t = rng.Intn(m)
			}
			if _, dup := seen[t]; dup {
				continue
			}
			seen[t] = struct{}{}
			q = append(q, idx.Name(index.TermID(t)))
		}
		out[i] = q
	}
	return out
}

// triangular samples a triangular distribution on [0, 1) with the given
// mode.
func triangular(rng *rand.Rand, mode float64) float64 {
	u := rng.Float64()
	if u < mode {
		return sqrtApprox(u * mode)
	}
	return 1 - sqrtApprox((1-u)*(1-mode))
}

func sqrtApprox(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iterations suffice here and avoid importing math for one call.
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}
