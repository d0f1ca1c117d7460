package main

import (
	"fmt"
	"math/rand"
	"strings"

	"authtext"
	"authtext/internal/corpus"
	"authtext/internal/index"
	"authtext/internal/workload"
)

// benchProfile is the collection every workload serves: the shape of
// corpus.Small (Zipf term law, log-normal lengths) at a fifth of its size
// — 600 documents, ≈6 600 RSA-1024 signatures — so that one full owner
// build takes ≈2.5 s on the 2-core box and a run can afford to set up
// three times and still measure for 15 s inside the driver's budget.
var benchProfile = corpus.Profile{
	Name: "bench", Docs: 600, Vocab: 4000, AvgLen: 80, SigmaLen: 0.6, ZipfS: 1.3, ZipfV: 2, Seed: 11,
}

// resultSize is r, the paper's default top-10.
const resultSize = 10

// workloadSpec is one traffic mix. Rates are fixed numbers, about a third
// of the closed-loop capacity measured when the benchmark was written, so
// the open-loop queue is stable; only a later benchmark change — never a
// performance change — re-baselines them.
type workloadSpec struct {
	name string
	// why is the one-line reason in BENCHMARK.json.
	why    string
	algo   authtext.Algorithm
	scheme authtext.Scheme
	// cacheMB > 0 starts the daemon with a VO cache of that many MiB.
	cacheMB int
	// live starts the daemon as a live owner over a corpus directory and
	// interleaves update batches with the searches.
	live bool
	// rate is the open-loop arrival rate, requests per second.
	rate float64
	// sloMs is the limit on latency-from-schedule behind
	// loadgen.slo_miss_share.
	sloMs float64
	// traced is how many leading queries the traced pass and the replay
	// run.
	traced int
	// stream generates n queries from the collection's dictionary.
	stream func(idx *index.Index, n int, seed int64) [][]string
}

// zipfStream is production-shaped traffic: a pool of 4 000 distinct
// 3-term queries replayed with Zipf(1.1) popularity. The pool's answers
// outweigh the daemon's cache several times over, so the cache runs at a
// steady ≈80 % hit ratio with continuous evictions.
func zipfStream(idx *index.Index, n int, seed int64) [][]string {
	return workload.Zipfian(idx, n, 4000, 3, 1.1, seed)
}

var workloads = []workloadSpec{
	{
		name: "short_uncached",
		why:  "Web-style 3-term queries, all distinct, no cache: engine and HTTP fixed cost dominate, proofs are small",
		algo: authtext.TNRA, scheme: authtext.ChainMHT,
		rate: 400, sloMs: 10, traced: 400,
		stream: func(idx *index.Index, n int, seed int64) [][]string {
			return workload.Synthetic(idx, n, 3, seed)
		},
	},
	{
		name: "verbose_tra",
		why:  "TREC-like 2-20 term queries under TRA: big proofs, client verification costs more than server search",
		algo: authtext.TRA, scheme: authtext.ChainMHT,
		rate: 80, sloMs: 100, traced: 100,
		stream: workload.TRECLike,
	},
	{
		name: "hot_zipf",
		why:  "Zipfian repeats against a 4 MiB VO cache (about 80% hits): cache, wire memo and HTTP do the work, engine runs on one request in five",
		algo: authtext.TNRA, scheme: authtext.ChainMHT,
		cacheMB: 4, rate: 700, sloMs: 10, traced: 400,
		stream: zipfStream,
	},
	{
		name: "live_updates",
		why:  "same Zipfian reads beside update batches on a live owner: every publish rebuilds, persists a snapshot and invalidates the cache",
		algo: authtext.TNRA, scheme: authtext.ChainMHT,
		cacheMB: 4, live: true, rate: 500, sloMs: 50, traced: 400,
		stream: zipfStream,
	},
}

func workloadByName(name string) (*workloadSpec, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// generateDocs produces the profile's documents in the facade's type.
// Static workloads index the generator's token streams; the live daemon
// reads the same documents back from .txt files, so it tokenises the
// content itself (keepTokens false reproduces that in-process).
func generateDocs(p corpus.Profile, keepTokens bool) ([]authtext.Document, []index.Document) {
	idocs := corpus.Generate(p)
	docs := make([]authtext.Document, len(idocs))
	for i := range idocs {
		if !keepTokens {
			idocs[i].Tokens = nil
		}
		docs[i] = authtext.Document{Content: idocs[i].Content, Tokens: idocs[i].Tokens}
	}
	return docs, idocs
}

// queryStrings joins each query's terms into the string a user would
// type.
func queryStrings(stream [][]string) []string {
	out := make([]string, len(stream))
	for i, terms := range stream {
		out[i] = strings.Join(terms, " ")
	}
	return out
}

// updateDoc draws a document of n terms from the existing dictionary — the
// "stable vocabulary" regime docs/UPDATES.md calls the steady state of a
// large live deployment: no term enters the dictionary, no term ID moves,
// only the touched lists re-sign.
func updateDoc(idx *index.Index, rng *rand.Rand, n int) []byte {
	terms := make([]string, n)
	for i := range terms {
		terms[i] = idx.Name(index.TermID(rng.Intn(idx.M())))
	}
	return []byte(strings.Join(terms, " "))
}

// vocabGrowthDocs returns two documents that introduce new dictionary
// terms (each appears in both, so singleton removal keeps it). The terms
// start with a digit and so sort before the whole synthetic vocabulary:
// every existing term ID shifts and every list re-signs — the cliff
// docs/UPDATES.md describes, timed once per run.
func vocabGrowthDocs(seed int64) [][]byte {
	var terms []string
	for i := 0; i < 8; i++ {
		terms = append(terms, fmt.Sprintf("0growth%dx%d", seed, i))
	}
	text := strings.Join(terms, " ")
	return [][]byte{[]byte(text + " first"), []byte(text + " second")}
}
