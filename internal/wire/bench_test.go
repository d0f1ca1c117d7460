package wire

import (
	"strings"
	"sync"
	"testing"

	"authtext/internal/core"
	"authtext/internal/corpus"
	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/sig"
	"authtext/internal/workload"
)

// denseSigner stands in for RSA-1024 in the benchmark answers: 128-byte
// signatures with no structure. The keyed-hash signer pads its 32-byte tag
// with zeros to that size, which would make every proof look compressible.
type denseSigner struct{ *sig.HMACSigner }

func (s denseSigner) Size() int { return 128 }

func (s denseSigner) Sign(msg []byte) ([]byte, error) {
	out := make([]byte, 0, s.Size())
	for i := byte(0); len(out) < s.Size(); i++ {
		tag, err := s.HMACSigner.Sign(append(msg[:len(msg):len(msg)], i))
		if err != nil {
			return nil, err
		}
		out = append(out, tag...)
	}
	return out, nil
}

// benchCollection is corpus.Tiny as the benchmark answers come from it:
// the answers by shape, and the collection dictionary their frames deflate
// bodies against.
type benchCollection struct {
	answers map[string][]*SearchResponse
	dict    *Dictionary
}

// benchAnswers are real answers over corpus.Tiny in the two shapes the
// repository's benchmark serves: short 3-term TNRA queries (ten bodies and
// a proof that does not compress) and TREC-like 2-20 term TRA queries (the
// same bodies beside a proof ten times their size that does).
func benchAnswers() map[string][]*SearchResponse { return benchCorpus().answers }

var benchCorpus = sync.OnceValue(func() benchCollection {
	hmac, err := sig.NewHMACSigner([]byte("wire-bench"), 32)
	if err != nil {
		panic(err)
	}
	col, err := engine.BuildCollection(corpus.Generate(corpus.Tiny()),
		engine.Config{Signer: denseSigner{hmac}, RemoveSingletons: true})
	if err != nil {
		panic(err)
	}
	answers := func(queries [][]string, algo core.Algo) []*SearchResponse {
		var out []*SearchResponse
		for _, q := range queries {
			res, vo, _, err := col.Search(q, 10, algo, core.SchemeCMHT)
			if err != nil {
				panic(err)
			}
			r := &SearchResponse{Query: strings.Join(q, " "), R: 10, Algo: algo.String(), Scheme: core.SchemeCMHT.String(), VO: vo}
			for _, e := range res.Entries {
				r.Hits = append(r.Hits, Hit{DocID: int(e.Doc), Score: e.Score, Content: res.Contents[e.Doc]})
			}
			r.Stats.VOBytes = len(vo)
			out = append(out, r)
		}
		return out
	}
	idx := col.Index()
	names := make([]string, idx.M())
	for t := range names {
		names[t] = idx.Name(index.TermID(t))
	}
	return benchCollection{
		answers: map[string][]*SearchResponse{
			"tnra_short":  answers(workload.Synthetic(idx, 64, 3, 1), core.AlgoTNRA),
			"tra_verbose": answers(workload.TRECLike(idx, 16, 1), core.AlgoTRA),
		},
		dict: CollectionDictionary(names),
	}
})

var benchSink []byte

// BenchmarkEncodeSearchResponse encodes as a server answers a client that
// holds the collection dictionary: bodies deflated against it, named, not
// attached. cold empties the memo before every answer, so each section pays
// its compressor; warm has seen every answer twice, so each section is a
// hash and a copy. frame_B/op is the mean frame size over all the shape's
// answers, whatever b.N is: deterministic, and gated in CI.
func BenchmarkEncodeSearchResponse(b *testing.B) {
	enc := Encoding{Dict: benchCorpus().dict}
	for _, shape := range []string{"tnra_short", "tra_verbose"} {
		answers := benchAnswers()[shape]
		frameBytes := 0
		for _, r := range answers {
			frameBytes += len(enc.SearchResponse(r))
		}
		run := func(name string, cold bool) {
			b.Run(shape+"/"+name, func(b *testing.B) {
				resetMemo()
				if !cold {
					for i := 0; i < 2*len(answers); i++ {
						enc.SearchResponse(answers[i%len(answers)])
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cold {
						resetMemo()
					}
					benchSink = enc.SearchResponse(answers[i%len(answers)])
				}
				b.ReportMetric(float64(frameBytes)/float64(len(answers)), "frame_B/op")
			})
		}
		run("cold", true)
		run("warm", false)
	}
}

var benchResponse *SearchResponse

// BenchmarkDecodeSearchResponse is the client's half: CRC, dictionary
// lookup, inflate, parse, for frames naming a dictionary the client holds.
// cold empties the decode memo before every answer, so each deflated chunk
// pays its inflate; warm has decoded every answer once, so each chunk is a
// hash and a copy.
func BenchmarkDecodeSearchResponse(b *testing.B) {
	enc := Encoding{Dict: benchCorpus().dict}
	for _, shape := range []string{"tnra_short", "tra_verbose"} {
		var frames [][]byte
		bytes := 0
		for _, r := range benchAnswers()[shape] {
			frames = append(frames, enc.SearchResponse(r))
			bytes += len(frames[len(frames)-1])
		}
		// The first answer a client gets carries the dictionary.
		var store DictionaryStore
		_, dec := store.Held()
		if _, err := dec.SearchResponse(Encoding{Dict: enc.Dict, Attach: true}.SearchResponse(benchAnswers()[shape][0])); err != nil {
			b.Fatal(err)
		}
		_, dec = store.Held()
		run := func(name string, cold bool) {
			b.Run(shape+"/"+name, func(b *testing.B) {
				inflateMemo.reset()
				if !cold {
					for _, f := range frames {
						if _, err := dec.SearchResponse(f); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cold {
						inflateMemo.reset()
					}
					var err error
					if benchResponse, err = dec.SearchResponse(frames[i%len(frames)]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(bytes)/float64(len(frames)), "frame_B/op")
			})
		}
		run("cold", true)
		run("warm", false)
	}
}
