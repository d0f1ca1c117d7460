package wire

import (
	"strings"
	"sync"
	"testing"

	"authtext/internal/core"
	"authtext/internal/corpus"
	"authtext/internal/engine"
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

// benchAnswers are real answers over corpus.Tiny in the two shapes the
// repository's benchmark serves: short 3-term TNRA queries (ten bodies and
// a proof that does not compress) and TREC-like 2-20 term TRA queries (the
// same bodies beside a proof ten times their size that does).
var benchAnswers = sync.OnceValue(func() map[string][]*SearchResponse {
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
	return map[string][]*SearchResponse{
		"tnra_short":  answers(workload.Synthetic(idx, 64, 3, 1), core.AlgoTNRA),
		"tra_verbose": answers(workload.TRECLike(idx, 16, 1), core.AlgoTRA),
	}
})

var benchSink []byte

// BenchmarkEncodeSearchResponse: cold empties the memo before every answer,
// so each section pays its compressor; warm has seen every answer twice, so
// each section is a hash and a copy. frame-B/op is the mean frame size.
func BenchmarkEncodeSearchResponse(b *testing.B) {
	for _, shape := range []string{"tnra_short", "tra_verbose"} {
		answers := benchAnswers()[shape]
		run := func(name string, cold bool) {
			b.Run(shape+"/"+name, func(b *testing.B) {
				resetMemo()
				if !cold {
					for i := 0; i < 2*len(answers); i++ {
						EncodeSearchResponse(answers[i%len(answers)])
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				bytes := 0
				for i := 0; i < b.N; i++ {
					if cold {
						resetMemo()
					}
					benchSink = EncodeSearchResponse(answers[i%len(answers)])
					bytes += len(benchSink)
				}
				b.ReportMetric(float64(bytes)/float64(b.N), "frame-B/op")
			})
		}
		run("cold", true)
		run("warm", false)
	}
}

var benchResponse *SearchResponse

// BenchmarkDecodeSearchResponse is the client's half: CRC, inflate, parse.
func BenchmarkDecodeSearchResponse(b *testing.B) {
	for _, shape := range []string{"tnra_short", "tra_verbose"} {
		b.Run(shape, func(b *testing.B) {
			var frames [][]byte
			bytes := 0
			for _, r := range benchAnswers()[shape] {
				frames = append(frames, EncodeSearchResponse(r))
				bytes += len(frames[len(frames)-1])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if benchResponse, err = DecodeSearchResponse(frames[i%len(frames)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bytes)/float64(len(frames)), "frame-B/op")
		})
	}
}
