package authtext

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"authtext/internal/corpus"
	"authtext/internal/httpapi"
	"authtext/internal/obs"
	"authtext/internal/workload"
)

// searchBytes counts the search response bodies that pass through it, and
// the bytes of the held-body summary header lines of their requests.
type searchBytes struct {
	rt                      http.RoundTripper
	bytes, answers, summary atomic.Int64
}

func (c *searchBytes) RoundTrip(req *http.Request) (*http.Response, error) {
	if v := req.Header.Get(httpapi.HeldHeader); v != "" && req.URL.Path == httpapi.PathSearch {
		c.summary.Add(int64(len(httpapi.HeldHeader + ": " + v + "\r\n")))
	}
	resp, err := c.rt.RoundTrip(req)
	if err == nil && req.URL.Path == httpapi.PathSearch {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		c.bytes.Add(int64(len(body)))
		c.answers.Add(1)
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	return resp, err
}

// dropHeld serves through h with every request's held-body summary dropped:
// the server sends every body, as to a client that holds none.
func dropHeld(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del(httpapi.HeldHeader)
		h.ServeHTTP(w, r)
	})
}

// counter reads one series of m.
func counter(t *testing.T, m *Metrics, name string, labels ...obs.Label) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := obs.FindSample(samples, name, labels...)
	if !ok {
		t.Fatalf("series %s %v missing", name, labels)
	}
	return s.Value
}

// heldProfile is the benchmark's collection: corpus.Small's shape at a
// fifth of its size.
var heldProfile = corpus.Profile{Name: "bench", Docs: 600, Vocab: 4000, AvgLen: 80, SigmaLen: 0.6, ZipfS: 1.3, ZipfV: 2, Seed: 11}

// TestHeldBodiesZipfStream runs a hot_zipf-shaped stream — a pool of
// distinct 3-term TNRA-CMHT queries replayed with Zipf(1.1) popularity,
// against a VO cache — through one client on two connections, as the
// benchmark does. Every answer verifies, held-body misses (false positives
// and bodies evicted in flight) are asked again for fewer than 1 % of the
// answers, and the answers carry fewer bytes than the same stream's to a
// client whose summaries are dropped.
func TestHeldBodiesZipfStream(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and queries a 300-document collection")
	}
	var docs []Document
	for _, d := range corpus.Generate(heldProfile) {
		docs = append(docs, Document{Content: d.Content})
	}
	owner, err := NewOwner(docs, WithVocabularyProofs())
	if err != nil {
		t.Fatal(err)
	}
	h, err := owner.HTTPHandler(WithVOCache(NewVOCache(4 << 20)))
	if err != nil {
		t.Fatal(err)
	}
	const answers, warm = 4000, 1000
	stream := workload.Zipfian(owner.v.col.Index(), answers, 4000, 3, 1.1, 7)

	// run sends the stream through one client on two connections and
	// returns the response bytes per answer after the warm-up, the summary
	// header bytes per request after it, and the client's metrics.
	run := func(h http.Handler) (float64, float64, *Metrics) {
		srv := httptest.NewServer(h)
		defer srv.Close()
		ct := &searchBytes{rt: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
		m := NewMetrics()
		rc, err := NewRemoteClient(srv.URL, WithHTTPClient(&http.Client{Transport: ct}), WithClientMetrics(m))
		if err != nil {
			t.Fatal(err)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		var warmBytes, warmAnswers, warmSummary int64
		var once sync.Once
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(stream); i = int(next.Add(1)) - 1 {
					if i == warm {
						once.Do(func() { warmBytes, warmAnswers, warmSummary = ct.bytes.Load(), ct.answers.Load(), ct.summary.Load() })
					}
					if _, err := rc.Search(context.Background(), strings.Join(stream[i], " "), 10, TNRA, ChainMHT); err != nil {
						t.Errorf("query %d: %v", i, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		n := float64(ct.answers.Load() - warmAnswers)
		return float64(ct.bytes.Load()-warmBytes) / n, float64(ct.summary.Load()-warmSummary) / n, m
	}
	full, _, _ := run(dropHeld(h))
	held, summary, m := run(h)
	if t.Failed() {
		return
	}
	used := counter(t, m, "authtext_client_held_bodies_total", obs.L("outcome", "used"))
	missed := counter(t, m, "authtext_client_held_bodies_total", obs.L("outcome", "missed"))
	retries := counter(t, m, "authtext_client_held_retries_total")
	t.Logf("%d answers: %.0f B each with every body sent, %.0f B with held bodies (%+.1f %%), "+
		"whose requests carry %.0f B of summary each; "+
		"%.0f bodies filled from the store, %.0f references missed, %.0f searches asked again (%.2f %%)",
		answers, full, held, 100*(held/full-1), summary, used, missed, retries, 100*retries/answers)
	if retries*100 >= answers {
		t.Fatalf("%.0f of %d answers asked again for a held-body miss; want under 1 %%", retries, answers)
	}
	if used == 0 || held >= full {
		t.Fatalf("held bodies saved nothing: %.0f used, %.0f B against %.0f B", used, held, full)
	}
}

// A fresh client names no held body, so its first answer is byte for byte
// the frame a request without a summary gets; a JSON answer ignores a
// summary. Once the client holds an answer's bodies, the repeat names them
// and gets them as references, and every answer hands out copies: a caller
// that writes to a hit's content changes nothing a later answer delivers.
func TestHeldBodiesFreshClientAndCopies(t *testing.T) {
	o, err := NewOwner(newsDocs())
	if err != nil {
		t.Fatal(err)
	}
	// The cache replays the first answer's stats, so that frames of the
	// same answer compare byte for byte.
	h, err := o.HTTPHandler(WithVOCache(NewVOCache(1 << 20)))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var summaries []string
	var frames [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if r.URL.Path == httpapi.PathSearch {
			mu.Lock()
			summaries = append(summaries, r.Header.Get(httpapi.HeldHeader))
			frames = append(frames, rec.Body.Bytes())
			mu.Unlock()
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	defer srv.Close()
	rc, err := NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const query = "patent examiner"
	search := func() *SearchResult {
		t.Helper()
		res, err := rc.Search(ctx, query, 3, TNRA, ChainMHT)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// request asks h directly: a frame or JSON (accept), with a summary
	// (held) or none.
	request := func(accept, held string) []byte {
		body := strings.NewReader(`{"query":"` + query + `","r":3,"algo":"tnra","scheme":"cmht","cap":8}`)
		req := httptest.NewRequest(http.MethodPost, httpapi.PathSearch, body)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		if held != "" {
			req.Header.Set(httpapi.HeldHeader, held)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Body.Bytes()
	}

	first := search()
	if summaries[0] != "" || !bytes.Equal(frames[0], request(httpapi.FrameContentType, "")) {
		t.Fatalf("a fresh client sent summary %q, or its answer is not the frame a request without one gets", summaries[0])
	}
	want := make([][]byte, len(first.Hits))
	for i, hit := range first.Hits {
		want[i] = bytes.Clone(hit.Content)
		hit.Content[0] ^= 0xff // a caller's scribble
	}
	for round := 0; round < 2; round++ {
		res := search()
		last := frames[len(frames)-1]
		if summaries[len(summaries)-1] == "" || binary.BigEndian.Uint16(last[6:])&(1<<3) == 0 || len(last) >= len(frames[0]) {
			t.Fatalf("a repeat by a warm client: summary sent %v, frame of %d bytes against %d, flags %#x",
				summaries[len(summaries)-1] != "", len(last), len(frames[0]), last[7])
		}
		for i, hit := range res.Hits {
			if !bytes.Equal(hit.Content, want[i]) {
				t.Fatalf("round %d, hit %d: a caller's write reached a later answer", round, i)
			}
			hit.Content[0] ^= 0xff
		}
	}
	if !bytes.Equal(request("", summaries[1]), request("", "")) {
		t.Fatal("a JSON answer changed with the summary")
	}
}
