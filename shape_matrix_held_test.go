package authtext_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"authtext"
	"authtext/internal/core"
	"authtext/internal/httpapi"
	"authtext/internal/obs"
	"authtext/internal/sig"
	"authtext/internal/wire"
)

// TestHandlerShapeMatrixHeldBodies is the held-body column of every shape
// (matrixHeldBodies): answers that send the bodies a client holds as their
// digests (docs/PROTOCOL.md "Held bodies").
func TestHandlerShapeMatrixHeldBodies(t *testing.T) {
	for _, shape := range matrixShapes {
		t.Run(shape.name, func(t *testing.T) {
			t.Parallel()
			matrixHeldBodies(t, shape, shape.build(t, nil))
		})
	}
}

// allHeld is a summary that holds every digest: a server answering it
// sends every hit as a reference.
var allHeld = strings.Repeat("_", 682) + "8"

// contentDigest is the digest verification binds a body by, at the hash
// size every matrix build uses.
func contentDigest(body []byte) []byte { return sig.MustHasher(sig.DefaultHashSize).Sum(body) }

// heldProxy serves searches through h. With all set it replaces the summary
// of every request that sends one with allHeld, so the honest server refers
// to every hit. With edit set it answers every search that sends a summary
// itself, the way an adversary that speaks references would: the honest
// answer (asked for in JSON), every hit carrying its content digest, edit
// applied to the hits of every shard answer in order, framed against the
// request's summary.
type heldProxy struct {
	h    http.Handler
	all  atomic.Bool
	edit atomic.Pointer[func(summary *wire.HeldSummary, hits []*wire.Hit)]
}

func (p *heldProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	summary := r.Header.Get(httpapi.HeldHeader)
	sharded := r.URL.Path == httpapi.PathShardSearch
	if summary == "" || !sharded && r.URL.Path != httpapi.PathSearch {
		p.h.ServeHTTP(w, r)
		return
	}
	if p.all.Load() {
		r.Header.Set(httpapi.HeldHeader, allHeld)
	}
	edit := p.edit.Load()
	if edit == nil {
		p.h.ServeHTTP(w, r)
		return
	}
	r.Header.Del("Accept")
	r.Header.Del(httpapi.HeldHeader)
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, r)
	held := wire.ParseHeldSummary(summary)
	enc := wire.Encoding{Held: held}
	var frame []byte
	var err error
	if sharded {
		var resp wire.ShardedSearchResponse
		if err = json.Unmarshal(rec.Body.Bytes(), &resp); err == nil {
			var hits []*wire.Hit
			for i := range resp.Shards {
				hits = append(hits, digested(resp.Shards[i].Hits)...)
			}
			(*edit)(held, hits)
			frame = enc.ShardedSearchResponse(&resp)
		}
	} else {
		var resp wire.SearchResponse
		if err = json.Unmarshal(rec.Body.Bytes(), &resp); err == nil {
			(*edit)(held, digested(resp.Hits))
			frame = enc.SearchResponse(&resp)
		}
	}
	if err != nil || rec.Code != http.StatusOK {
		http.Error(w, "held proxy: the honest answer did not decode", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", wire.ContentType)
	_, _ = w.Write(frame)
}

// digested sets every hit's content digest and returns the hits.
func digested(hits []wire.Hit) []*wire.Hit {
	out := make([]*wire.Hit, len(hits))
	for i := range hits {
		hits[i].Digest = contentDigest(hits[i].Content)
		out[i] = &hits[i]
	}
	return out
}

// heldCounts reads a client registry's held-body series: bodies filled from
// the store, references missed, searches asked again.
func heldCounts(t *testing.T, m *authtext.Metrics) (used, missed, retries float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string, labels ...obs.Label) float64 {
		s, ok := obs.FindSample(samples, name, labels...)
		if !ok {
			t.Fatalf("series %s %v missing", name, labels)
		}
		return s.Value
	}
	return get("authtext_client_held_bodies_total", obs.L("outcome", "used")),
		get("authtext_client_held_bodies_total", obs.L("outcome", "missed")),
		get("authtext_client_held_retries_total")
}

// matrixHeldBodies is the held-body column of one shape, for both
// algorithms, against a client that holds some of an answer's bodies:
//
//   - a reference to a body the client does not hold is a plain miss: the
//     search is asked once more without a summary, and that answer verifies
//     and ranks as the oracle does — never a tampering verdict;
//   - a body held from a generation whose content changed is a plain miss
//     too (live owners, where the content of a document can change): the
//     new content's digest names nothing the client holds, and the client
//     never fills in the stale body;
//   - a sent body that disagrees with its proof, in an answer that refers to
//     the bodies the client holds, is bad-content under TNRA, whose content
//     proof binds the bodies; under TRA the body is bound by its document's
//     leaf in the document-root tree, and the verdict is bad-doc-proof; a
//     reference to a held body that is not the one the proof binds (two
//     hits' references swapped) is classified alike.
func matrixHeldBodies(t *testing.T, shape matrixShape, env matrixEnv) {
	proxy := &heldProxy{h: env.handler(authtext.NewVOCache(1 << 20))}
	hc := &http.Client{Transport: handlerTransport{proxy}}
	dial := func() (*authtext.RemoteClient, *authtext.Metrics) {
		m := authtext.NewMetrics()
		return must(authtext.NewRemoteClient("http://matrix", authtext.WithHTTPClient(hc), authtext.WithClientMetrics(m)))(t), m
	}
	ctx := context.Background()
	for _, algo := range matrixAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			// warm returns a client that holds the bodies of the top r of
			// matrixQuery.
			warm := func(r int) (*authtext.RemoteClient, *authtext.Metrics) {
				rc, m := dial()
				if _, err := rc.Search(ctx, matrixQuery, r, algo, authtext.ChainMHT); err != nil {
					t.Fatalf("warm-up: %v", err)
				}
				return rc, m
			}

			t.Run("reference to a body not held", func(t *testing.T) {
				rc, m := warm(1)
				proxy.all.Store(true)
				res, err := rc.Search(ctx, matrixQuery, matrixR, algo, authtext.ChainMHT)
				proxy.all.Store(false)
				env.honest(t, matrixQuery, algo, res, err)
				if _, missed, retries := heldCounts(t, m); missed < 1 || retries != 1 {
					t.Fatalf("%v missed, %v asked again; want a miss, and the search asked once more", missed, retries)
				}
			})

			// bound is the verdict on a body the proof does not bind.
			bound := core.CodeBadContent
			if algo == authtext.TRA {
				bound = core.CodeBadDocProof
			}
			attack := func(t *testing.T, warmR int, edit func(*wire.HeldSummary, []*wire.Hit)) {
				t.Helper()
				rc, m := warm(warmR)
				proxy.edit.Store(&edit)
				res, err := rc.Search(ctx, matrixQuery, matrixR, algo, authtext.ChainMHT)
				proxy.edit.Store(nil)
				if !authtext.IsTampered(err) || res != nil || core.CodeOf(err) != bound {
					t.Fatalf("classified %v (result returned: %v), want %v", err, res != nil, bound)
				}
				if used, missed, retries := heldCounts(t, m); used < 1 || missed != 0 || retries != 0 {
					t.Fatalf("%v used, %v missed, %v asked again: the answer did not refer to the held bodies alone", used, missed, retries)
				}
			}
			t.Run("sent body disagrees with its proof", func(t *testing.T) {
				attack(t, 1, func(held *wire.HeldSummary, hits []*wire.Hit) {
					for _, h := range hits {
						if !held.Has(h.Digest) {
							h.Content = append([]byte("FORGED "), h.Content...)
							return
						}
					}
					t.Error("every hit is held: nothing is sent in full to alter")
				})
			})
			t.Run("reference to another held body", func(t *testing.T) {
				attack(t, matrixR, func(held *wire.HeldSummary, hits []*wire.Hit) {
					var swap []*wire.Hit
					for _, h := range hits {
						if held.Has(h.Digest) {
							swap = append(swap, h)
						}
					}
					if len(swap) < 2 {
						t.Error("fewer than two hits are held: no references to swap")
						return
					}
					swap[0].Digest, swap[1].Digest = swap[1].Digest, swap[0].Digest
				})
			})
		})
	}
	if shape.adminStatus == http.StatusOK {
		t.Run("content changed since the body was held", func(t *testing.T) { matrixHeldStale(t, shape) })
	}
}

// matrixHeldStale has a client hold the body of a document, publishes a
// generation in which that document's content changed, and has the server
// refer to every hit of the new answer: the new content's reference is a
// plain miss, asked again without a summary, and the answer verifies with
// the new content and never the body held.
func matrixHeldStale(t *testing.T, shape matrixShape) {
	owner := matrixLiveOwner(t, shape.shards)
	proxy := &heldProxy{h: must(owner.HTTPHandler())(t)}
	ctx := context.Background()
	// Every edition is published twice: identical bodies land in one shard
	// (placement is by content hash), so its terms are no singletons there.
	// Its content changes once per algorithm, and every answer asks for
	// every matching document.
	const query, every = "zircon lattice", 10
	edition := func(i int) []authtext.Document {
		body := []byte(fmt.Sprintf("zircon lattice edition %d", i))
		return []authtext.Document{{Content: body}, {Content: body}}
	}
	handles, _, err := owner.Update(edition(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, algo := range matrixAlgos {
		m := authtext.NewMetrics()
		rc := must(authtext.NewRemoteClient("http://matrix",
			authtext.WithHTTPClient(&http.Client{Transport: handlerTransport{proxy}}), authtext.WithClientMetrics(m)))(t)
		if _, err := rc.Search(ctx, query, every, algo, authtext.ChainMHT); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if handles, _, err = owner.Update(edition(i+1), handles); err != nil {
			t.Fatal(err)
		}
		proxy.all.Store(true)
		res, err := rc.Search(ctx, query, every, algo, authtext.ChainMHT)
		proxy.all.Store(false)
		if err != nil {
			t.Fatalf("%v: the changed document's answer: %v (tampered: %v)", algo, err, authtext.IsTampered(err))
		}
		if err := owner.Server().CheckRankingForTest(query, every, algo, res); err != nil {
			t.Fatal(err)
		}
		var revised int
		for _, h := range res.Hits {
			if bytes.Equal(h.Content, edition(i)[0].Content) {
				t.Fatalf("%v: the answer delivers the body the client held before the content changed", algo)
			}
			if bytes.Equal(h.Content, edition(i + 1)[0].Content) {
				revised++
			}
		}
		if revised != 2 {
			t.Fatalf("%v: %d of the hits are the revised edition: %s", algo, revised, hitBodies(res))
		}
		if _, missed, retries := heldCounts(t, m); missed < 1 || retries != 1 {
			t.Fatalf("%v: %v missed, %v asked again; want the revised body missed, and the search asked again", algo, missed, retries)
		}
	}
}

// hitBodies lists the bodies of res's hits.
func hitBodies(res *authtext.SearchResult) string {
	var b []string
	for _, h := range res.Hits {
		b = append(b, fmt.Sprintf("%q", h.Content))
	}
	return strings.Join(b, ", ")
}
