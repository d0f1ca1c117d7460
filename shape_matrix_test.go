package authtext_test

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"authtext"
	"authtext/internal/core"
	"authtext/internal/httpapi"
	"authtext/internal/vo"
	"authtext/internal/wire"
)

// The handler shape matrix is the one place the honest and tamper contract
// is checked. Every serving shape — {bare, 2 shards} × {static, live owner,
// snapshot replica, static snapshot and replica with the files they opened
// rewritten in place} — is built from one generation source behind one
// backend (serve.go), as every owner builds: dictionary mode with
// vocabulary proofs. Every shape an older build's artifact reaches — the
// static snapshots, and replicas of an owner not yet upgraded — also
// serves a list-mode build (per-list signatures, vocabulary proofs off), as
// that build wrote it; the live owner builds only in the one mode. Against each, one table checks what
// all must agree on:
//
//   - honest answers, in process and remote, over both wire codecs, by a
//     cold and a warm client, verify and rank exactly as core.PSCAN ranks
//     the generation that answered (the oracle in oracle_test.go);
//   - every tamper row — rewrites of a hit, of the VO or of a shard set's
//     merge, a term proof or result document given twice, another query's
//     honest answer spliced in, a query term dropped, an equal-score
//     reordering, and on binary frames a bit flip in every frame region —
//     classifies as tampering, identically by a cold and a warm client,
//     whether the honest answer came from a cache miss or a cache hit;
//   - answers that send the bodies a warm client holds as their digests
//     (shape_matrix_held_test.go): a reference to a body not held, or to a
//     body whose document's content has since changed, is a plain miss,
//     asked again and verified; a sent body or a reference the proof does
//     not bind is tampering;
//   - goroutines searching through one RemoteClient and one pinned Server
//     all verify;
//   - the registered endpoint set and its 404/403 bodies, healthz, the
//     generation header, cache precedence and byte-identical hits, pinned
//     in-process servers, the variant-not-built refusal and the rollback
//     classification.

const (
	// matrixQuery's honest top-r has at least three hits and two distinct
	// scores, so the ranking rows cannot be vacuous (checked per shape).
	matrixQuery = "digest chain"
	// matrixTieQuery's honest top-r ties on score: the canonical order
	// (score descending, doc ascending) is the only thing fixing it.
	matrixTieQuery = "merkle tree"
	// matrixSpliceQuery answers a different question, for the splice row.
	matrixSpliceQuery = "signature verification"
	// matrixDropQuery is matrixQuery without "chain", a term every shard
	// indexes, for the dropped-term row.
	matrixDropQuery = "digest"
	matrixR         = 3
	matrixDocs      = 24
)

// matrixCorpus is the matrix's collection: three documents for the splice
// query, six that tie on matrixTieQuery (one occurrence of each term, equal
// lengths), eight that grade matrixQuery's terms by frequency, and fillers
// that keep every query term rare in every shard.
func matrixCorpus() []authtext.Document {
	texts := []string{
		"signature verification owner server client key",
		"signature verification owner server client audit",
		"signature verification owner server client note",
	}
	for _, u := range []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"} {
		texts = append(texts, "merkle tree ledger archive vault "+u)
	}
	texts = append(texts,
		"digest digest digest chain block proof",
		"digest digest chain chain block proof",
		"digest digest chain block proof root",
		"digest chain chain block proof root",
		"digest chain block proof root query",
		"chain block proof root query index",
		"digest block proof root query index",
		"block proof root query index result")
	for _, u := range []string{"north", "south", "east", "west", "spring", "summer", "autumn"} {
		texts = append(texts, "owner server client audit report "+u)
	}
	docs := make([]authtext.Document, len(texts))
	for i, text := range texts {
		docs[i] = authtext.Document{Content: []byte(text)}
	}
	return docs
}

var matrixAlgos = []authtext.Algorithm{authtext.TRA, authtext.TNRA}

// matrixEnv is one built shape.
type matrixEnv struct {
	// handler serves the shape through cache (WithVOCache; nil for none).
	handler func(cache *authtext.VOCache) http.Handler
	// documents and generation are what healthz must report.
	documents  int
	generation uint64
	// ownCache is the cache the static server itself carries (SetVOCache);
	// nil on the other shapes. A handler built WithVOCache must ignore it.
	ownCache *authtext.VOCache
	// advance publishes one more generation and makes every handler serve
	// it; nil on static shapes. grow does the same with docs added, which
	// may bring new terms.
	advance func(t *testing.T)
	grow    func(t *testing.T, docs []authtext.Document)
	// server returns an in-process Server of the test's own, pinned to the
	// generation the handlers currently serve, and client a verifying
	// client of that generation.
	server func() *authtext.Server
	client func() *authtext.Client
}

type matrixShape struct {
	name string
	// shards is the shard count: 0 for a bare collection.
	shards int
	// adminStatus is what POST /v1/admin/update answers: 404 (static: no
	// such endpoint), 403 (replica: serving-only) or 200 (owner).
	adminStatus int
	// build makes the shape from an owner built with ownerOpts.
	build func(t *testing.T, ownerOpts []authtext.Option) matrixEnv
	// old makes the shape from what an older build wrote in list mode (per-
	// list signatures, vocabulary proofs off); nil on the live shapes, which
	// serve only what they build.
	old func(t *testing.T) matrixEnv
}

func must[T any](v T, err error) func(*testing.T) T {
	return func(t *testing.T) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// matrixLiveOwner builds a live owner — bare for 0 shards — whose served
// generation carries one tombstone (so live documents != slots): generation
// 2, matrixDocs-1 documents.
func matrixLiveOwner(t *testing.T, shards int, opts ...authtext.Option) *authtext.LiveOwner {
	t.Helper()
	if shards == 0 {
		return withTombstone(t)(authtext.NewLiveOwner(matrixCorpus(), opts...))
	}
	return withTombstone(t)(authtext.NewLiveShardedOwner(matrixCorpus(), shards, opts...))
}

// oldLiveOwner is matrixLiveOwner as an older build runs it, in list mode.
func oldLiveOwner(t *testing.T, shards int) *authtext.LiveOwner {
	t.Helper()
	return withTombstone(t)(authtext.NewListModeLiveOwnerForTest(matrixCorpus(), shards))
}

// withTombstone takes a live owner constructor's results and removes the
// second document.
func withTombstone(t *testing.T) func(*authtext.LiveOwner, []authtext.DocHandle, error) *authtext.LiveOwner {
	return func(owner *authtext.LiveOwner, handles []authtext.DocHandle, err error) *authtext.LiveOwner {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		must2(owner.Update(nil, handles[1:2]))(t)
		return owner
	}
}

// staticEnv serves a static collection: srv and its client, with export
// published at the manifest endpoint.
func staticEnv(srv *authtext.Server, client *authtext.Client, export []byte) matrixEnv {
	return matrixEnv{
		handler: func(c *authtext.VOCache) http.Handler {
			return authtext.NewHTTPHandler(srv, export, authtext.WithVOCache(c))
		},
		documents: matrixDocs, server: func() *authtext.Server { return srv },
		client: func() *authtext.Client { return client },
	}
}

// replicaOf writes owner's snapshot directory and serves a replica of it;
// with rewrite set, the generation it opened is then rewritten in place.
func replicaOf(t *testing.T, owner *authtext.LiveOwner, rewrite bool) matrixEnv {
	dir := t.TempDir()
	path := must(owner.WriteSnapshotDir(dir))(t)
	replica := must(authtext.OpenLiveSnapshotDir(dir))(t)
	if rewrite {
		rewriteInPlace(t, path)
	}
	return replicaEnv(t, owner, dir, replica)
}

// replicaEnv serves a replica of owner's snapshot directory dir.
func replicaEnv(t *testing.T, owner *authtext.LiveOwner, dir string, replica *authtext.LiveReplica) matrixEnv {
	return matrixEnv{
		handler:   func(c *authtext.VOCache) http.Handler { return must(replica.HTTPHandler(authtext.WithVOCache(c)))(t) },
		documents: matrixDocs - 1, generation: 2, server: replica.Server, client: replica.Client,
		advance: func(t *testing.T) {
			must2(owner.Update(nil, owner.Handles()[:1]))(t)
			reload(t, owner, dir, replica)
		},
		grow: func(t *testing.T, docs []authtext.Document) {
			addDocuments(t, owner, docs)
			reload(t, owner, dir, replica)
		},
	}
}

// addDocuments publishes docs at owner.
func addDocuments(t *testing.T, owner *authtext.LiveOwner, docs []authtext.Document) {
	t.Helper()
	if _, _, err := owner.Update(docs, nil); err != nil {
		t.Fatal(err)
	}
}

// reload writes owner's current generation to dir and swaps replica to it.
func reload(t *testing.T, owner *authtext.LiveOwner, dir string, replica *authtext.LiveReplica) {
	must(owner.WriteSnapshotDir(dir))(t)
	if swapped := must(replica.Reload())(t); !swapped {
		t.Fatal("reload did not swap")
	}
}

// buildStatic builds a static owner of the matrix corpus, bare for 0 shards.
func buildStatic(t *testing.T, shards int, opts []authtext.Option) *authtext.Owner {
	if shards == 0 {
		return must(authtext.NewOwner(matrixCorpus(), opts...))(t)
	}
	return must(authtext.NewShardedOwner(matrixCorpus(), shards, opts...))(t)
}

// writeStatic writes owner's snapshot to a fresh path — a file for a bare
// collection, a directory for a shard set — and returns the path.
func writeStatic(t *testing.T, owner *authtext.Owner) string {
	path := filepath.Join(t.TempDir(), "col.atsn")
	var err error
	if owner.Shards() > 0 {
		err = owner.WriteSnapshotDir(path)
	} else {
		var buf bytes.Buffer
		if err = owner.WriteSnapshot(&buf); err == nil {
			err = os.WriteFile(path, buf.Bytes(), 0o644)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// oldStatic builds the matrix corpus as owners built it before dictionary
// mode became the only mode, bare for 0 shards.
func oldStatic(t *testing.T, shards int) *authtext.Owner {
	return must(authtext.NewListModeOwnerForTest(matrixCorpus(), shards))(t)
}

// reopenedEnv serves owner's snapshot written and reopened, which is how an
// older artifact reaches a server; with rewrite set, the snapshot is then
// rewritten in place under the open server.
func reopenedEnv(t *testing.T, owner *authtext.Owner, rewrite bool) matrixEnv {
	path := writeStatic(t, owner)
	srv, client, err := authtext.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rewrite {
		rewriteInPlace(t, path)
	}
	return staticEnv(srv, client, must(client.Export())(t))
}

// otherSnapshot is the snapshot of another, smaller collection.
var otherSnapshot = sync.OnceValues(func() ([]byte, error) {
	owner, err := authtext.NewOwner(matrixCorpus()[:4])
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = owner.WriteSnapshot(&buf)
	return buf.Bytes(), err
})

// rewriteInPlace rewrites the snapshot at path — the file, or every file of
// a shard-set directory — in place with otherSnapshot, as rebuilding a
// served file does (`authsearch -build -o FILE`: the open truncates, then
// writes). A server opened from path holds its own copy and must answer as
// before; nothing it serves may read the file again.
func rewriteInPlace(t *testing.T, path string) {
	t.Helper()
	other := must(otherSnapshot())(t)
	files := []string{path}
	if must(os.Stat(path))(t).IsDir() {
		files = files[:0]
		for _, e := range must(os.ReadDir(path))(t) {
			files = append(files, filepath.Join(path, e.Name()))
		}
	}
	for _, f := range files {
		if err := os.WriteFile(f, other, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// matrixShapes is {0, 2} shards × {static, live owner, snapshot replica,
// rewritten static snapshot, rewritten replica}, five constructors each
// taking the shard count as data. The rewritten shapes serve what the
// snapshot and replica shapes serve, after every file they opened was
// rewritten in place with another collection: an open holds its own copy.
// Every shape but the live owner also opens what an older, list-mode build
// wrote: a static snapshot, or the snapshot directories of an owner not yet
// upgraded.
var matrixShapes = func() (shapes []matrixShape) {
	for _, shards := range []int{0, 2} {
		suffix := map[int]string{0: "-single", 2: "-sharded"}[shards]
		shapes = append(shapes,
			matrixShape{name: "static" + suffix, shards: shards, adminStatus: http.StatusNotFound,
				build: func(t *testing.T, ownerOpts []authtext.Option) matrixEnv {
					owner := buildStatic(t, shards, ownerOpts)
					srv, own := owner.Server(), authtext.NewVOCache(1<<20)
					srv.SetVOCache(own)
					env := staticEnv(srv, owner.Client(), must(owner.Client().Export())(t))
					env.ownCache, env.server = own, owner.Server
					return env
				},
				old: func(t *testing.T) matrixEnv { return reopenedEnv(t, oldStatic(t, shards), false) }},
			matrixShape{name: "live" + suffix, shards: shards, adminStatus: http.StatusOK,
				build: func(t *testing.T, ownerOpts []authtext.Option) matrixEnv {
					owner := matrixLiveOwner(t, shards, ownerOpts...)
					return matrixEnv{
						handler:   func(c *authtext.VOCache) http.Handler { return must(owner.HTTPHandler(authtext.WithVOCache(c)))(t) },
						documents: matrixDocs - 1, generation: 2, server: owner.Server, client: owner.Client,
						advance: func(t *testing.T) { must2(owner.Update(nil, owner.Handles()[:1]))(t) },
						grow:    func(t *testing.T, docs []authtext.Document) { addDocuments(t, owner, docs) },
					}
				}},
			matrixShape{name: "replica" + suffix, shards: shards, adminStatus: http.StatusForbidden,
				build: func(t *testing.T, ownerOpts []authtext.Option) matrixEnv {
					return replicaOf(t, matrixLiveOwner(t, shards, ownerOpts...), false)
				},
				old: func(t *testing.T) matrixEnv { return replicaOf(t, oldLiveOwner(t, shards), false) }},
			matrixShape{name: "static-rewritten" + suffix, shards: shards, adminStatus: http.StatusNotFound,
				build: func(t *testing.T, ownerOpts []authtext.Option) matrixEnv {
					return reopenedEnv(t, buildStatic(t, shards, ownerOpts), true)
				},
				old: func(t *testing.T) matrixEnv { return reopenedEnv(t, oldStatic(t, shards), true) }},
			matrixShape{name: "replica-rewritten" + suffix, shards: shards, adminStatus: http.StatusForbidden,
				build: func(t *testing.T, ownerOpts []authtext.Option) matrixEnv {
					return replicaOf(t, matrixLiveOwner(t, shards, ownerOpts...), true)
				},
				old: func(t *testing.T) matrixEnv { return replicaOf(t, oldLiveOwner(t, shards), true) }})
	}
	return shapes
}()

// handlerTransport serves a client's requests from h in process: the
// matrix's remote clients speak the real /v1 protocol without sockets.
type handlerTransport struct{ h http.Handler }

func (tr handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	tr.h.ServeHTTP(rec, r.Clone(r.Context()))
	res := rec.Result()
	res.Request = r
	return res, nil
}

// dialer returns a factory of fresh remote clients of h: over a real
// listener when listen is set, in process otherwise.
func dialer(t *testing.T, h http.Handler, listen bool) func() *authtext.RemoteClient {
	if listen {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return func() *authtext.RemoteClient { return must(authtext.NewRemoteClient(ts.URL))(t) }
	}
	hc := &http.Client{Transport: handlerTransport{h}}
	return func() *authtext.RemoteClient {
		return must(authtext.NewRemoteClient("http://matrix", authtext.WithHTTPClient(hc)))(t)
	}
}

// stripAccept forces the JSON codec: the server never sees a frame offer.
func stripAccept(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		h.ServeHTTP(w, r)
	})
}

// countFrames counts the binary frames h answers with.
func countFrames(h http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if w.Header().Get("Content-Type") == wire.ContentType {
			n.Add(1)
		}
	})
}

// matrixDo performs one raw request against the handler.
func matrixDo(h http.Handler, method, target, body, accept string) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// searchPaths returns a shape's search and manifest endpoints.
func searchPaths(shards int) (search, manifest string) {
	if shards > 0 {
		return httpapi.PathShardSearch, httpapi.PathShardManifest
	}
	return httpapi.PathSearch, httpapi.PathManifest
}

// searchBodyOf is the JSON request for query at matrixR under algo over
// ChainMHT, for answers cut at depth cut.
func searchBodyOf(query string, algo authtext.Algorithm, cut int) string {
	wireAlgo := map[authtext.Algorithm]string{authtext.TRA: httpapi.AlgoTRA, authtext.TNRA: httpapi.AlgoTNRA}[algo]
	body, _ := json.Marshal(&httpapi.SearchRequest{Query: query, R: matrixR, Algo: wireAlgo, Scheme: httpapi.SchemeCMHT, Cap: cut})
	return string(body)
}

// matrixCap is the proof-cap depth a RemoteClient fetches and cuts its
// answers at (remote.go's capDepth).
const matrixCap = 8

// clientCut is the depth a RemoteClient's searches ask for: a bare
// collection's client holds the cap, a shard set's answers uncut.
func clientCut(shards int) int {
	if shards > 0 {
		return 0
	}
	return matrixCap
}

// honest checks one honest answer: it verified (err), and it ranks what
// the brute-force scan of the generation the shape serves ranks.
func (env matrixEnv) honest(t *testing.T, query string, algo authtext.Algorithm, res *authtext.SearchResult, err error) *authtext.SearchResult {
	t.Helper()
	if err != nil {
		t.Fatalf("%s %q: honest answer: %v", algo, query, err)
	}
	if err := env.server().CheckRankingForTest(query, matrixR, algo, res); err != nil {
		t.Fatalf("%s %q: %v", algo, query, err)
	}
	return res
}

func TestHandlerShapeMatrix(t *testing.T) {
	for _, shape := range matrixShapes {
		t.Run(shape.name, func(t *testing.T) {
			t.Parallel()
			t.Run("variant not built", func(t *testing.T) { matrixVariantNotBuilt(t, shape) })
			if shape.old != nil {
				t.Run("list mode", func(t *testing.T) { matrixRows(t, shape, shape.old(t), true) })
			}
			matrixRows(t, shape, shape.build(t, nil), false)
		})
	}
	t.Run("dictionary-mode artifact with signed documents", matrixSignedDocsArtifact)
}

// matrixSignedDocsArtifact is the honest row of an artifact written before
// dictionary-mode builds committed their TRA document roots in a
// document-root tree: testdata/dict-all-doc-signatures.atsn, the matrix
// corpus in dictionary mode, all four variants, keyed-hash signatures. Its
// manifest carries no extension list, so every TRA answer still carries a
// signature per document, and every answer — in process, for it cannot
// export a client — verifies and ranks as core.PSCAN does.
func matrixSignedDocsArtifact(t *testing.T) {
	t.Parallel()
	srv, client, err := authtext.OpenSnapshotFile("testdata/dict-all-doc-signatures.atsn")
	if err != nil {
		t.Fatalf("the artifact does not open: %v", err)
	}
	env := matrixEnv{server: func() *authtext.Server { return srv }}
	for _, query := range []string{matrixQuery, matrixTieQuery, matrixSpliceQuery, matrixDropQuery} {
		for _, algo := range matrixAlgos {
			for _, scheme := range []authtext.Scheme{authtext.MHT, authtext.ChainMHT} {
				res, err := srv.Search(query, matrixR, algo, scheme)
				if err == nil {
					err = client.Verify(query, matrixR, res)
				}
				if authtext.IsTampered(err) {
					t.Fatalf("%s-%s %q: an honest answer classified as tampering: %v", algo, scheme, query, err)
				}
				env.honest(t, query, algo, res, err)
				if v := must(vo.Decode(res.VO))(t); algo == authtext.TRA && (v.DocRootProof != nil || len(v.Docs) == 0 || len(v.Docs[0].Sig) == 0) {
					t.Fatalf("%s-%s %q: the answer does not sign its documents one by one", algo, scheme, query)
				}
			}
		}
	}
}

// matrixRows checks one built shape, or its list-mode artifact, on every row
// of the matrix but the variant-not-built column.
func matrixRows(t *testing.T, shape matrixShape, env matrixEnv, listMode bool) {
	optCache := authtext.NewVOCache(2 << 20)
	handler := env.handler(optCache)
	searchPath, manifestPath := searchPaths(shape.shards)
	searchBody := searchBodyOf(matrixQuery, authtext.TNRA, 0)

	// A cache hit is byte-identical to the miss that filled it, on both
	// codecs (first: these are the handler's first two queries).
	for _, accept := range []string{"", wire.ContentType} {
		miss := matrixDo(handler, http.MethodPost, searchPath, searchBody, accept)
		hit := matrixDo(handler, http.MethodPost, searchPath, searchBody, accept)
		if miss.Code != http.StatusOK || !bytes.Equal(miss.Body.Bytes(), hit.Body.Bytes()) {
			t.Fatalf("accept %q: status %d, hit differs from miss", accept, miss.Code)
		}
		if accept != "" && miss.Header().Get("Content-Type") != wire.ContentType {
			t.Fatalf("frame not negotiated: %q", miss.Header().Get("Content-Type"))
		}
	}
	// The handler option's cache served them, not the source's own.
	if st := optCache.Stats(); st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("option cache: %+v, want 1 miss and 3 hits", st)
	}
	if env.ownCache != nil {
		if st := env.ownCache.Stats(); st.Hits+st.Misses != 0 {
			t.Fatalf("the source's own cache was consulted despite WithVOCache: %+v", st)
		}
	}

	// The answers the frame rows attack deflate their bodies against the
	// collection dictionary, so a lie about the dictionary is a lie about
	// the bodies — all but a bare collection's TNRA answers: cut at the
	// client's proof cap, they fall below the size frames start compressing
	// at, and travel stored (the flag rows still refuse a lie about a
	// dictionary they do not name). Uncut, they deflate too.
	for _, algo := range matrixAlgos {
		for _, q := range []string{matrixQuery, matrixTieQuery} {
			cut := clientCut(shape.shards)
			if algo == authtext.TNRA {
				cut = 0
			}
			rec := matrixDo(handler, http.MethodPost, searchPath, searchBodyOf(q, algo, cut), wire.ContentType)
			if dictionaryOf(rec.Body.Bytes()).id == "" {
				t.Fatalf("%s %q: the frame names no dictionary", algo, q)
			}
		}
	}
	matrixHonest(t, env, shape, handler, false)

	// A fleet front end relays the frames untouched.
	var relayed atomic.Int64
	backend := httptest.NewServer(countFrames(handler, &relayed))
	fe := must(authtext.NewFrontend([]string{backend.URL}))(t)
	fes := httptest.NewServer(fe)
	res, err := must(authtext.NewRemoteClient(fes.URL))(t).Search(context.Background(), matrixQuery, matrixR, authtext.TNRA, authtext.ChainMHT)
	if env.honest(t, matrixQuery, authtext.TNRA, res, err); relayed.Load() == 0 {
		t.Fatal("through a front end: no frames relayed")
	}
	fes.Close()
	fe.Close()
	backend.Close()

	// Healthz reports the EFFECTIVE cache.
	var health httpapi.Health
	rec := matrixDo(handler, http.MethodGet, httpapi.PathHealthz, "", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Cache == nil || health.Cache.CapacityBytes != optCache.Stats().CapacityBytes || health.Cache.Hits == 0 {
		t.Fatalf("healthz cache block: %+v", health.Cache)
	}

	// The registered endpoint set, and the bodies of what is absent.
	type probe struct {
		method, target, body string
		status               int
		code, message        string
	}
	notHere := func(path string) probe {
		return probe{http.MethodGet, path, "", http.StatusNotFound, httpapi.CodeNotFound, "no such endpoint: " + path}
	}
	probes := []probe{
		{http.MethodGet, httpapi.PathHealthz, "", http.StatusOK, "", ""},
		{http.MethodGet, searchPath + "?q=merkle", "", http.StatusOK, "", ""},
		{http.MethodGet, manifestPath, "", http.StatusOK, "", ""},
		notHere("/v1/nope"),
	}
	if shape.shards > 0 {
		probes = append(probes,
			probe{http.MethodGet, httpapi.PathSearch + "?q=merkle", "", http.StatusNotFound, httpapi.CodeNotFound,
				"this server is sharded; query " + httpapi.PathShardSearch},
			probe{http.MethodGet, httpapi.PathManifest, "", http.StatusNotFound, httpapi.CodeNotFound,
				"this server is sharded; fetch " + httpapi.PathShardManifest})
	} else {
		probes = append(probes, notHere(httpapi.PathShardSearch), notHere(httpapi.PathShardManifest))
	}
	const updateBody = `{"add":[{"content":"bWVya2xlIGRpZ2VzdCBwcm9vZiBjaGFpbg=="}]}`
	switch shape.adminStatus {
	case http.StatusNotFound:
		p := notHere(httpapi.PathAdminUpdate)
		p.method, p.body = http.MethodPost, updateBody
		probes = append(probes, p)
	case http.StatusOK:
		// Malformed batches are the caller's fault, and publish nothing.
		probes = append(probes,
			probe{http.MethodPost, httpapi.PathAdminUpdate, `{}`, http.StatusBadRequest, httpapi.CodeBadRequest, ""},
			probe{http.MethodPost, httpapi.PathAdminUpdate, `{"remove":[999999]}`, http.StatusBadRequest, httpapi.CodeUpdateFailed,
				"live: unknown document handle 999999"})
	}
	for _, p := range probes {
		rec := matrixDo(handler, p.method, p.target, p.body, "")
		if rec.Code != p.status {
			t.Fatalf("%s %s: status %d, want %d (%s)", p.method, p.target, rec.Code, p.status, rec.Body.String())
		}
		// The generation header is present exactly when there is one.
		if got := rec.Header().Get(httpapi.GenerationHeader); p.status == http.StatusOK && (got != "") != (env.generation > 0) {
			t.Fatalf("%s: %s = %q at generation %d", p.target, httpapi.GenerationHeader, got, env.generation)
		}
		if p.status == http.StatusOK {
			continue
		}
		var envl httpapi.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &envl); err != nil {
			t.Fatalf("%s: error body is not an envelope: %v", p.target, err)
		}
		if envl.Error.Code != p.code || (p.message != "" && envl.Error.Message != p.message) {
			t.Fatalf("%s: error %+v, want %s %q", p.target, envl.Error, p.code, p.message)
		}
	}

	// Every tamper row, on both codecs.
	rows := tamperRows(listMode)
	if !listMode {
		rows = append(rows, docRootRows(t, handler, shape.shards)...)
	}
	for _, frame := range []bool{false, true} {
		t.Run(map[bool]string{false: "json", true: "frame"}[frame], func(t *testing.T) {
			b := battery{env: env, shards: shape.shards, frame: frame, rows: rows}
			if frame {
				b.edits = frameEdits
			}
			b.run(t)
		})
	}
	t.Run("concurrent", func(t *testing.T) { matrixConcurrent(t, env, handler) })

	if env.advance != nil {
		t.Run("generations", func(t *testing.T) { matrixLifecycle(t, env, shape, handler) })
	}
	// Last: on a live shape they publish generations of their own.
	t.Run("caps", func(t *testing.T) { matrixCaps(t, env, shape, handler, listMode) })
	if env.grow != nil && !listMode {
		t.Run("previous generation's document proofs", func(t *testing.T) { matrixStaleDocRoots(t, env, shape, handler) })
	}
}

// docRootRows are the document-root tree's tamper rows. A TRA answer of a
// dictionary-mode build proves its documents' roots with one multiproof over
// the tree the manifest commits, in place of a signature per document; each
// row rewrites that answer's VO and demands one code. On a bare shape the
// rows rewrite the same answer cut at depth 2, so that its multiproof
// carries digests: the client's depth-8 cap tops the matrix's whole tree,
// and a proof cut there carries none.
func docRootRows(t *testing.T, handler http.Handler, shards int) []tamperRow {
	var shallow, deep []byte // a bare shape's answer cut at depth 2, and at the client's cut
	if shards == 0 {
		for _, at := range []struct {
			cut int
			vo  *[]byte
		}{{2, &shallow}, {matrixCap, &deep}} {
			var r wire.SearchResponse
			if err := json.Unmarshal(matrixDo(handler, http.MethodPost, httpapi.PathSearch, searchBodyOf(matrixQuery, authtext.TRA, at.cut), "").Body.Bytes(), &r); err != nil {
				t.Fatal(err)
			}
			*at.vo = r.VO
		}
	}
	row := func(name string, want core.VerifyCode, edit func(v *vo.VO)) tamperRow {
		return tamperRow{name: name, want: want, traOnly: true, bare: func(r, _ *wire.SearchResponse) {
			raw := r.VO
			if shallow != nil {
				raw = shallow
			}
			v, err := vo.Decode(raw)
			if err != nil || v.DocRootProof == nil || len(v.Docs) < 2 {
				return // unedited, the answer verifies and fails the row
			}
			edit(v)
			if enc, _, err := vo.Encode(v, 16); err == nil {
				r.VO = enc
			}
		}}
	}
	rows := []tamperRow{
		// The evidence of one document — vector, length, content — at the
		// leaf of another with the same result status: each proof is sound
		// on its own, and only its position in the tree is a lie.
		row("document proof at another document's leaf", core.CodeBadDocProof, func(v *vo.VO) {
			for i := 1; i < len(v.Docs); i++ {
				for j := range i {
					if a, b := &v.Docs[i], &v.Docs[j]; a.InResult == b.InResult {
						a.Doc, b.Doc = b.Doc, a.Doc
						v.Docs[i], v.Docs[j] = *b, *a
						return
					}
				}
			}
		}),
		row("per-document signature beside the tree", core.CodeMalformedVO, func(v *vo.VO) {
			v.Docs[0].Sig = bytes.Repeat([]byte{0x5A}, 128)
		}),
		row("document-root proof stripped", core.CodeMalformedVO, func(v *vo.VO) { v.DocRootProof = nil }),
		row("one document-root digest flipped", core.CodeBadDocProof, func(v *vo.VO) {
			if ds := v.DocRootProof.Digests; len(ds) > 0 {
				ds[len(ds)/2][0] ^= 1
			}
		}),
	}
	if shards > 0 {
		return rows // a shard set's answers are uncut
	}
	// The multiproof of the answer cut at the client's depth-8 cap, in the
	// answer that states depth 2: it leans on cap levels the answer says it
	// carries.
	return append(rows, row("document-root proof cut below the depth it states", core.CodeBadDocProof, func(v *vo.VO) {
		v.DocRootProof = must(vo.Decode(deep))(t).DocRootProof
	}))
}

// matrixStaleDocRoots is the document-root tree's generation row on a live
// shape: the document proofs and document-root multiproof of one
// generation's TRA answer, spliced into the next generation's answer to the
// same query, are CodeBadDocProof over both codecs, from a cold and a warm
// client, on a cache miss and a hit. The publish in between brings a new
// term into every shard, which renumbers the terms and so changes every
// document's root — a publish that changes no document could leave the
// old proofs honest.
func matrixStaleDocRoots(t *testing.T, env matrixEnv, shape matrixShape, handler http.Handler) {
	searchPath, _ := searchPaths(shape.shards)
	body := matrixDo(handler, http.MethodPost, searchPath, searchBodyOf(matrixQuery, authtext.TRA, clientCut(shape.shards)), "").Body.Bytes()
	var old []*vo.VO // by shard (one for a bare shape)
	if shape.shards == 0 {
		var r wire.SearchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		old = append(old, must(vo.Decode(r.VO))(t))
	} else {
		var r wire.ShardedSearchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		for _, s := range r.Shards {
			old = append(old, must(vo.Decode(s.VO))(t))
		}
	}
	var grown []authtext.Document
	for i := range 6 {
		grown = append(grown, authtext.Document{Content: []byte(fmt.Sprintf("aardvark zulu stale %d", i))})
	}
	env.grow(t, grown)

	splice := func(r *wire.SearchResponse, shard int) {
		v := must(vo.Decode(r.VO))(t)
		v.Docs, v.DocRootProof = old[shard].Docs, old[shard].DocRootProof
		r.VO = must2(vo.Encode(v, 16))(t)
	}
	row := tamperRow{
		bare:    func(r, _ *wire.SearchResponse) { splice(r, 0) },
		sharded: func(r, _ *wire.ShardedSearchResponse) { splice(&r.Shards[r.Merged[0].Shard], r.Merged[0].Shard) },
	}
	for _, frame := range []bool{false, true} {
		t.Run(map[bool]string{false: "json", true: "frame"}[frame], func(t *testing.T) {
			b := battery{env: env, shards: shape.shards, frame: frame}
			proxy := &tamperProxy{forceJSON: !frame}
			hitCache := authtext.NewVOCache(1 << 20)
			b.attack(t, proxy, dialer(t, proxy, false), env.handler(hitCache), hitCache, authtext.TRA, matrixQuery,
				core.CodeBadDocProof, row.mutation(shape.shards > 0, nil))
		})
	}
}

// matrixCaps is the proof-cap column. A bare collection's client holds the
// depth-8 cap of its generation's collection-level trees, fetched with the
// manifest, and asks for answers cut there; a shard set's never asks, and
// the shard endpoints refuse a cap. On a bare shape each tamper row demands
// one exact code, over both codecs and for both algorithms, from a cold and
// a warm client:
//
//   - a cap that does not hash to the signed root, refused at the fetch —
//     by a bootstrapping client and by one seeded out of band, which then go
//     on uncapped and verify the next answer;
//   - on a live shape, the previous generation's cap served with the next
//     generation's manifest, refused at the fetch;
//   - an answer stating a cut below the cap held;
//   - a proof cut at another depth than the answer states, and an answer
//     whose depth is stripped: the first cut proof fails, the dictionary
//     proof (or, on a list-mode artifact, TNRA's content proof — its TRA
//     answers cut no proof, so the two rows do not apply).
func matrixCaps(t *testing.T, env matrixEnv, shape matrixShape, handler http.Handler, listMode bool) {
	ctx := context.Background()
	if shape.shards > 0 {
		var asked atomic.Int64
		rc := dialer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var body []byte
			if r.Body != nil {
				body, _ = io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			if strings.HasPrefix(r.URL.Path, "/v1/shards/") && (r.URL.Query().Has("cap") || bytes.Contains(body, []byte(`"cap"`))) {
				asked.Add(1)
			}
			handler.ServeHTTP(w, r)
		}), false)()
		res, err := rc.Search(ctx, matrixQuery, matrixR, authtext.TNRA, authtext.ChainMHT)
		if env.honest(t, matrixQuery, authtext.TNRA, res, err); asked.Load() != 0 {
			t.Fatalf("a shard set's client asked for a cap %d times", asked.Load())
		}
		for _, target := range []string{httpapi.PathShardManifest + "?cap=8", httpapi.PathShardSearch} {
			rec := matrixDo(handler, http.MethodPost, target, searchBodyOf(matrixQuery, authtext.TNRA, matrixCap), "")
			if target == httpapi.PathShardManifest+"?cap=8" {
				rec = matrixDo(handler, http.MethodGet, target, "", "")
			}
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), httpapi.CodeBadCap) {
				t.Fatalf("%s with a cap: %d %s", target, rec.Code, rec.Body.String())
			}
		}
		return
	}

	firstCut := core.CodeBadTermProof // the dictionary proof
	if listMode {
		firstCut = core.CodeBadContent
	}
	export := must(env.client().Export())(t)
	for _, frame := range []bool{false, true} {
		t.Run(map[bool]string{false: "json", true: "frame"}[frame], func(t *testing.T) {
			codec := codecHandler(handler, frame)
			// An honest client is cut at the cap's depth.
			rc := dialer(t, codec, false)()
			res, err := rc.Search(ctx, matrixQuery, matrixR, authtext.TNRA, authtext.ChainMHT)
			if env.honest(t, matrixQuery, authtext.TNRA, res, err); must(vo.Decode(res.VO))(t).CapDepth != matrixCap {
				t.Fatal("an honest answer to a client holding the cap is not cut")
			}

			flipped := rewriteManifests(codec, frame, func(c []byte) []byte {
				out := bytes.Clone(c)
				out[len(out)/2] ^= 0x20
				return out
			})
			for name, opts := range map[string][]authtext.RemoteOption{"bootstrapped": nil, "out of band": {authtext.WithClientExport(export)}} {
				t.Run("cap not hashing to the signed root/"+name, func(t *testing.T) {
					rc := must(authtext.NewRemoteClient("http://matrix",
						append(opts, authtext.WithHTTPClient(&http.Client{Transport: handlerTransport{flipped}}))...))(t)
					res, err := rc.Search(ctx, matrixQuery, matrixR, authtext.TNRA, authtext.ChainMHT)
					if res != nil || core.CodeOf(err) != core.CodeBadCap {
						t.Fatalf("classified as %v, want %v", err, core.CodeBadCap)
					}
					res, err = rc.Search(ctx, matrixQuery, matrixR, authtext.TNRA, authtext.ChainMHT)
					if env.honest(t, matrixQuery, authtext.TNRA, res, err); must(vo.Decode(res.VO))(t).CapDepth != 0 {
						t.Fatal("a client that refused its cap asked for cut answers")
					}
				})
			}

			if env.grow != nil {
				t.Run("previous generation's cap", func(t *testing.T) {
					var m httpapi.ManifestResponse
					if err := json.Unmarshal(matrixDo(handler, http.MethodGet, httpapi.PathManifest+"?cap=8", "", "").Body.Bytes(), &m); err != nil {
						t.Fatal(err)
					}
					rc := dialer(t, rewriteManifests(codec, frame, func([]byte) []byte { return m.Cap }), false)()
					res, err := rc.Search(ctx, matrixQuery, matrixR, authtext.TNRA, authtext.ChainMHT)
					env.honest(t, matrixQuery, authtext.TNRA, res, err)
					gen := rc.Generation()
					env.grow(t, []authtext.Document{{Content: []byte(fmt.Sprintf("digest chain capstone %v", frame))}})
					res, err = rc.Search(ctx, matrixQuery, matrixR, authtext.TNRA, authtext.ChainMHT)
					if res != nil || core.CodeOf(err) != core.CodeBadCap || rc.Generation() != gen+1 {
						t.Fatalf("at generation %d (from %d): classified as %v, want %v", rc.Generation(), gen, err, core.CodeBadCap)
					}
				})
			}

			for _, algo := range matrixAlgos {
				var shallow wire.SearchResponse // the same answer cut at depth 2
				if err := json.Unmarshal(matrixDo(handler, http.MethodPost, httpapi.PathSearch, searchBodyOf(matrixQuery, algo, 2), "").Body.Bytes(), &shallow); err != nil {
					t.Fatal(err)
				}
				rows := []struct {
					name string
					want core.VerifyCode
					edit func(v *vo.VO)
				}{
					{"cut below the cap held", core.CodeCapDepth, func(v *vo.VO) { v.CapDepth = matrixCap + 1 }},
					{"proof cut at the wrong depth", firstCut, func(v *vo.VO) {
						*v = *must(vo.Decode(shallow.VO))(t)
						v.CapDepth = matrixCap
					}},
					{"depth stripped", firstCut, func(v *vo.VO) { v.CapDepth = 0 }},
				}
				for _, row := range rows {
					if listMode && algo == authtext.TRA && row.want == firstCut {
						continue
					}
					t.Run(algo.String()+"/"+row.name, func(t *testing.T) {
						proxy := &tamperProxy{forceJSON: !frame}
						dial := dialer(t, proxy, false)
						for _, warm := range []bool{false, true} {
							proxy.arm(handler, nil)
							rc := dial()
							if warm {
								res, err := rc.Search(ctx, matrixQuery, matrixR, algo, authtext.ChainMHT)
								env.honest(t, matrixQuery, algo, res, err)
							}
							proxy.arm(handler, func(body []byte, frame bool) ([]byte, error) {
								return rewrite(body, frame, wire.Decoding.SearchResponse, wire.Encoding.SearchResponse, func(r *wire.SearchResponse) {
									v := must(vo.Decode(r.VO))(t)
									row.edit(v)
									r.VO = must2(vo.Encode(v, 16))(t)
								})
							})
							res, err := rc.Search(ctx, matrixQuery, matrixR, algo, authtext.ChainMHT)
							if res != nil || core.CodeOf(err) != row.want {
								t.Fatalf("warm=%v: classified as %v, want %v", warm, err, row.want)
							}
						}
					})
				}
			}
		})
	}
}

// rewriteManifests serves h with the proof cap of every manifest answer
// rewritten by edit, in the codec the answer travelled in.
func rewriteManifests(h http.Handler, frame bool, edit func([]byte) []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.URL.Path == httpapi.PathManifest && rec.Code == http.StatusOK {
			if frame {
				m, err := wire.DecodeManifestResponse(body)
				if err == nil && m.Cap != nil {
					m.Cap = edit(m.Cap)
					body = wire.EncodeManifestResponse(m)
				}
			} else {
				var m httpapi.ManifestResponse
				if err := json.Unmarshal(body, &m); err == nil && m.Cap != nil {
					m.Cap = edit(m.Cap)
					body, _ = json.Marshal(&m)
				}
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.Header().Del("Content-Length")
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	})
}

// matrixLifecycle is the generation column of a live shape: the update
// endpoint (applied by an owner, refused by a replica), a client following
// the next generation, servers pinned across the advance, and an honest
// answer of the previous generation replayed to a client that accepted the
// new one — stale, and still stale after the retry budget, for both
// algorithms.
func matrixLifecycle(t *testing.T, env matrixEnv, shape matrixShape, handler http.Handler) {
	searchPath, _ := searchPaths(shape.shards)
	var replay atomic.Pointer[[]byte]
	rc := dialer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if body := replay.Load(); body != nil && r.URL.Path == searchPath {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(*body)
			return
		}
		stripAccept(handler).ServeHTTP(w, r)
	}), false)()
	search := func(algo authtext.Algorithm) (*authtext.SearchResult, error) {
		return rc.Search(context.Background(), matrixQuery, matrixR, algo, authtext.ChainMHT)
	}
	followed := func(gen uint64) {
		t.Helper()
		res, err := search(authtext.TNRA)
		if env.honest(t, matrixQuery, authtext.TNRA, res, err); res.Generation != gen || rc.Generation() != gen {
			t.Fatalf("answered generation %d, client at %d, want %d", res.Generation, rc.Generation(), gen)
		}
	}
	followed(env.generation)

	rec := matrixDo(handler, http.MethodPost, httpapi.PathAdminUpdate, `{"add":[{"content":"ZGlnZXN0IGNoYWluIHByb29m"}]}`, "")
	if shape.adminStatus == http.StatusOK {
		var upd httpapi.UpdateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &upd); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("admin update: %d %s", rec.Code, rec.Body.String())
		}
		if upd.Generation != env.generation+1 || upd.Documents != env.documents+1 {
			t.Fatalf("admin update answered %+v", upd)
		}
		env.generation++
		followed(env.generation)
	} else if rec.Code != http.StatusForbidden || !strings.Contains(rec.Body.String(), "this replica is serving-only; apply updates at the owner") {
		t.Fatalf("a replica answered an update batch with %d %s", rec.Code, rec.Body.String())
	}

	stale := map[authtext.Algorithm][]byte{}
	for _, algo := range matrixAlgos {
		stale[algo] = matrixDo(handler, http.MethodPost, searchPath, searchBodyOf(matrixQuery, algo, 0), "").Body.Bytes()
	}
	pinned := env.server()
	env.advance(t)
	followed(env.generation + 1)

	// A server pinned before the advance keeps answering its generation; a
	// fresh one answers the new generation.
	inProcess := func(srv *authtext.Server) uint64 {
		return must(srv.Search(matrixQuery, matrixR, authtext.TNRA, authtext.ChainMHT))(t).Generation
	}
	if got := inProcess(pinned); got != env.generation {
		t.Fatalf("server pinned before the advance answered generation %d, want %d", got, env.generation)
	}
	if got := inProcess(env.server()); got != env.generation+1 {
		t.Fatalf("server pinned after the advance answered generation %d, want %d", got, env.generation+1)
	}
	for _, algo := range matrixAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			body := stale[algo]
			replay.Store(&body)
			if _, err := search(algo); !errors.Is(err, authtext.ErrStaleGeneration) || !authtext.IsTampered(err) {
				t.Fatalf("replayed generation %d to a client at %d classified as %v", env.generation, rc.Generation(), err)
			}
		})
	}
}

// TestHandlerShapeMatrixDictionaries is the collection-dictionary column of
// the live shapes (matrixDictionaries). It runs on its own, not beside the
// parallel matrix: the attachment and install counts are the process's,
// and they add up only while nothing else encodes or decodes frames.
func TestHandlerShapeMatrixDictionaries(t *testing.T) {
	for _, shape := range matrixShapes {
		if shape.adminStatus == http.StatusNotFound {
			continue // a static shape never publishes
		}
		t.Run(shape.name, func(t *testing.T) { matrixDictionaries(t, shape.build(t, nil)) })
	}
}

// growths numbers the vocabulary-growing publishes of this process.
var growths atomic.Int64

// frameDictionary is the collection dictionary a search frame names (""
// for none) and whether it carries it in full.
type frameDictionary struct {
	id       string
	attached bool
}

// dictionaryOf reads the dictionary fields of frame.
func dictionaryOf(frame []byte) frameDictionary {
	f := splitFrame(frame)
	if f.flags&2 == 0 {
		return frameDictionary{}
	}
	return frameDictionary{id: fmt.Sprintf("%x", f.id), attached: f.flags&4 != 0}
}

// recordDictionaries serves through h and records the dictionary of every
// search frame h answers with. Bodies sent in full are what deflate against
// a dictionary, so it drops the held-body summary of every request: each
// answer carries its bodies, however warm the client.
func recordDictionaries(h http.Handler, seen *[]frameDictionary) http.Handler {
	var mu sync.Mutex
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del(httpapi.HeldHeader)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if (r.URL.Path == httpapi.PathSearch || r.URL.Path == httpapi.PathShardSearch) && rec.Header().Get("Content-Type") == wire.ContentType {
			mu.Lock()
			*seen = append(*seen, dictionaryOf(rec.Body.Bytes()))
			mu.Unlock()
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	})
}

// matrixDictionaries follows a frame-speaking client across publishes: its
// answers' bodies deflate against the collection dictionary; a publish that
// keeps the vocabulary keeps the dictionary, and nothing is attached again;
// a publish that grows it by more than a sixteenth (up to five new terms,
// on a vocabulary of about twenty) swaps the dictionary, and the client verifies
// every answer of the new generation with the new dictionary attached to
// exactly one of them. (A smaller growth keeps the dictionary:
// TestLiveDictionaryKeptThroughSmallVocabularyChange.)
func matrixDictionaries(t *testing.T, env matrixEnv) {
	var seen []frameDictionary
	rc := dialer(t, recordDictionaries(env.handler(authtext.NewVOCache(1<<20)), &seen), false)()
	// TRA answers, big enough to deflate: cut at the client's proof cap, a
	// TNRA answer over this small corpus falls below the size frames start
	// compressing at.
	queries := []string{matrixQuery, matrixTieQuery}
	// searchAll asks every query and returns the dictionaries of the answers
	// and what the process's decoders did meanwhile.
	searchAll := func() ([]frameDictionary, wire.DictionaryStats) {
		t.Helper()
		before, from := wire.Dictionaries(), len(seen)
		for _, q := range queries {
			res, err := rc.Search(context.Background(), q, matrixR, authtext.TRA, authtext.ChainMHT)
			env.honest(t, q, authtext.TRA, res, err)
		}
		after := wire.Dictionaries()
		if len(seen)-from != len(queries) {
			t.Fatalf("%d search frames for %d queries", len(seen)-from, len(queries))
		}
		return seen[from:], wire.DictionaryStats{Attached: after.Attached - before.Attached,
			Installed: after.Installed - before.Installed, Refused: after.Refused - before.Refused}
	}
	// same checks that every answer names one dictionary, and returns it.
	same := func(frames []frameDictionary) string {
		t.Helper()
		for _, f := range frames {
			if f.id == "" || f.id != frames[0].id {
				t.Fatalf("answers name dictionaries %+v, want one, every time", frames)
			}
		}
		return frames[0].id
	}
	first, _ := searchAll()
	id := same(first)

	env.advance(t)
	stable, st := searchAll()
	if same(stable) != id || st != (wire.DictionaryStats{}) {
		t.Fatalf("a publish that keeps the vocabulary: dictionary %s → %s, %+v", id[:8], stable[0].id[:8], st)
	}
	for _, f := range stable {
		if f.attached {
			t.Fatal("a publish that keeps the vocabulary attached the dictionary again")
		}
	}

	// New terms, in several documents each, so every shard set places two
	// of them in one shard and the terms are no singletons there. The
	// client has never been sent the dictionary they make.
	var docs []authtext.Document
	fresh := fmt.Sprintf("zephyr%d", growths.Add(1))
	for _, u := range []string{"alpha", "bravo", "charlie"} {
		docs = append(docs, authtext.Document{Content: []byte(fresh + " quasar digest " + u)})
	}
	env.grow(t, docs)
	grown, st := searchAll()
	if same(grown) == id {
		t.Fatal("a publish that grows the vocabulary kept the dictionary")
	}
	if st != (wire.DictionaryStats{Attached: 1, Installed: 1}) || !grown[0].attached {
		t.Fatalf("a vocabulary-growing publish: frames %+v, dictionaries %+v; want the first answer to attach the new one, once", grown, st)
	}
}

// matrixHonest is the honest column: in process, every variant's answer to
// every matrix query (and one with an out-of-dictionary term) verifies and
// ranks like the oracle; remotely, a cold and then a warm client get the same over each codec, which the server really
// spoke. The ranking rows' queries are checked to be worth tampering with.
func matrixHonest(t *testing.T, env matrixEnv, shape matrixShape, handler http.Handler, listen bool) {
	type variant struct {
		algo   authtext.Algorithm
		scheme authtext.Scheme
	}
	var variants []variant
	for _, algo := range matrixAlgos {
		for _, scheme := range []authtext.Scheme{authtext.MHT, authtext.ChainMHT} {
			variants = append(variants, variant{algo, scheme})
		}
	}
	srv, client := env.server(), env.client()
	for _, v := range variants {
		for _, q := range []string{matrixQuery, matrixTieQuery, matrixSpliceQuery, "digest nowhere"} {
			res, err := srv.Search(q, matrixR, v.algo, v.scheme)
			if err == nil {
				err = client.Verify(q, matrixR, res)
			}
			env.honest(t, q, v.algo, res, err)
			if v.scheme == authtext.ChainMHT {
				checkWorthTampering(t, q, res)
			}
		}
	}

	// Remotely, per variant, over each codec: a cold client, then the same
	// client warm. Binary frames are a transport optimisation, never a
	// semantic fork: both codecs deliver the same verified answer.
	codecs := map[string]bool{"json": false, "frame": true}
	for _, v := range variants {
		t.Run(fmt.Sprintf("%s-%s", v.algo, v.scheme), func(t *testing.T) {
			answers := map[bool]*authtext.SearchResult{}
			for codec, frame := range codecs {
				var frames atomic.Int64
				rc := dialer(t, codecHandler(countFrames(handler, &frames), frame), listen)()
				for warm := 0; warm < 2; warm++ {
					res, err := rc.Search(context.Background(), matrixQuery, matrixR, v.algo, v.scheme)
					answers[frame] = env.honest(t, matrixQuery, v.algo, res, err)
					if len(res.Hits[0].Content) == 0 || res.Stats.QueryTerms == 0 || res.Stats.ServerTime <= 0 ||
						(shape.shards == 0 && res.Stats.VOBytes == 0) || len(res.PerShard) != shape.shards {
						t.Fatalf("%s, warm=%v: answer not delivered whole: %+v", codec, warm == 1, res.Stats)
					}
				}
				if (frames.Load() > 0) != frame {
					t.Fatalf("%s: %d frames served", codec, frames.Load())
				}
			}
			j, f := answers[false], answers[true]
			if !bytes.Equal(proofBytes(j), proofBytes(f)) || len(j.Hits) != len(f.Hits) {
				t.Fatal("the JSON and the framed answer differ")
			}
			for i := range j.Hits {
				if j.Hits[i].DocID != f.Hits[i].DocID || j.Hits[i].Score != f.Hits[i].Score || !bytes.Equal(j.Hits[i].Content, f.Hits[i].Content) {
					t.Fatalf("hit %d differs between the JSON and the framed answer", i)
				}
			}
		})
	}
	for codec, frame := range codecs {
		rc := dialer(t, codecHandler(handler, frame), listen)()
		health := must(rc.Health(context.Background()))(t)
		if health.Status != "ok" || health.Documents != env.documents || health.Terms == 0 ||
			health.Shards != shape.shards || health.Generation != env.generation {
			t.Fatalf("%s: healthz %+v, want %d documents, %d shards, generation %d",
				codec, health, env.documents, shape.shards, env.generation)
		}
		if err := rc.Bootstrap(context.Background()); err != nil || rc.Generation() != env.generation || rc.Shards() != shape.shards {
			t.Fatalf("%s: the client holds generation %d over %d shards, want %d over %d (err %v)",
				codec, rc.Generation(), rc.Shards(), env.generation, shape.shards, err)
		}
	}
}

// codecHandler is h answering in frames when the client offers them, or
// always in JSON.
func codecHandler(h http.Handler, frame bool) http.Handler {
	if frame {
		return h
	}
	return stripAccept(h)
}

// proofBytes is everything an answer's proofs are: its VO, or every
// shard's.
func proofBytes(res *authtext.SearchResult) []byte {
	out := append([]byte(nil), res.VO...)
	for _, sr := range res.PerShard {
		out = append(out, sr.VO...)
	}
	return out
}

// checkWorthTampering holds the ranking rows to their premise. For
// matrixQuery: the answer has at least three hits on two scores, and the
// answer the bare rows attack (on a shard set, the top merged hit's shard)
// at least two whose first and last scores differ. For matrixTieQuery: the
// attacked answer has at least two hits, all on one score.
func checkWorthTampering(t *testing.T, query string, res *authtext.SearchResult) {
	t.Helper()
	attacked := res
	if res.PerShard != nil && len(res.Hits) > 0 {
		attacked = res.PerShard[res.Hits[0].Shard]
	}
	scores := func(a *authtext.SearchResult) int {
		seen := map[float64]bool{}
		for _, h := range a.Hits {
			seen[h.Score] = true
		}
		return len(seen)
	}
	n := len(attacked.Hits)
	switch {
	case query == matrixQuery && (len(res.Hits) < 3 || scores(res) < 2 || n < 2 || attacked.Hits[0].Score == attacked.Hits[n-1].Score):
		t.Fatalf("%q: %d hits on %d scores, attacked answer %d hits; the ranking rows would be vacuous", query, len(res.Hits), scores(res), n)
	case query == matrixTieQuery && (n < 2 || scores(attacked) != 1):
		t.Fatalf("%q: attacked answer has %d hits on %d scores, want a tie", query, n, scores(attacked))
	}
}

// matrixConcurrent is the concurrency row: goroutines search and verify
// through one RemoteClient and through one pinned Server at once, and
// every answer ranks like the oracle. Run with -race to enforce.
func matrixConcurrent(t *testing.T, env matrixEnv, handler http.Handler) {
	rc, srv, client := dialer(t, handler, false)(), env.server(), env.client()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q := []string{matrixQuery, matrixTieQuery, matrixSpliceQuery}[(g+i)%3]
				algo := matrixAlgos[(g+i)%2]
				var res *authtext.SearchResult
				var err error
				if g%2 == 0 {
					res, err = rc.Search(context.Background(), q, matrixR, algo, authtext.ChainMHT)
				} else if res, err = srv.Search(q, matrixR, algo, authtext.ChainMHT); err == nil {
					err = client.Verify(q, matrixR, res)
				}
				if err == nil {
					err = srv.CheckRankingForTest(q, matrixR, algo, res)
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d, %s %q: %w", g, algo, q, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A tamperRow rewrites one honest answer. bare rewrites a bare answer; on a
// shard set it rewrites the answer of the shard holding the top merged hit.
// sharded, when set, rewrites a shard set's answer as a whole instead, and
// a row with sharded alone attacks shard sets only. other is the honest
// answer to the row's other query, for the splicing rows.
type tamperRow struct {
	name string
	// query is the question asked (default matrixQuery); other is the one
	// whose honest answer the rewrite gets (default matrixSpliceQuery).
	query, other string
	bare         func(r, other *wire.SearchResponse)
	sharded      func(r, other *wire.ShardedSearchResponse)
	// want is the classification demanded; VerifyOK: any tampering code.
	want core.VerifyCode
	// traOnly restricts the row to TRA answers.
	traOnly bool
}

// tamperRows is the matrix's one tamper table. A relabelled list fails the
// dictionary leaf that binds its name, or on a list-mode artifact the
// signature over its name.
func tamperRows(listMode bool) []tamperRow {
	relabelled := core.CodeBadTermProof
	if listMode {
		relabelled = core.CodeBadSignature
	}
	rows := []tamperRow{
		{name: "inflate top score", bare: func(r, _ *wire.SearchResponse) { r.Hits[0].Score *= 2 }},
		{name: "swap ranking", bare: func(r, _ *wire.SearchResponse) {
			last := len(r.Hits) - 1
			r.Hits[0], r.Hits[last] = r.Hits[last], r.Hits[0]
		}},
		// Equal scores, so only the canonical order can tell: both
		// algorithms must demand it.
		{name: "swap tied ranking", query: matrixTieQuery, want: core.CodeBadOrdering, bare: func(r, _ *wire.SearchResponse) {
			last := len(r.Hits) - 1
			r.Hits[0], r.Hits[last] = r.Hits[last], r.Hits[0]
		}},
		{name: "drop result document", bare: func(r, _ *wire.SearchResponse) { r.Hits = r.Hits[:len(r.Hits)-1] }},
		{name: "empty result", bare: func(r, _ *wire.SearchResponse) { r.Hits = nil }},
		{name: "alter document content", bare: func(r, _ *wire.SearchResponse) {
			r.Hits[0].Content = append([]byte("FORGED "), r.Hits[0].Content...)
		}},
		{name: "substitute document", bare: func(r, _ *wire.SearchResponse) { r.Hits[0].DocID += 1000 }},
		{name: "flip VO byte", bare: func(r, _ *wire.SearchResponse) { r.VO[len(r.VO)/2] ^= 0x40 }},
		{name: "truncate VO", bare: func(r, _ *wire.SearchResponse) { r.VO = r.VO[:len(r.VO)/2] }},
		{name: "relabelled term proofs", want: relabelled, bare: func(r, _ *wire.SearchResponse) { r.VO = swapTermNames(r.VO) }},
		// A term proved twice would weigh twice in every score.
		{name: "duplicate a term proof", want: core.CodeMalformedVO, bare: func(r, _ *wire.SearchResponse) {
			r.VO = editTerms(r.VO, func(ts []vo.TermProof) []vo.TermProof { return append(ts, ts[0]) })
		}},
		// The runner-up replaced by a second copy of the top hit.
		{name: "duplicate a result document", bare: func(r, _ *wire.SearchResponse) { r.Hits[1] = r.Hits[0] }},
		{name: "another query's honest answer",
			bare:    func(r, other *wire.SearchResponse) { *r = *other },
			sharded: func(r, other *wire.ShardedSearchResponse) { *r = *other }},
		{name: "inflate shard score", sharded: func(r, _ *wire.ShardedSearchResponse) {
			r.Shards[r.Merged[0].Shard].Hits[0].Score += 1
		}},
		{name: "forge shard content", sharded: func(r, _ *wire.ShardedSearchResponse) {
			r.Shards[r.Merged[0].Shard].Hits[0].Content = []byte("forged")
		}},
		{name: "corrupt shard vo", sharded: func(r, _ *wire.ShardedSearchResponse) {
			s := r.Merged[0].Shard
			r.Shards[s].VO[len(r.Shards[s].VO)/2] ^= 1
		}},
		{name: "drop a shard", sharded: func(r, _ *wire.ShardedSearchResponse) { r.Shards = r.Shards[:len(r.Shards)-1] }},
		{name: "reorder merge", sharded: func(r, _ *wire.ShardedSearchResponse) {
			r.Merged[0], r.Merged[1] = r.Merged[1], r.Merged[0]
		}},
		{name: "truncate merge", sharded: func(r, _ *wire.ShardedSearchResponse) { r.Merged = r.Merged[1:] }},
		{name: "rewrite global id", sharded: func(r, _ *wire.ShardedSearchResponse) { r.Merged[0].GlobalID++ }},
		{name: "cite an absent shard", sharded: func(r, _ *wire.ShardedSearchResponse) { r.Merged[0].Shard = len(r.Shards) }},
	}
	if listMode {
		// Without vocabulary proofs an artifact has §3.1's gap: nothing
		// proves a query term absent, so a bare answer that drops one verifies.
		return rows
	}
	// An indexed query term dropped: the honest answer to the query without
	// it — on a shard set, the top merged hit's shard's — claims the term is
	// not indexed, which only a vocabulary proof refutes.
	return append(rows, tamperRow{name: "drop a query term", other: matrixDropQuery, want: core.CodeBadVocabProof,
		bare: func(r, other *wire.SearchResponse) { *r = *other },
		sharded: func(r, other *wire.ShardedSearchResponse) {
			s := r.Merged[0].Shard
			r.Shards[s] = other.Shards[s]
		}})
}

// swapTermNames relabels the first two term proofs of a VO as each other:
// each list answers for the other term. A VO with fewer than two term
// proofs is returned as it is (and then verifies, failing the row).
func swapTermNames(raw []byte) []byte {
	return editTerms(raw, func(ts []vo.TermProof) []vo.TermProof {
		if len(ts) >= 2 {
			ts[0].Name, ts[1].Name = ts[1].Name, ts[0].Name
		}
		return ts
	})
}

// editTerms re-encodes a VO with its term proofs rewritten by edit. A VO
// that does not decode, or has no term proof, is returned as it is.
func editTerms(raw []byte, edit func([]vo.TermProof) []vo.TermProof) []byte {
	v, err := vo.Decode(raw)
	if err != nil || len(v.Terms) == 0 {
		return raw
	}
	v.Terms = edit(v.Terms)
	enc, _, err := vo.Encode(v, 16)
	if err != nil {
		return raw
	}
	return enc
}

// A frameEdit rewrites a binary frame; want is the tampering code the
// client must report (core.VerifyOK: any).
type frameEdit struct {
	name string
	want core.VerifyCode
	edit func(frame []byte) []byte
}

// flip flips one bit of a frame at the offset pick chooses in a frame of n
// bytes.
func flip(name string, pick func(n int) int) frameEdit {
	return frameEdit{name, core.VerifyOK, func(frame []byte) []byte {
		out := bytes.Clone(frame)
		out[pick(len(out))] ^= 0x10
		return out
	}}
}

// frameEdits flips one bit in every region of a binary frame — magic,
// version, type, flags, CRC, length and payload — and lies about the
// collection dictionary with the CRC made good. The exhaustive every-bit
// battery runs in memory in internal/wire; these prove the classification
// survives the whole client stack.
var frameEdits = []frameEdit{
	flip("magic", func(int) int { return 1 }),
	flip("version", func(int) int { return 4 }),
	flip("type", func(int) int { return 5 }),
	flip("flags", func(int) int { return 7 }),
	flip("crc", func(int) int { return 9 }),
	flip("length", func(int) int { return 14 }),
	flip("payload start", func(int) int { return wire.HeaderSize }),
	flip("payload middle", func(n int) int { return wire.HeaderSize + (n-wire.HeaderSize)/2 }),
	flip("payload end", func(n int) int { return n - 1 }),
	{"attach a dictionary whose SHA-256 is not the frame's", core.CodeMalformedVO, func(frame []byte) []byte {
		f := splitFrame(frame)
		f.id, f.dict = sha256.Sum256([]byte("the dictionary named")), []byte("another dictionary attached")
		return f.join(true)
	}},
	{"name a dictionary, attach none, to a client that holds none", core.CodeMalformedVO, func(frame []byte) []byte {
		f := splitFrame(frame)
		f.id = sha256.Sum256([]byte("a dictionary no client was given"))
		return f.join(false)
	}},
	{"attach another self-consistent dictionary, streams unchanged", core.VerifyOK, func(frame []byte) []byte {
		f := splitFrame(frame)
		f.dict = bytes.Repeat([]byte("tampered history "), wire.MaxDictionaryBytes/17)
		f.id = sha256.Sum256(f.dict)
		return f.join(true)
	}},
}

// splitFrame takes a well-formed frame apart (docs/PROTOCOL.md "Binary
// framing"): the first six header bytes, the flags, the dictionary the
// frame names and the one it carries, and the payload.
func splitFrame(frame []byte) framed {
	f := framed{head: frame[:6], flags: binary.BigEndian.Uint16(frame[6:])}
	body := frame[wire.HeaderSize:]
	if f.flags&2 != 0 {
		f.id, body = [sha256.Size]byte(body), body[sha256.Size:]
	}
	if f.flags&4 != 0 {
		n := binary.BigEndian.Uint32(body)
		f.dict, body = body[4:4+n], body[4+n:]
	}
	f.payload = body
	return f
}

type framed struct {
	head    []byte
	flags   uint16
	id      [sha256.Size]byte
	dict    []byte
	payload []byte
}

// join reassembles the frame naming f.id, carrying f.dict when attach is
// set, with the CRC and length made good.
func (f framed) join(attach bool) []byte {
	body := append([]byte(nil), f.id[:]...)
	flags := f.flags | 2
	if attach {
		flags |= 4
		body = binary.BigEndian.AppendUint32(body, uint32(len(f.dict)))
		body = append(body, f.dict...)
	} else {
		flags &^= 4
	}
	body = append(body, f.payload...)
	out := binary.BigEndian.AppendUint16(bytes.Clone(f.head), flags)
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	out = binary.BigEndian.AppendUint64(out, uint64(len(body)))
	return append(out, body...)
}

// rewrite decodes a search answer from the codec it travelled in, applies
// mutate, and re-encodes it in that codec — a frame against the dictionary
// it named, carried when it carried it.
func rewrite[T any](body []byte, frame bool, decode func(wire.Decoding, []byte) (*T, error),
	encode func(wire.Encoding, *T) []byte, mutate func(*T)) ([]byte, error) {
	v := new(T)
	var err error
	var enc wire.Encoding
	if frame {
		var dec wire.Decoding
		if enc, dec, err = frameCodec(body); err == nil {
			v, err = decode(dec, body)
		}
	} else {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		return nil, err
	}
	mutate(v)
	if frame {
		return encode(enc, v), nil
	}
	return json.Marshal(v)
}

// relayedDictionaries holds every collection dictionary a tamper proxy saw a
// frame carry, by id: what the proxy rewrites a frame against when the
// frame names one without carrying it (its client held it).
var relayedDictionaries sync.Map // [sha256.Size]byte → *wire.Dictionary

// relay records the dictionary an honest frame carries.
func relay(frame []byte) {
	if f := splitFrame(frame); f.flags&4 != 0 {
		relayedDictionaries.LoadOrStore(f.id, wire.NewDictionary(bytes.Clone(f.dict)))
	}
}

// frameCodec is the codec of frame: the dictionary it names, which must be
// one a proxy relayed, and whether it carries it.
func frameCodec(frame []byte) (wire.Encoding, wire.Decoding, error) {
	f := splitFrame(frame)
	if f.flags&2 == 0 {
		return wire.Encoding{}, wire.Decoding{}, nil
	}
	d, ok := relayedDictionaries.Load(f.id)
	if !ok {
		return wire.Encoding{}, wire.Decoding{}, fmt.Errorf("the frame names dictionary %x…, which no proxy relayed", f.id[:8])
	}
	dict := d.(*wire.Dictionary)
	return wire.Encoding{Dict: dict, Attach: f.flags&4 != 0}, wire.Decoding{Held: []*wire.Dictionary{dict}}, nil
}

// A mutation rewrites the body of one successful search answer.
type mutation func(body []byte, frame bool) ([]byte, error)

// mutation turns the row into the rewrite of a shape's answers; other is
// the JSON body of the splice row's answer (nil for rows that need none).
func (row tamperRow) mutation(sharded bool, other []byte) mutation {
	if !sharded {
		return func(body []byte, frame bool) ([]byte, error) {
			var o wire.SearchResponse
			if err := unmarshalOptional(other, &o); err != nil {
				return nil, err
			}
			return rewrite(body, frame, wire.Decoding.SearchResponse, wire.Encoding.SearchResponse,
				func(r *wire.SearchResponse) { row.bare(r, &o) })
		}
	}
	return func(body []byte, frame bool) ([]byte, error) {
		var o wire.ShardedSearchResponse
		if err := unmarshalOptional(other, &o); err != nil {
			return nil, err
		}
		return rewrite(body, frame, wire.Decoding.ShardedSearchResponse, wire.Encoding.ShardedSearchResponse,
			func(r *wire.ShardedSearchResponse) {
				if row.sharded != nil {
					row.sharded(r, &o)
					return
				}
				row.bare(&r.Shards[r.Merged[0].Shard], nil)
			})
	}
}

// unmarshalOptional decodes body into v unless body is empty.
func unmarshalOptional(body []byte, v any) error {
	if len(body) == 0 {
		return nil
	}
	return json.Unmarshal(body, v)
}

// tamperProxy is the one adversary: it forwards to target and, while a
// mutation is armed, rewrites every successful search answer in the codec
// it was answered in. Armed, it asks for every body — it drops the held-body
// summary of the request — so each row rewrites a full answer, whatever a
// warm client holds; the held-bodies column (matrixHeldBodies) attacks
// answers that refer to held bodies. With forceJSON set it forces the JSON
// codec (the server never sees the client's frame offer). It counts the
// frames it relays.
type tamperProxy struct {
	forceJSON bool
	target    atomic.Pointer[http.Handler]
	mutate    atomic.Pointer[mutation]
	frames    atomic.Int64
}

// arm makes the proxy forward to target, rewriting with m (nil: honestly).
func (p *tamperProxy) arm(target http.Handler, m mutation) {
	p.target.Store(&target)
	if m == nil {
		p.mutate.Store(nil)
	} else {
		p.mutate.Store(&m)
	}
}

func (p *tamperProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.forceJSON {
		r.Header.Del("Accept")
	}
	if p.mutate.Load() != nil {
		r.Header.Del(httpapi.HeldHeader)
	}
	rec := httptest.NewRecorder()
	(*p.target.Load()).ServeHTTP(rec, r)
	body, frame := rec.Body.Bytes(), rec.Header().Get("Content-Type") == wire.ContentType
	if frame {
		p.frames.Add(1)
		relay(body)
	}
	if m := p.mutate.Load(); m != nil && rec.Code == http.StatusOK &&
		(r.URL.Path == httpapi.PathSearch || r.URL.Path == httpapi.PathShardSearch) {
		var err error
		if body, err = (*m)(body, frame); err != nil {
			http.Error(w, "tamper proxy: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.Header().Del("Content-Length")
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body)
}

// A battery is the tamper table over one shape and codec: every row and
// flip, for both algorithms, by a cold and a warm client, each on a cache
// miss and a cache hit.
type battery struct {
	env    matrixEnv
	shards int
	frame  bool
	rows   []tamperRow
	edits  []frameEdit
	// listen runs the clients over a real listener.
	listen bool
}

func (b battery) run(t *testing.T) {
	proxy := &tamperProxy{forceJSON: !b.frame}
	dial := dialer(t, proxy, b.listen)
	for _, algo := range matrixAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			hitCache := authtext.NewVOCache(1 << 20)
			hits := b.env.handler(hitCache)
			searchPath, _ := searchPaths(b.shards)
			for _, row := range b.rows {
				if row.bare == nil && b.shards == 0 || row.traOnly && algo != authtext.TRA {
					continue
				}
				query, other := cmp.Or(row.query, matrixQuery), cmp.Or(row.other, matrixSpliceQuery)
				t.Run(row.name, func(t *testing.T) {
					spliced := matrixDo(hits, http.MethodPost, searchPath, searchBodyOf(other, algo, clientCut(b.shards)), "").Body.Bytes()
					b.attack(t, proxy, dial, hits, hitCache, algo, query, row.want, row.mutation(b.shards > 0, spliced))
				})
			}
			for _, e := range b.edits {
				t.Run(e.name, func(t *testing.T) {
					b.attack(t, proxy, dial, hits, hitCache, algo, matrixQuery, e.want, func(body []byte, frame bool) ([]byte, error) {
						if !frame {
							return nil, errors.New("no frame to edit")
						}
						return e.edit(body), nil
					})
				})
			}
		})
	}
}

// attack serves m's rewrite of the honest answer to query to a cold and to
// a warm client, once from a cache miss and once from a cache hit, and
// demands the same tampering classification all four times. hits is a
// handler whose cache hitCache answers the query once primed.
func (b battery) attack(t *testing.T, proxy *tamperProxy, dial func() *authtext.RemoteClient, hits http.Handler,
	hitCache *authtext.VOCache, algo authtext.Algorithm, query string, want core.VerifyCode, m mutation) {
	searchPath, _ := searchPaths(b.shards)
	codes := map[string]core.VerifyCode{}
	for _, warm := range []bool{false, true} {
		t.Run(map[bool]string{false: "cold", true: "warm"}[warm], func(t *testing.T) {
			var rc *authtext.RemoteClient
			for _, hit := range []bool{false, true} {
				proxy.arm(hits, nil)
				if rc == nil || !warm {
					rc = dial()
				}
				if warm && !hit {
					res, err := rc.Search(context.Background(), query, matrixR, algo, authtext.ChainMHT)
					b.env.honest(t, query, algo, res, err)
				}
				target, missCache := hits, authtext.NewVOCache(1<<20)
				if hit {
					matrixDo(hits, http.MethodPost, searchPath, searchBodyOf(query, algo, clientCut(b.shards)), "")
				} else {
					target = b.env.handler(missCache)
				}
				before, framesBefore := hitCache.Stats(), proxy.frames.Load()
				proxy.arm(target, m)
				res, err := rc.Search(context.Background(), query, matrixR, algo, authtext.ChainMHT)
				proxy.arm(hits, nil)

				cell := fmt.Sprintf("warm=%v hit=%v", warm, hit)
				if (proxy.frames.Load() > framesBefore) != b.frame {
					t.Fatalf("%s: frame=%v, but the proxy relayed %d frames", cell, b.frame, proxy.frames.Load()-framesBefore)
				}
				if !authtext.IsTampered(err) || res != nil || (want != core.VerifyOK && core.CodeOf(err) != want) {
					t.Fatalf("%s: classified as %v (result returned: %v), want tampering %v", cell, err, res != nil, want)
				}
				if st := hitCache.Stats(); hit && (st.Hits != before.Hits+1 || st.Misses != before.Misses) {
					t.Fatalf("%s: the attacked answer was not a cache hit: %+v then %+v", cell, before, st)
				}
				if st := missCache.Stats(); !hit && (st.Misses != 1 || st.Hits != 0) {
					t.Fatalf("%s: the attacked answer was not a cache miss: %+v", cell, st)
				}
				codes[cell] = core.CodeOf(err)
			}
		})
	}
	for cell, code := range codes {
		if code != codes["warm=false hit=false"] {
			t.Fatalf("classified %v cold on a miss, %v %s", codes["warm=false hit=false"], code, cell)
		}
	}
}

// matrixVariantNotBuilt is the shape matrix's "variant not built" column: a
// TNRA-CMHT-only deployment of the shape, asked for TRA-CMHT, refuses with
// ErrVariantNotBuilt — in process and remotely, where
// the client refuses from its verified manifest without sending a search —
// and a refusal is never tampering. A server that claims "not built" for the
// variant the manifest lists, or answers with a VO of a kind outside the
// set, is tampering. Cold and warm client columns classify alike.
func matrixVariantNotBuilt(t *testing.T, shape matrixShape) {
	env := shape.build(t, []authtext.Option{authtext.WithVariants(authtext.Variant{Algorithm: authtext.TNRA, Scheme: authtext.ChainMHT})})
	handler := env.handler(nil)
	searchPath, _ := searchPaths(shape.shards)
	notBuilt := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, authtext.ErrVariantNotBuilt) || authtext.IsTampered(err) {
			t.Fatalf("%s: TRA-CMHT on a TNRA-CMHT build: %v, want ErrVariantNotBuilt and not tampering", what, err)
		}
	}
	warmUp := func(rc *authtext.RemoteClient) {
		t.Helper()
		res, err := rc.Search(context.Background(), matrixQuery, matrixR, authtext.TNRA, authtext.ChainMHT)
		env.honest(t, matrixQuery, authtext.TNRA, res, err)
	}

	srv := env.server()
	_, err := srv.Search(matrixQuery, matrixR, authtext.TRA, authtext.ChainMHT)
	notBuilt("Server.Search", err)

	// The wire: 422 variant_not_built, and healthz names the set.
	rec := matrixDo(handler, http.MethodPost, searchPath, searchBodyOf(matrixQuery, authtext.TRA, 0), "")
	var envl httpapi.ErrorResponse
	if rec.Code != http.StatusUnprocessableEntity || json.Unmarshal(rec.Body.Bytes(), &envl) != nil ||
		envl.Error.Code != httpapi.CodeVariantNotBuilt {
		t.Fatalf("TRA-CMHT over /v1: %d %s", rec.Code, rec.Body.String())
	}
	var health httpapi.Health
	if err := json.Unmarshal(matrixDo(handler, http.MethodGet, httpapi.PathHealthz, "", "").Body.Bytes(), &health); err != nil ||
		len(health.Variants) != 1 || health.Variants[0] != "tnra-cmht" {
		t.Fatalf("healthz variants %v (err %v)", health.Variants, err)
	}

	// Remote: the refusal comes from the verified manifest; no search is sent.
	var searches atomic.Int64
	dial := dialer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == searchPath {
			searches.Add(1)
		}
		handler.ServeHTTP(w, r)
	}), false)
	for _, warm := range []bool{false, true} {
		rc := dial()
		before := searches.Load()
		if warm {
			warmUp(rc)
		} else if err := rc.Bootstrap(context.Background()); err != nil {
			t.Fatal(err)
		}
		sent := searches.Load()
		_, err := rc.Search(context.Background(), matrixQuery, matrixR, authtext.TRA, authtext.ChainMHT)
		notBuilt(fmt.Sprintf("RemoteClient.Search (warm=%v)", warm), err)
		if got := searches.Load(); got != sent || (warm && sent != before+1) {
			t.Fatalf("warm=%v: %d search requests reached the server for refused variants", warm, got-sent)
		}
	}

	// Lies: "not built" for the listed variant, and a VO of an unlisted kind.
	refusing := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != searchPath {
			handler.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		_ = json.NewEncoder(w).Encode(&httpapi.ErrorResponse{Error: httpapi.ErrorBody{
			Code: httpapi.CodeVariantNotBuilt, Message: "variant tnra-cmht is not built"}})
	})
	relabel := tamperRow{bare: func(r, _ *wire.SearchResponse) {
		v := must(vo.Decode(r.VO))(t)
		v.Scheme = uint8(core.SchemeMHT)
		enc, _, err := vo.Encode(v, 16)
		if err != nil {
			t.Error(err)
		}
		r.VO = enc
	}}
	proxy := &tamperProxy{forceJSON: true}
	dial = dialer(t, proxy, false)
	for _, lie := range []struct {
		target http.Handler
		m      mutation
		want   core.VerifyCode
	}{
		{refusing, nil, core.CodeVariantWithheld},
		{handler, relabel.mutation(shape.shards > 0, nil), core.CodeMalformedVO},
	} {
		for _, warm := range []bool{false, true} {
			proxy.arm(handler, nil)
			rc := dial()
			if warm {
				warmUp(rc)
			}
			proxy.arm(lie.target, lie.m)
			_, err := rc.Search(context.Background(), matrixQuery, matrixR, authtext.TNRA, authtext.ChainMHT)
			if !authtext.IsTampered(err) || core.CodeOf(err) != lie.want || errors.Is(err, authtext.ErrVariantNotBuilt) {
				t.Fatalf("warm=%v: classified as %v, want %v", warm, err, lie.want)
			}
		}
	}
}

// TestHealthzCountsLiveDocumentsOnStaticServer: one signed generation
// carrying a tombstone must report the same healthz whether its snapshot
// is served statically by file path or through a replica by directory —
// live documents, never slots.
func TestHealthzCountsLiveDocumentsOnStaticServer(t *testing.T) {
	owner, dir := matrixLiveOwner(t, 0), t.TempDir()
	path := must(owner.WriteSnapshotDir(dir))(t)

	srv, client, err := authtext.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	byFile := authtext.NewHTTPHandler(srv, must(client.Export())(t))
	byDir := must(must(authtext.OpenLiveSnapshotDir(dir))(t).HTTPHandler())(t)

	healthOf := func(h http.Handler) (out httpapi.Health) {
		if err := json.Unmarshal(matrixDo(h, http.MethodGet, httpapi.PathHealthz, "", "").Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	file, replica := healthOf(byFile), healthOf(byDir)
	if file.Documents != matrixDocs-1 || file.Generation != 2 {
		t.Fatalf("static healthz counts slots, not live documents: %+v", file)
	}
	if file.Documents != replica.Documents || file.Terms != replica.Terms || file.Generation != replica.Generation {
		t.Fatalf("file path and directory disagree about one generation: %+v vs %+v", file, replica)
	}
}

// The named cells: slices of the matrix that run on their own, on a fresh
// build of one shape. The honest column and the batteries run
// here over a real loopback listener instead of the in-process transport,
// and the concurrency cells are what the race job's Concurrent|Parallel
// hammer step picks up.

// namedShape builds the named shape; the static shapes once per test
// binary, since nothing changes them.
var namedShape = func() func(t *testing.T, name string) (matrixEnv, matrixShape) {
	var mu sync.Mutex
	built := map[string]matrixEnv{}
	return func(t *testing.T, name string) (matrixEnv, matrixShape) {
		mu.Lock()
		defer mu.Unlock()
		for _, shape := range matrixShapes {
			if shape.name != name {
				continue
			}
			env, ok := built[name]
			if !ok {
				if env = shape.build(t, nil); env.advance == nil {
					built[name] = env
				}
			}
			return env, shape
		}
		t.Fatalf("no shape %q", name)
		return matrixEnv{}, matrixShape{}
	}
}()

func honestCell(t *testing.T, name string) {
	env, shape := namedShape(t, name)
	matrixHonest(t, env, shape, env.handler(nil), true)
}

func batteryCell(t *testing.T, name string, b battery) {
	env, shape := namedShape(t, name)
	b.env, b.shards, b.listen = env, shape.shards, true
	b.run(t)
}

func concurrentCell(t *testing.T, name string) {
	env, _ := namedShape(t, name)
	matrixConcurrent(t, env, env.handler(nil))
}

func generationsCell(t *testing.T, name string) {
	env, shape := namedShape(t, name)
	matrixLifecycle(t, env, shape, env.handler(authtext.NewVOCache(1<<20)))
}

// rowNamed is the row of the tamper table called name.
func rowNamed(t *testing.T, name string) []tamperRow {
	for _, row := range tamperRows(false) {
		if row.name == name {
			return []tamperRow{row}
		}
	}
	t.Fatalf("no tamper row %q", name)
	return nil
}

func TestRemoteHonestServerVerifies(t *testing.T)        { honestCell(t, "static-single") }
func TestShardedRemoteHonestServerVerifies(t *testing.T) { honestCell(t, "static-sharded") }
func TestRemoteBinaryMatchesJSON(t *testing.T)           { honestCell(t, "live-single") }
func TestRemoteScoreRoundTrip(t *testing.T)              { honestCell(t, "replica-single") }
func TestRewrittenSnapshotServesVerified(t *testing.T)   { honestCell(t, "static-rewritten-single") }
func TestRewrittenReplicaServesVerified(t *testing.T)    { honestCell(t, "replica-rewritten-sharded") }

func TestRemoteTamperingDetected(t *testing.T) {
	batteryCell(t, "static-single", battery{rows: tamperRows(false)})
}

func TestShardedRemoteTamperingRejected(t *testing.T) {
	batteryCell(t, "static-sharded", battery{rows: tamperRows(false)})
}

func TestRemoteBinarySemanticTamperDetected(t *testing.T) {
	batteryCell(t, "static-single", battery{frame: true, rows: tamperRows(false)})
}

func TestRemoteBinaryFrameTamperBattery(t *testing.T) {
	batteryCell(t, "static-single", battery{frame: true, edits: frameEdits})
}

// A poisoned cache entry serves the bytes of an in-transit flip of a hit;
// a rolled-back one those of a replayed generation.
func TestCachePoisonedEntryRejected(t *testing.T) {
	batteryCell(t, "static-single", battery{frame: true, rows: rowNamed(t, "flip VO byte")})
}

func TestCacheHTTPPoisonRejectedByRemoteClient(t *testing.T) {
	batteryCell(t, "static-single", battery{rows: rowNamed(t, "flip VO byte")})
}

func TestCacheCrossGenerationReplayRejected(t *testing.T) { generationsCell(t, "replica-sharded") }

func TestServerConcurrentSearch(t *testing.T)              { concurrentCell(t, "static-single") }
func TestShardedServerConcurrentSearch(t *testing.T)       { concurrentCell(t, "static-sharded") }
func TestRemoteClientConcurrentSearch(t *testing.T)        { concurrentCell(t, "live-single") }
func TestShardedRemoteClientConcurrentSearch(t *testing.T) { concurrentCell(t, "live-sharded") }

func TestLiveRemoteRollbackRejected(t *testing.T)   { generationsCell(t, "live-single") }
func TestLiveShardedRemoteGenerations(t *testing.T) { generationsCell(t, "live-sharded") }
func TestLiveReplicaHandlerServesAndRefusesUpdates(t *testing.T) {
	generationsCell(t, "replica-single")
}
