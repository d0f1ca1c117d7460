package authtext_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"authtext"
	"authtext/internal/core"
	"authtext/internal/httpapi"
	"authtext/internal/vo"
	"authtext/internal/wire"
)

// The handler shape matrix: every serving shape — {bare, 2 shards} ×
// {static, live owner, snapshot replica} — is built from one generation
// source behind one backend (serve.go), so one table checks what all six
// must agree on: honest answers verify over both wire codecs, the
// registered endpoint set and its 404/403 bodies, healthz, the generation
// header, cache precedence and byte-identical hits, pinned in-process
// servers, and the tamper / rollback classifications.

const (
	matrixQuery = "merkle digest"
	matrixR     = 3
	matrixDocs  = 16
)

// matrixEnv is one built shape.
type matrixEnv struct {
	handler http.Handler
	// documents and generation are what healthz must report.
	documents  int
	generation uint64
	// ownCache is the cache the static server itself carries (SetVOCache);
	// nil on the live shapes, whose sources carry none. The handler is built
	// with WithVOCache(optCache), which must win.
	ownCache *authtext.VOCache
	// advance publishes one more generation and makes this handler serve
	// it; nil on static shapes.
	advance func(t *testing.T)
	// server returns an in-process Server of the test's own, pinned to the
	// generation the handler currently serves.
	server func() *authtext.Server
}

type matrixShape struct {
	name string
	// shards is the shard count: 0 for a bare collection.
	shards int
	// adminStatus is what POST /v1/admin/update answers: 404 (static: no
	// such endpoint), 403 (replica: serving-only) or 200 (owner).
	adminStatus int
	// build makes the shape from an owner built with ownerOpts.
	build func(t *testing.T, ownerOpts []authtext.Option, opts ...authtext.HandlerOption) matrixEnv
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
	var (
		owner   *authtext.LiveOwner
		handles []authtext.DocHandle
		err     error
	)
	if shards == 0 {
		owner, handles, err = authtext.NewLiveOwner(liveRemoteDocs(0, matrixDocs), opts...)
	} else {
		owner, handles, err = authtext.NewLiveShardedOwner(liveRemoteDocs(0, matrixDocs), shards, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	must(owner.RemoveDocuments(handles[1]))(t)
	return owner
}

// matrixShapes is {0, 2} shards × {static, live owner, snapshot replica}:
// three constructors, each taking the shard count as data.
var matrixShapes = func() (shapes []matrixShape) {
	for _, shards := range []int{0, 2} {
		suffix := map[int]string{0: "-single", 2: "-sharded"}[shards]
		shapes = append(shapes,
			matrixShape{name: "static" + suffix, shards: shards, adminStatus: http.StatusNotFound,
				build: func(t *testing.T, ownerOpts []authtext.Option, opts ...authtext.HandlerOption) matrixEnv {
					build := authtext.NewOwner
					if shards > 0 {
						build = func(docs []authtext.Document, opts ...authtext.Option) (*authtext.Owner, error) {
							return authtext.NewShardedOwner(docs, shards, opts...)
						}
					}
					owner := must(build(liveRemoteDocs(0, matrixDocs), ownerOpts...))(t)
					srv, own := owner.Server(), authtext.NewVOCache(1<<20)
					srv.SetVOCache(own)
					return matrixEnv{handler: authtext.NewHTTPHandler(srv, must(owner.ExportClient())(t), opts...),
						documents: matrixDocs, ownCache: own, server: owner.Server}
				}},
			matrixShape{name: "live" + suffix, shards: shards, adminStatus: http.StatusOK,
				build: func(t *testing.T, ownerOpts []authtext.Option, opts ...authtext.HandlerOption) matrixEnv {
					owner := matrixLiveOwner(t, shards, ownerOpts...)
					return matrixEnv{handler: must(owner.HTTPHandler(opts...))(t),
						documents: matrixDocs - 1, generation: 2,
						advance: func(t *testing.T) { must(owner.RemoveDocuments(owner.Handles()[0]))(t) },
						server:  owner.Server}
				}},
			matrixShape{name: "replica" + suffix, shards: shards, adminStatus: http.StatusForbidden,
				build: func(t *testing.T, ownerOpts []authtext.Option, opts ...authtext.HandlerOption) matrixEnv {
					owner, dir := matrixLiveOwner(t, shards, ownerOpts...), t.TempDir()
					must(owner.WriteSnapshotDir(dir))(t)
					replica := must(authtext.OpenLiveSnapshotDir(dir))(t)
					return matrixEnv{handler: must(replica.HTTPHandler(opts...))(t),
						documents: matrixDocs - 1, generation: 2, server: replica.Server,
						advance: func(t *testing.T) {
							must(owner.RemoveDocuments(owner.Handles()[0]))(t)
							must(owner.WriteSnapshotDir(dir))(t)
							if swapped := must(replica.Reload())(t); !swapped {
								t.Fatal("reload did not swap")
							}
						}}
				}})
	}
	return shapes
}()

// matrixSearch runs one verified search through rc: the generation that
// answered and the number of hits.
func matrixSearch(rc *authtext.RemoteClient) (uint64, int, error) {
	res, err := rc.Search(context.Background(), matrixQuery, matrixR, authtext.TNRA, authtext.ChainMHT)
	if err != nil {
		return 0, 0, err
	}
	return res.Generation, len(res.Hits), nil
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

func TestHandlerShapeMatrix(t *testing.T) {
	for _, shape := range matrixShapes {
		t.Run(shape.name, func(t *testing.T) {
			t.Run("variant not built", func(t *testing.T) { matrixVariantNotBuilt(t, shape) })
			t.Run("dictionary mode", func(t *testing.T) { matrixRows(t, shape, true) })
			matrixRows(t, shape, false)
		})
	}
}

// swapTermNames relabels the first two term proofs of a VO as each other:
// each list answers for the other term. A VO with fewer than two term proofs
// (or none at all) is left as it is, and reported unchanged.
func swapTermNames(raw []byte) ([]byte, bool) {
	v, err := vo.Decode(raw)
	if err != nil || len(v.Terms) < 2 {
		return raw, false
	}
	v.Terms[0].Name, v.Terms[1].Name = v.Terms[1].Name, v.Terms[0].Name
	enc, _, err := vo.Encode(v, 16)
	if err != nil {
		return raw, false
	}
	return enc, true
}

// matrixRows checks one shape, built in dictionary mode or with per-list
// signatures, on every row of the matrix but the variant-not-built column.
func matrixRows(t *testing.T, shape matrixShape, dict bool) {
	var ownerOpts []authtext.Option
	// A relabelled list fails the signature over its name in list mode, the
	// dictionary leaf that binds its name in dictionary mode.
	relabelled := core.CodeBadSignature
	if dict {
		ownerOpts = []authtext.Option{authtext.WithDictionaryMode()}
		relabelled = core.CodeBadTermProof
	}
	optCache := authtext.NewVOCache(2 << 20)
	env := shape.build(t, ownerOpts, authtext.WithVOCache(optCache))
	searchPath, manifestPath := httpapi.PathSearch, httpapi.PathManifest
	if shape.shards > 0 {
		searchPath, manifestPath = httpapi.PathShardSearch, httpapi.PathShardManifest
	}
	searchBody := `{"query":"` + matrixQuery + `","r":3}`

	// A cache hit is byte-identical to the miss that filled it, on both
	// codecs (first: these are the handler's first two queries).
	for _, accept := range []string{"", wire.ContentType} {
		miss := matrixDo(env.handler, http.MethodPost, searchPath, searchBody, accept)
		hit := matrixDo(env.handler, http.MethodPost, searchPath, searchBody, accept)
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

	// Honest answers verify through the matching client, over binary
	// frames (the client's preference) and over JSON.
	for codec, h := range map[string]http.Handler{"binary": env.handler, "json": stripAccept(env.handler)} {
		var frames atomic.Int64
		ts := httptest.NewServer(countFrames(h, &frames))
		rc := must(authtext.NewRemoteClient(ts.URL))(t)
		gen, hits, err := matrixSearch(rc)
		if err != nil || hits == 0 {
			t.Fatalf("%s: honest search: %d hits, err %v", codec, hits, err)
		}
		if (frames.Load() > 0) != (codec == "binary") {
			t.Fatalf("%s: %d frames served", codec, frames.Load())
		}
		if gen != env.generation || rc.Generation() != env.generation {
			t.Fatalf("%s: answered generation %d, client holds %d, want %d", codec, gen, rc.Generation(), env.generation)
		}
		health := must(rc.Health(context.Background()))(t)
		if health.Status != "ok" || health.Documents != env.documents || health.Terms == 0 ||
			health.Shards != shape.shards || health.Generation != env.generation {
			t.Fatalf("%s: healthz %+v, want %d documents, %d shards, generation %d",
				codec, health, env.documents, shape.shards, env.generation)
		}
		if rc.Shards() != shape.shards {
			t.Fatalf("%s: the client verifies %d shards, want %d", codec, rc.Shards(), shape.shards)
		}
		ts.Close()
	}
	// A fleet front end relays the frames untouched.
	var relayed atomic.Int64
	backend := httptest.NewServer(countFrames(env.handler, &relayed))
	fe := must(authtext.NewFrontend([]string{backend.URL}))(t)
	fes := httptest.NewServer(fe)
	if _, hits, err := matrixSearch(must(authtext.NewRemoteClient(fes.URL))(t)); err != nil || hits == 0 || relayed.Load() == 0 {
		t.Fatalf("through a front end: %d hits, %d frames relayed, err %v", hits, relayed.Load(), err)
	}
	fes.Close()
	fe.Close()
	backend.Close()

	// Healthz reports the EFFECTIVE cache.
	var health httpapi.Health
	rec := matrixDo(env.handler, http.MethodGet, httpapi.PathHealthz, "", "")
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
	case http.StatusForbidden:
		probes = append(probes, probe{http.MethodPost, httpapi.PathAdminUpdate, updateBody, http.StatusForbidden,
			httpapi.CodeUpdateFailed, "this replica is serving-only; apply updates at the owner"})
	}
	for _, p := range probes {
		rec := matrixDo(env.handler, p.method, p.target, p.body, "")
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
		if envl.Error.Code != p.code || envl.Error.Message != p.message {
			t.Fatalf("%s: error %+v, want %s %q", p.target, envl.Error, p.code, p.message)
		}
	}

	// In-transit tampering — one VO flip, two term proofs relabelled as
	// each other — classifies as tampering, identically by a cold
	// client and by one whose signature memo honest answers warmed. On a
	// shard set only the first shard the mutation changes is forged; the
	// others stay honest.
	for _, row := range []struct {
		name   string
		mutate func([]byte) ([]byte, bool)
		want   core.VerifyCode // VerifyOK: any tampering code
	}{
		{"flipped VO", func(vo []byte) ([]byte, bool) { vo[len(vo)/2] ^= 0x40; return vo, true }, core.VerifyOK},
		{"relabelled term proofs", swapTermNames, relabelled},
	} {
		var armed atomic.Bool
		apply := func(vo []byte) ([]byte, bool) {
			if armed.Load() {
				return row.mutate(vo)
			}
			return vo, false
		}
		tampered := tamperingProxy(env.handler, func(r *httpapi.SearchResponse) { r.VO, _ = apply(r.VO) })
		if shape.shards > 0 {
			tampered = tamperingProxy(env.handler, func(r *httpapi.ShardedSearchResponse) {
				for i := range r.Shards {
					var changed bool
					if r.Shards[i].VO, changed = apply(r.Shards[i].VO); changed {
						return
					}
				}
			})
		}
		ts := httptest.NewServer(tampered)
		var codes [2]core.VerifyCode
		for i, warm := range []bool{false, true} {
			armed.Store(false)
			rc := must(authtext.NewRemoteClient(ts.URL))(t)
			if warm {
				if _, hits, err := matrixSearch(rc); err != nil || hits == 0 {
					t.Fatalf("honest warm-up: %d hits, err %v", hits, err)
				}
			}
			armed.Store(true)
			_, _, err := matrixSearch(rc)
			if !authtext.IsTampered(err) || (row.want != core.VerifyOK && core.CodeOf(err) != row.want) {
				t.Fatalf("warm=%v: %s classified as %v", warm, row.name, err)
			}
			codes[i] = core.CodeOf(err)
		}
		ts.Close()
		if codes[0] != codes[1] {
			t.Fatalf("%s classified %v by a cold client, %v by a warm one", row.name, codes[0], codes[1])
		}
	}

	if env.advance == nil {
		return // a static shape has no generation to be rolled back from
	}

	// The owner accepts an update batch over HTTP and serves its result.
	if shape.adminStatus == http.StatusOK {
		rec := matrixDo(env.handler, http.MethodPost, httpapi.PathAdminUpdate, updateBody, "")
		var upd httpapi.UpdateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &upd); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("admin update: %d %s", rec.Code, rec.Body.String())
		}
		if upd.Generation != env.generation+1 || upd.Documents != env.documents+1 {
			t.Fatalf("admin update answered %+v", upd)
		}
		env.generation++
	}

	// One rolled-back generation: the client has accepted generation
	// g+1, then is replayed an honest answer of generation g. Stale,
	// and still stale after the retry budget.
	stale := matrixDo(env.handler, http.MethodPost, searchPath, searchBody, "")
	pinned := env.server()
	env.advance(t)

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
	var replay atomic.Bool
	rolledBack := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if replay.Load() && r.URL.Path == searchPath {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(stale.Body.Bytes())
			return
		}
		stripAccept(env.handler).ServeHTTP(w, r)
	}))
	defer rolledBack.Close()
	rc := must(authtext.NewRemoteClient(rolledBack.URL))(t)
	gen, _, err := matrixSearch(rc)
	if err != nil || gen != env.generation+1 {
		t.Fatalf("search after advance: generation %d, err %v", gen, err)
	}
	replay.Store(true)
	export := matrixDo(env.handler, http.MethodGet, manifestPath, "", "")
	var m httpapi.ManifestResponse
	if err := json.Unmarshal(export.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	_, _, err = matrixSearch(must(authtext.NewRemoteClient(rolledBack.URL, authtext.WithClientExport(m.Export)))(t))
	if !errors.Is(err, authtext.ErrStaleGeneration) || !authtext.IsTampered(err) {
		t.Fatalf("replayed generation %d to a client at %d classified as %v", env.generation, rc.Generation(), err)
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
	searchPath := httpapi.PathSearch
	if shape.shards > 0 {
		searchPath = httpapi.PathShardSearch
	}
	notBuilt := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, authtext.ErrVariantNotBuilt) || authtext.IsTampered(err) {
			t.Fatalf("%s: TRA-CMHT on a TNRA-CMHT build: %v, want ErrVariantNotBuilt and not tampering", what, err)
		}
	}

	srv := env.server()
	_, err := srv.Search(matrixQuery, matrixR, authtext.TRA, authtext.ChainMHT)
	notBuilt("Server.Search", err)

	// The wire: 422 variant_not_built, and healthz names the set.
	rec := matrixDo(env.handler, http.MethodPost, searchPath, `{"query":"`+matrixQuery+`","algo":"tra"}`, "")
	var envl httpapi.ErrorResponse
	if rec.Code != http.StatusUnprocessableEntity || json.Unmarshal(rec.Body.Bytes(), &envl) != nil ||
		envl.Error.Code != httpapi.CodeVariantNotBuilt {
		t.Fatalf("TRA-CMHT over /v1: %d %s", rec.Code, rec.Body.String())
	}
	var health httpapi.Health
	if err := json.Unmarshal(matrixDo(env.handler, http.MethodGet, httpapi.PathHealthz, "", "").Body.Bytes(), &health); err != nil ||
		len(health.Variants) != 1 || health.Variants[0] != "tnra-cmht" {
		t.Fatalf("healthz variants %v (err %v)", health.Variants, err)
	}

	// Remote: the refusal comes from the verified manifest; no search is sent.
	var searches atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == searchPath {
			searches.Add(1)
		}
		env.handler.ServeHTTP(w, r)
	}))
	defer ts.Close()
	for _, warm := range []bool{false, true} {
		rc := must(authtext.NewRemoteClient(ts.URL))(t)
		before := searches.Load()
		if warm {
			if _, hits, err := matrixSearch(rc); err != nil || hits == 0 {
				t.Fatalf("honest warm-up: %d hits, err %v", hits, err)
			}
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
	var lie atomic.Int32 // 1: refuse the listed variant, 2: relabel the VO TNRA-MHT
	refusing := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if lie.Load() == 1 && r.URL.Path == searchPath {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnprocessableEntity)
			_ = json.NewEncoder(w).Encode(&httpapi.ErrorResponse{Error: httpapi.ErrorBody{
				Code: httpapi.CodeVariantNotBuilt, Message: "variant tnra-cmht is not built"}})
			return
		}
		env.handler.ServeHTTP(w, r)
	})
	relabel := func(raw []byte) []byte {
		if lie.Load() != 2 {
			return raw
		}
		v := must(vo.Decode(raw))(t)
		v.Scheme = uint8(core.SchemeMHT)
		enc, _, err := vo.Encode(v, 16)
		if err != nil {
			t.Error(err)
		}
		return enc
	}
	proxy := tamperingProxy(refusing, func(r *httpapi.SearchResponse) { r.VO = relabel(r.VO) })
	if shape.shards > 0 {
		proxy = tamperingProxy(refusing, func(r *httpapi.ShardedSearchResponse) { r.Shards[0].VO = relabel(r.Shards[0].VO) })
	}
	lying := httptest.NewServer(proxy)
	defer lying.Close()
	for mode, want := range map[int32]core.VerifyCode{1: core.CodeVariantWithheld, 2: core.CodeMalformedVO} {
		for _, warm := range []bool{false, true} {
			lie.Store(0)
			rc := must(authtext.NewRemoteClient(lying.URL))(t)
			if warm {
				if _, hits, err := matrixSearch(rc); err != nil || hits == 0 {
					t.Fatalf("honest warm-up: %d hits, err %v", hits, err)
				}
			}
			lie.Store(mode)
			_, _, err := matrixSearch(rc)
			if !authtext.IsTampered(err) || core.CodeOf(err) != want || errors.Is(err, authtext.ErrVariantNotBuilt) {
				t.Fatalf("lie %d, warm=%v: classified as %v, want %v", mode, warm, err, want)
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
