package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"authtext/internal/wire"
)

type fakeBackend struct {
	lastReq   *SearchRequest
	searchErr error
	exportErr error
	// dict and content, when set, are the dictionary answers come with
	// and the body of their one hit.
	dict    *wire.Dictionary
	content []byte
	// noCap makes the backend serve no proof caps.
	noCap bool
	// digest is the content digest of the hit, for held-body references.
	digest []byte
}

func (f *fakeBackend) Search(req *SearchRequest) (*SearchResponse, *wire.Dictionary, error) {
	f.lastReq = req
	if f.searchErr != nil {
		return nil, nil, f.searchErr
	}
	content := f.content
	if content == nil {
		content = []byte("body")
	}
	return &SearchResponse{
		Query: req.Query, R: req.R, Algo: req.Algo, Scheme: req.Scheme,
		Hits: []Hit{{DocID: 7, Score: 1.5, Content: content, Digest: f.digest}},
		VO:   []byte{0xde, 0xad},
	}, f.dict, nil
}

func (f *fakeBackend) ClientExport(cap int) ([]byte, []byte, error) {
	if f.exportErr != nil {
		return nil, nil, f.exportErr
	}
	if cap == 0 || f.noCap {
		return []byte("ATCXblob"), nil, nil
	}
	return []byte("ATCXblob"), []byte{byte(cap), 0xca, 0xfe}, nil
}

func (f *fakeBackend) Health() Health {
	return Health{Status: "ok", Documents: 3, Terms: 9}
}

func do(t *testing.T, h http.Handler, method, target string, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, target, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s %s: Content-Type = %q", method, target, ct)
	}
	return w
}

func wantError(t *testing.T, w *httptest.ResponseRecorder, status int, code string) {
	t.Helper()
	if w.Code != status {
		t.Fatalf("status = %d, want %d (body %s)", w.Code, status, w.Body)
	}
	var env ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("error body is not an envelope: %v", err)
	}
	if env.Error.Code != code {
		t.Fatalf("code = %q, want %q", env.Error.Code, code)
	}
}

func TestSearchPostAndGetAgree(t *testing.T) {
	b := &fakeBackend{}
	h := NewHandler(b)

	post := do(t, h, http.MethodPost, PathSearch, `{"query":"merkle tree","r":3,"algo":"TRA","scheme":"MHT"}`)
	if post.Code != http.StatusOK {
		t.Fatalf("POST status %d: %s", post.Code, post.Body)
	}
	var fromPost SearchResponse
	if err := json.Unmarshal(post.Body.Bytes(), &fromPost); err != nil {
		t.Fatal(err)
	}

	get := do(t, h, http.MethodGet, PathSearch+"?q=merkle+tree&r=3&algo=TRA&scheme=MHT", "")
	if get.Code != http.StatusOK {
		t.Fatalf("GET status %d: %s", get.Code, get.Body)
	}
	var fromGet SearchResponse
	if err := json.Unmarshal(get.Body.Bytes(), &fromGet); err != nil {
		t.Fatal(err)
	}

	if fromPost.Algo != AlgoTRA || fromPost.Scheme != SchemeMHT {
		t.Fatalf("names not normalised: %+v", fromPost)
	}
	if fromPost.Query != fromGet.Query || fromPost.R != fromGet.R ||
		fromPost.Algo != fromGet.Algo || fromPost.Scheme != fromGet.Scheme {
		t.Fatalf("POST %+v and GET %+v disagree", fromPost, fromGet)
	}
	if len(fromGet.Hits) != 1 || fromGet.Hits[0].DocID != 7 || string(fromGet.Hits[0].Content) != "body" {
		t.Fatalf("hits did not round-trip: %+v", fromGet.Hits)
	}
	if !bytes.Equal(fromGet.VO, []byte{0xde, 0xad}) {
		t.Fatalf("VO did not round-trip: %x", fromGet.VO)
	}
}

func TestSearchDefaults(t *testing.T) {
	b := &fakeBackend{}
	h := NewHandler(b)
	w := do(t, h, http.MethodPost, PathSearch, `{"query":"x"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if b.lastReq.R != DefaultR || b.lastReq.Algo != AlgoTNRA || b.lastReq.Scheme != SchemeCMHT {
		t.Fatalf("defaults not applied: %+v", b.lastReq)
	}
}

func TestSearchRejectsBadRequests(t *testing.T) {
	h := NewHandler(&fakeBackend{})
	cases := []struct {
		name, method, target, body string
	}{
		{"empty query", http.MethodPost, PathSearch, `{"query":"  "}`},
		{"bad algo", http.MethodPost, PathSearch, `{"query":"x","algo":"bsearch"}`},
		{"bad scheme", http.MethodPost, PathSearch, `{"query":"x","scheme":"btree"}`},
		{"r too large", http.MethodPost, PathSearch, `{"query":"x","r":100000}`},
		{"negative r", http.MethodPost, PathSearch, `{"query":"x","r":-1}`},
		{"unknown field", http.MethodPost, PathSearch, `{"query":"x","bogus":1}`},
		{"not json", http.MethodPost, PathSearch, `hello`},
		{"long query", http.MethodPost, PathSearch, `{"query":"` + strings.Repeat("a", MaxQueryBytes+1) + `"}`},
		{"bad r param", http.MethodGet, PathSearch + "?q=x&r=many", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantError(t, do(t, NewHandler(&fakeBackend{}), c.method, c.target, c.body), http.StatusBadRequest, CodeBadRequest)
		})
	}
	_ = h
}

func TestMethodAndPathErrors(t *testing.T) {
	h := NewHandler(&fakeBackend{})
	wantError(t, do(t, h, http.MethodDelete, PathSearch, ""), http.StatusMethodNotAllowed, CodeMethodNotAllowed)
	wantError(t, do(t, h, http.MethodPost, PathHealthz, ""), http.StatusMethodNotAllowed, CodeMethodNotAllowed)
	wantError(t, do(t, h, http.MethodPost, PathManifest, ""), http.StatusMethodNotAllowed, CodeMethodNotAllowed)
	wantError(t, do(t, h, http.MethodGet, "/v2/search", ""), http.StatusNotFound, CodeNotFound)
	wantError(t, do(t, h, http.MethodGet, "/", ""), http.StatusNotFound, CodeNotFound)
}

func TestBackendErrorMapping(t *testing.T) {
	plain := &fakeBackend{searchErr: errors.New("disk on fire")}
	wantError(t, do(t, NewHandler(plain), http.MethodGet, PathSearch+"?q=x", ""),
		http.StatusInternalServerError, CodeSearchFailed)

	status := &fakeBackend{searchErr: &StatusError{Status: http.StatusBadRequest, Code: CodeBadRequest, Message: "nope"}}
	wantError(t, do(t, NewHandler(status), http.MethodGet, PathSearch+"?q=x", ""),
		http.StatusBadRequest, CodeBadRequest)

	noExport := &fakeBackend{exportErr: errors.New("HMAC collections have no public key")}
	wantError(t, do(t, NewHandler(noExport), http.MethodGet, PathManifest, ""),
		http.StatusServiceUnavailable, CodeUnavailable)
}

func TestManifestAndHealthz(t *testing.T) {
	h := NewHandler(&fakeBackend{})
	w := do(t, h, http.MethodGet, PathManifest, "")
	if w.Code != http.StatusOK {
		t.Fatalf("manifest status %d", w.Code)
	}
	var m ManifestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Format != FormatATCX || string(m.Export) != "ATCXblob" {
		t.Fatalf("manifest = %+v", m)
	}

	w = do(t, h, http.MethodGet, PathHealthz, "")
	var hp Health
	if err := json.Unmarshal(w.Body.Bytes(), &hp); err != nil {
		t.Fatal(err)
	}
	if hp.Status != "ok" || hp.Documents != 3 || hp.Terms != 9 {
		t.Fatalf("health = %+v", hp)
	}
}

func TestReadErrorResponse(t *testing.T) {
	se := ReadErrorResponse(http.StatusBadGateway, strings.NewReader(`{"error":{"code":"bad_request","message":"m"}}`))
	if se.Code != CodeBadRequest || se.Message != "m" || se.Status != http.StatusBadGateway {
		t.Fatalf("parsed = %+v", se)
	}
	se = ReadErrorResponse(http.StatusBadGateway, strings.NewReader("<html>nginx</html>"))
	if se.Code != CodeInternal || se.Status != http.StatusBadGateway {
		t.Fatalf("fallback = %+v", se)
	}
}

// A frame carries the answer's dictionary in full exactly when the request
// does not name it among the first four dictionaries of its header; JSON
// answers never carry one.
func TestFrameAttachesUnnamedDictionary(t *testing.T) {
	dict := wire.CollectionDictionary([]string{"authenticated", "merkle", "posting", "proof", "tree"})
	content := bytes.Repeat([]byte("merkle tree proof posting authenticated; "), 20)
	h := NewHandler(&fakeBackend{dict: dict, content: content})
	others := "aa,bb,cc,dd"
	for _, tc := range []struct {
		name, header string
		attached     bool
	}{
		{"no header", "", true},
		{"named", dict.ID(), false},
		{"named in capitals among others", "aa, " + strings.ToUpper(dict.ID()) + ",bb", false},
		{"named in a second header line", "", false},
		{"named fifth", others + "," + dict.ID(), true},
		{"other dictionaries", others, true},
	} {
		req := httptest.NewRequest(http.MethodGet, PathSearch+"?q=merkle", nil)
		req.Header.Set("Accept", FrameContentType)
		if tc.header != "" {
			req.Header.Set(DictionaryHeader, tc.header)
		}
		if tc.name == "named in a second header line" {
			req.Header.Add(DictionaryHeader, "aa")
			req.Header.Add(DictionaryHeader, dict.ID())
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		frame := w.Body.Bytes()
		if w.Code != http.StatusOK || len(frame) < wire.HeaderSize {
			t.Fatalf("%s: status %d", tc.name, w.Code)
		}
		if flags := frame[7]; flags&0x02 == 0 || (flags&0x04 != 0) != tc.attached {
			t.Fatalf("%s: frame flags %#x, want the dictionary named and attached=%v", tc.name, flags, tc.attached)
		}
		got, err := wire.Decoding{Held: []*wire.Dictionary{dict}}.SearchResponse(frame)
		if err != nil || !bytes.Equal(got.Hits[0].Content, content) {
			t.Fatalf("%s: frame does not decode to the answer: %v", tc.name, err)
		}
	}
	req := httptest.NewRequest(http.MethodGet, PathSearch+"?q=merkle", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Header().Get("Content-Type") != "application/json" || bytes.Contains(w.Body.Bytes(), []byte(dict.ID())) {
		t.Fatalf("a JSON answer: %s", w.Body.String())
	}
}

// TestCapRequests: a proof-cap depth outside [0, MaxCap] is a 400 with
// CodeBadCap before the backend sees anything, on the search body, the GET
// form and the manifest's ?cap=; the sharded endpoints answer uncut and
// refuse any nonzero cap; a valid one reaches the backend, and a manifest
// asked for none is byte for byte what it always was.
func TestCapRequests(t *testing.T) {
	b := &fakeBackend{}
	shardSearches := 0
	h := NewHandler(b, WithEndpoints(Endpoints{
		ShardSearch: func(req *SearchRequest) (*ShardedSearchResponse, *wire.Dictionary, error) {
			shardSearches++
			return &ShardedSearchResponse{Query: req.Query}, nil, nil
		},
		ShardExport: func() ([]byte, error) { return []byte("ATSXblob"), nil },
	}))
	refused := []struct{ name, method, target, body string }{
		{"negative cap", http.MethodPost, PathSearch, `{"query":"x","cap":-1}`},
		{"cap 17", http.MethodPost, PathSearch, `{"query":"x","cap":17}`},
		{"GET cap 17", http.MethodGet, PathSearch + "?q=x&cap=17", ""},
		{"GET cap not a number", http.MethodGet, PathSearch + "?q=x&cap=deep", ""},
		{"manifest cap 17", http.MethodGet, PathManifest + "?cap=17", ""},
		{"manifest cap -1", http.MethodGet, PathManifest + "?cap=-1", ""},
		{"sharded search cap", http.MethodPost, PathShardSearch, `{"query":"x","cap":8}`},
		{"sharded GET cap", http.MethodGet, PathShardSearch + "?q=x&cap=8", ""},
		{"sharded manifest cap", http.MethodGet, PathShardManifest + "?cap=8", ""},
	}
	for _, c := range refused {
		t.Run(c.name, func(t *testing.T) {
			b.lastReq = nil
			wantError(t, do(t, h, c.method, c.target, c.body), http.StatusBadRequest, CodeBadCap)
			if b.lastReq != nil || shardSearches != 0 {
				t.Fatal("the backend saw a refused request")
			}
		})
	}

	if w := do(t, h, http.MethodPost, PathSearch, `{"query":"x","cap":8}`); w.Code != http.StatusOK || b.lastReq.Cap != 8 {
		t.Fatalf("cap 8: status %d, backend saw %+v", w.Code, b.lastReq)
	}
	if w := do(t, h, http.MethodGet, PathSearch+"?q=x&cap=16", ""); w.Code != http.StatusOK || b.lastReq.Cap != 16 {
		t.Fatalf("GET cap 16: status %d, backend saw %+v", w.Code, b.lastReq)
	}
	if w := do(t, h, http.MethodPost, PathShardSearch, `{"query":"x","cap":0}`); w.Code != http.StatusOK || shardSearches != 1 {
		t.Fatalf("sharded search with cap 0: status %d", w.Code)
	}

	plain := do(t, h, http.MethodGet, PathManifest, "")
	if want := `{"format":"atcx","export":"QVRDWGJsb2I="}` + "\n"; plain.Body.String() != want {
		t.Fatalf("manifest without ?cap= is %q, want %q", plain.Body.String(), want)
	}
	var m ManifestResponse
	if err := json.Unmarshal(do(t, h, http.MethodGet, PathManifest+"?cap=8", "").Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Cap, []byte{8, 0xca, 0xfe}) || string(m.Export) != "ATCXblob" {
		t.Fatalf("manifest with ?cap=8: %+v", m)
	}
	b.noCap = true
	if got := do(t, h, http.MethodGet, PathManifest+"?cap=8", ""); got.Body.String() != plain.Body.String() {
		t.Fatalf("a backend without caps answered ?cap=8 with %q", got.Body.String())
	}
}
