package authtext_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"authtext"
	"authtext/internal/httpapi"
)

// TestRemoteConnectionReuse is the regression fence around the tuned
// default transport: a verifier's traffic shape is many small
// request/response pairs against one host, and the default
// http.Transport's 2-idle-conns-per-host cap silently turns that into a
// redial (and TLS re-handshake) per burst. The test drives a sequence of
// searches through one RemoteClient and requires that after the first
// request every connection obtained is a reused one.
func TestRemoteConnectionReuse(t *testing.T) {
	handler, _ := remoteEnv(t)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := authtext.NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}

	var gets, reused atomic.Int64
	trace := &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			gets.Add(1)
			if info.Reused {
				reused.Add(1)
			}
		},
	}
	ctx := httptrace.WithClientTrace(context.Background(), trace)

	// First call bootstraps the manifest and then searches — the very
	// first connection is necessarily fresh; everything after it must
	// come from the idle pool.
	const rounds = 8
	for i := 0; i < rounds; i++ {
		if _, err := rc.Search(ctx, remoteQuery, remoteR, authtext.TNRA, authtext.ChainMHT); err != nil {
			t.Fatalf("search %d failed: %v", i, err)
		}
	}
	g, ru := gets.Load(), reused.Load()
	if g < rounds {
		t.Fatalf("saw %d connections for %d searches", g, rounds)
	}
	if fresh := g - ru; fresh > 1 {
		t.Fatalf("%d of %d connections were fresh dials; the tuned transport must reuse after the first", fresh, g)
	}
}

// Both remote clients must come with a bounded default transport, and a
// stalled server must fail the call by timeout instead of hanging the
// verifier (the server is untrusted; liveness is the client's own job).
func TestRemoteClientDefaultTimeout(t *testing.T) {
	rc, err := authtext.NewRemoteClient("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if rc.HTTPTimeoutForTest() != authtext.DefaultHTTPTimeoutForTest {
		t.Errorf("RemoteClient default timeout = %v, want %v", rc.HTTPTimeoutForTest(), authtext.DefaultHTTPTimeoutForTest)
	}
	src, err := authtext.NewRemoteClient("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if src.HTTPTimeoutForTest() != authtext.DefaultHTTPTimeoutForTest {
		t.Errorf("ShardedRemoteClient default timeout = %v, want %v", src.HTTPTimeoutForTest(), authtext.DefaultHTTPTimeoutForTest)
	}
}

// stalledServer accepts requests and never answers until the client gives
// up (the handler returns when the request context is cancelled).
func stalledServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestRemoteClientStalledServerTimesOut(t *testing.T) {
	srv := stalledServer(t)
	rc, err := authtext.NewRemoteClient(srv.URL, authtext.WithHTTPClient(&http.Client{Timeout: 100 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = rc.Search(context.Background(), "anything", 2, authtext.TNRA, authtext.ChainMHT)
	if err == nil {
		t.Fatal("search against a stalled server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled server held the client for %v", elapsed)
	}
	if !strings.Contains(err.Error(), "Client.Timeout") && !strings.Contains(err.Error(), "deadline") {
		t.Errorf("error does not look like a timeout: %v", err)
	}
}

func TestShardedRemoteClientStalledServerTimesOut(t *testing.T) {
	srv := stalledServer(t)
	rc, err := authtext.NewRemoteClient(srv.URL, authtext.WithHTTPClient(&http.Client{Timeout: 100 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = rc.Search(context.Background(), "anything", 2, authtext.TNRA, authtext.ChainMHT)
	if err == nil {
		t.Fatal("search against a stalled server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled server held the client for %v", elapsed)
	}
}

// cappedEnv serves the remote fixture's collection behind a handler of its
// own (so its counters are this test's alone), directly and through a fleet
// front end, and returns the two base URLs.
func cappedEnv(t *testing.T) (direct, frontend string) {
	t.Helper()
	_, export := remoteEnv(t)
	backend := httptest.NewServer(authtext.NewHTTPHandler(remoteFixture.owner.Server(), export))
	t.Cleanup(backend.Close)
	fe, err := authtext.NewFrontend([]string{backend.URL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fe.Close)
	front := httptest.NewServer(fe)
	t.Cleanup(front.Close)
	return backend.URL, front.URL
}

// The body cap fits one query of MaxQueryBytes however the client's JSON
// encoder escapes it: RemoteClient's json.Marshal writes every '<' as the
// six bytes \u003c. Such a query is answered and verifies, directly and
// through a front end; one byte more is refused by the query-length check,
// never by body truncation.
func TestWorstCaseQueryFitsBodyCap(t *testing.T) {
	direct, frontend := cappedEnv(t)
	run := strings.Repeat("<", 60)
	var b strings.Builder
	for i := 0; b.Len() < httpapi.MaxQueryBytes; i++ {
		b.WriteString(strings.Fields(remoteQuery)[i%3])
		b.WriteString(run)
	}
	query := b.String()[:httpapi.MaxQueryBytes]
	body, err := json.Marshal(&httpapi.SearchRequest{Query: query, R: remoteR, Algo: httpapi.AlgoTNRA, Scheme: httpapi.SchemeCMHT})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) < 5*httpapi.MaxQueryBytes || len(body) > httpapi.MaxBodyBytes {
		t.Fatalf("worst-case body is %d bytes; want above %d and within the %d-byte cap",
			len(body), 5*httpapi.MaxQueryBytes, httpapi.MaxBodyBytes)
	}
	ctx := context.Background()
	for name, url := range map[string]string{"direct": direct, "front end": frontend} {
		rc, err := authtext.NewRemoteClient(url)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rc.Search(ctx, query, remoteR, authtext.TNRA, authtext.ChainMHT)
		if err != nil {
			t.Fatalf("%s: %d-byte query: %v", name, len(query), err)
		}
		if len(res.Hits) == 0 {
			t.Fatalf("%s: the worst-case query matched nothing", name)
		}
		_, err = rc.Search(ctx, query+"<", remoteR, authtext.TNRA, authtext.ChainMHT)
		var se *httpapi.StatusError
		if !errors.As(err, &se) || se.Status != http.StatusBadRequest || !strings.Contains(se.Message, "query exceeds") {
			t.Fatalf("%s: %d-byte query: %v, want 400 from the query-length check", name, len(query)+1, err)
		}
	}
}

// A peer still speaking the retired batch form gets a plain 400 for the
// unknown field, directly and through a front end, and no query is counted.
func TestBatchBodyIsRefused(t *testing.T) {
	direct, frontend := cappedEnv(t)
	const batch = `{"queries":[{"query":"` + remoteQuery + `","r":3}]}`
	for name, url := range map[string]string{"direct": direct, "front end": frontend} {
		resp, err := http.Post(url+httpapi.PathSearch, "application/json", strings.NewReader(batch))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var env httpapi.ErrorResponse
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(msg, &env) != nil ||
			env.Error.Code != httpapi.CodeBadRequest || !strings.Contains(env.Error.Message, "unknown field") {
			t.Fatalf("%s: batch body answered %d %s, want 400 bad_request for the unknown field", name, resp.StatusCode, msg)
		}
	}
	rc, err := authtext.NewRemoteClient(direct)
	if err != nil {
		t.Fatal(err)
	}
	h, err := rc.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.QueriesServed != 0 || h.QueriesFailed != 0 {
		t.Fatalf("refused batches counted: %d served, %d failed", h.QueriesServed, h.QueriesFailed)
	}
}
