package authtext

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestServerSearchBatchMatchesSingleSearches(t *testing.T) {
	owner, err := NewOwner(snapshotTestDocs(), WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	server, client := owner.Server(), owner.Client()
	queries := []BatchQuery{
		{Query: "merkle tree root", R: 3, Algorithm: TNRA, Scheme: ChainMHT},
		{Query: "inverted index", R: 2, Algorithm: TRA, Scheme: MHT},
		{Query: "verification object", R: 4, Algorithm: TNRA, Scheme: MHT},
		{Query: "signed root digest", R: 3, Algorithm: TRA, Scheme: ChainMHT},
	}
	items := server.SearchBatch(queries, 3)
	if len(items) != len(queries) {
		t.Fatalf("%d items for %d queries", len(items), len(queries))
	}
	for i, item := range items {
		if item.Err != nil {
			t.Fatalf("query %d: %v", i, item.Err)
		}
		if err := client.Verify(queries[i].Query, queries[i].R, item.Result); err != nil {
			t.Fatalf("query %d failed verification: %v", i, err)
		}
		// A batched query must be indistinguishable from a lone one: same
		// VO bytes, same per-query stats.
		lone, err := server.Search(queries[i].Query, queries[i].R, queries[i].Algorithm, queries[i].Scheme)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lone.VO, item.Result.VO) {
			t.Errorf("query %d: batched VO differs from single-query VO", i)
		}
		if lone.Stats.BlockReads != item.Result.Stats.BlockReads ||
			lone.Stats.RandomReads != item.Result.Stats.RandomReads {
			t.Errorf("query %d: batched stats %+v differ from single-query stats %+v",
				i, item.Result.Stats, lone.Stats)
		}
	}
}

func TestServerSearchBatchPerQueryErrors(t *testing.T) {
	owner, err := NewOwner(snapshotTestDocs())
	if err != nil {
		t.Fatal(err)
	}
	server := owner.Server()
	items := server.SearchBatch([]BatchQuery{
		{Query: "merkle tree", R: 0, Algorithm: TNRA, Scheme: ChainMHT}, // r < 1 fails
		{Query: "merkle tree", R: 2, Algorithm: TNRA, Scheme: ChainMHT},
	}, 0)
	if items[0].Err == nil {
		t.Error("r=0 query did not fail")
	}
	if items[1].Err != nil {
		t.Errorf("valid query failed: %v", items[1].Err)
	}
}

func TestShardedServerSearchBatch(t *testing.T) {
	owner, err := NewShardedOwner(snapshotTestDocs(), 3,
		WithFastSigner([]byte("sharded-batch")), WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	server, client := owner.Server(), owner.Client()
	queries := []BatchQuery{
		{Query: "merkle tree", R: 3, Algorithm: TNRA, Scheme: ChainMHT},
		{Query: "inverted index", R: 2, Algorithm: TRA, Scheme: ChainMHT},
		{Query: "signed root", R: 3, Algorithm: TNRA, Scheme: MHT},
	}
	for i, item := range server.SearchBatch(queries, 2) {
		if item.Err != nil {
			t.Fatalf("query %d: %v", i, item.Err)
		}
		if err := client.Verify(queries[i].Query, queries[i].R, item.Result); err != nil {
			t.Fatalf("query %d failed verification: %v", i, err)
		}
	}
}

func TestRemoteClientSearchBatch(t *testing.T) {
	owner, err := NewOwner(snapshotTestDocs(), WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	handler, err := owner.HTTPHandler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	rc, err := NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := []BatchQuery{
		{Query: "merkle tree", R: 3, Algorithm: TNRA, Scheme: ChainMHT},
		{Query: "inverted index", R: 2, Algorithm: TRA, Scheme: MHT},
		{Query: "verification object", R: 3, Algorithm: TNRA, Scheme: MHT},
	}
	items, err := rc.SearchBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(queries) {
		t.Fatalf("%d items", len(items))
	}
	for i, item := range items {
		if item.Err != nil {
			t.Fatalf("query %d: %v", i, item.Err)
		}
		// Cross-check against a single verified search.
		lone, err := rc.Search(ctx, queries[i].Query, queries[i].R, queries[i].Algorithm, queries[i].Scheme)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lone.VO, item.Result.VO) {
			t.Errorf("query %d: batched VO differs from single-query VO", i)
		}
	}

	// Client-side limits: a bad element is caught locally (the server
	// would reject the whole batch), with the offending index named.
	if _, err := rc.SearchBatch(ctx, []BatchQuery{{Query: "x", R: 0}}); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := rc.SearchBatch(ctx, []BatchQuery{{Query: "x", R: 1}, {Query: "  ", R: 1}}); err == nil {
		t.Error("blank query accepted")
	} else if !strings.Contains(err.Error(), "query 1") {
		t.Errorf("error does not name the bad query: %v", err)
	}
	big := make([]BatchQuery, 65)
	for i := range big {
		big[i] = BatchQuery{Query: "x", R: 1}
	}
	if _, err := rc.SearchBatch(ctx, big); err == nil {
		t.Error("oversized batch accepted")
	}
	if items, err := rc.SearchBatch(ctx, nil); err != nil || items != nil {
		t.Errorf("empty batch: %v, %v", items, err)
	}
}

// Both remote clients must come with a bounded default transport, and a
// stalled server must fail the call by timeout instead of hanging the
// verifier (the server is untrusted; liveness is the client's own job).
func TestRemoteClientDefaultTimeout(t *testing.T) {
	rc, err := NewRemoteClient("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if rc.hc.Timeout != defaultHTTPTimeout {
		t.Errorf("RemoteClient default timeout = %v, want %v", rc.hc.Timeout, defaultHTTPTimeout)
	}
	src, err := NewRemoteClient("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if src.hc.Timeout != defaultHTTPTimeout {
		t.Errorf("ShardedRemoteClient default timeout = %v, want %v", src.hc.Timeout, defaultHTTPTimeout)
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
	rc, err := NewRemoteClient(srv.URL, WithHTTPClient(&http.Client{Timeout: 100 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = rc.Search(context.Background(), "anything", 2, TNRA, ChainMHT)
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
	rc, err := NewRemoteClient(srv.URL, WithHTTPClient(&http.Client{Timeout: 100 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = rc.Search(context.Background(), "anything", 2, TNRA, ChainMHT)
	if err == nil {
		t.Fatal("search against a stalled server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled server held the client for %v", elapsed)
	}
}
