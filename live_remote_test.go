package authtext_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"authtext"
	"authtext/internal/httpapi"
)

// HTTP integration for live collections: an authserved-shaped handler
// keeps serving verified queries while /v1/admin/update batches land, a
// RemoteClient advances itself across generations, and a rolled-back
// server is rejected as tampering.

func liveRemoteDocs(start, n int) []authtext.Document {
	words := []string{
		"merkle", "tree", "signature", "verification", "inverted", "index",
		"threshold", "algorithm", "random", "access", "digest", "root",
	}
	docs := make([]authtext.Document, n)
	for i := range docs {
		var b []byte
		for j := 0; j < 7; j++ {
			b = append(b, words[(start+i+j)%len(words)]...)
			b = append(b, ' ')
		}
		docs[i] = authtext.Document{Content: b}
	}
	return docs
}

func postUpdate(t *testing.T, url string, req *httpapi.UpdateRequest) (*httpapi.UpdateResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+httpapi.PathAdminUpdate, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	var out httpapi.UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp
}

func TestLiveRemoteUpdateFlow(t *testing.T) {
	owner, handles, err := authtext.NewLiveOwner(liveRemoteDocs(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	var updates int
	handler, err := owner.HTTPHandler(authtext.WithUpdateLog(func(rep *authtext.UpdateReport) { updates++ }))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	ctx := context.Background()

	rc, err := authtext.NewRemoteClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	const q = "merkle digest"
	res, err := rc.Search(ctx, q, 3, authtext.TNRA, authtext.ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 1 || rc.Generation() != 1 {
		t.Fatalf("generation 1 expected, got result %d client %d", res.Generation, rc.Generation())
	}

	// Apply an update over the wire, then search again: the client sees
	// the new generation in the response, refetches the manifest, and the
	// answer verifies.
	upd, _ := postUpdate(t, ts.URL, &httpapi.UpdateRequest{
		Add:    []httpapi.UpdateDocument{{Content: []byte("digest chains authenticate merkle verification")}},
		Remove: []uint64{uint64(handles[0])},
	})
	if upd == nil || upd.Generation != 2 {
		t.Fatalf("update response %+v", upd)
	}
	if updates != 1 {
		t.Fatalf("update log fired %d times", updates)
	}
	res2, err := rc.Search(ctx, q, 3, authtext.TNRA, authtext.ChainMHT)
	if err != nil {
		t.Fatalf("post-update search: %v", err)
	}
	if res2.Generation != 2 || rc.Generation() != 2 {
		t.Fatalf("generation 2 expected, got result %d client %d", res2.Generation, rc.Generation())
	}

	// Healthz reports the generation.
	h, err := rc.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Generation != 2 {
		t.Fatalf("healthz generation = %d", h.Generation)
	}

	// Malformed batches are the caller's fault (400), not a server error,
	// and publish nothing.
	if _, resp := postUpdate(t, ts.URL, &httpapi.UpdateRequest{}); resp == nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %+v", resp)
	}
	if _, resp := postUpdate(t, ts.URL, &httpapi.UpdateRequest{Remove: []uint64{999999}}); resp == nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-handle batch status %+v", resp)
	}
	if owner.Generation() != 2 {
		t.Fatalf("rejected batches advanced the generation to %d", owner.Generation())
	}
}

func TestLiveRemoteRollbackRejected(t *testing.T) {
	owner, _, err := authtext.NewLiveOwner(liveRemoteDocs(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	// Freeze generation 1 (server and export) before updating.
	gen1Server := owner.Server()
	gen1Export, err := owner.ExportClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := owner.Update(liveRemoteDocs(10, 2), nil); err != nil {
		t.Fatal(err)
	}
	gen2Export, err := owner.ExportClient()
	if err != nil {
		t.Fatal(err)
	}

	// A server stuck at (or rolled back to) generation 1, talking to a
	// client that already accepted generation 2: every answer is stale.
	rolledBack := httptest.NewServer(authtext.NewHTTPHandler(gen1Server, gen1Export))
	defer rolledBack.Close()
	rc, err := authtext.NewRemoteClient(rolledBack.URL, authtext.WithClientExport(gen2Export))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rc.Search(context.Background(), "merkle digest", 3, authtext.TRA, authtext.ChainMHT)
	if !errors.Is(err, authtext.ErrStaleGeneration) || !authtext.IsTampered(err) {
		t.Fatalf("rolled-back server classified as %v", err)
	}
}

func TestLiveReplicaHandlerServesAndRefusesUpdates(t *testing.T) {
	dir := t.TempDir()
	owner, _, err := authtext.NewLiveOwner(liveRemoteDocs(0, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	replica, err := authtext.OpenLiveSnapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	handler, err := replica.HTTPHandler()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	ctx := context.Background()

	rc, err := authtext.NewRemoteClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Search(ctx, "merkle digest", 3, authtext.TNRA, authtext.ChainMHT); err != nil {
		t.Fatalf("replica search: %v", err)
	}
	if rc.Generation() != 1 {
		t.Fatalf("replica client generation = %d", rc.Generation())
	}

	// The replica exposes the update endpoint but refuses to mutate.
	_, resp := postUpdate(t, ts.URL, &httpapi.UpdateRequest{
		Add: []httpapi.UpdateDocument{{Content: []byte("nope")}},
	})
	if resp == nil || resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica update status %+v", resp)
	}

	// New generation on disk → Reload → remote client follows.
	if _, _, err := owner.Update(liveRemoteDocs(8, 1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	if swapped, err := replica.Reload(); err != nil || !swapped {
		t.Fatalf("reload = (%v, %v)", swapped, err)
	}
	res, err := rc.Search(ctx, "merkle digest", 3, authtext.TNRA, authtext.ChainMHT)
	if err != nil {
		t.Fatalf("post-reload search: %v", err)
	}
	if res.Generation != 2 || rc.Generation() != 2 {
		t.Fatalf("post-reload generations: result %d client %d", res.Generation, rc.Generation())
	}
}

func TestLiveShardedRemoteGenerations(t *testing.T) {
	owner, _, err := authtext.NewLiveShardedOwner(liveRemoteDocs(0, 16), 2,
		authtext.WithShardPartitioner(authtext.PartitionHash))
	if err != nil {
		t.Fatal(err)
	}
	handler, err := owner.HTTPHandler()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	ctx := context.Background()

	rc, err := authtext.NewRemoteClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	const q = "merkle digest"
	res, err := rc.Search(ctx, q, 3, authtext.TNRA, authtext.ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 1 || rc.Generation() != 1 {
		t.Fatalf("set generation 1 expected, got result %d client %d", res.Generation, rc.Generation())
	}

	upd, _ := postUpdate(t, ts.URL, &httpapi.UpdateRequest{
		Add: []httpapi.UpdateDocument{{Content: []byte("digest chains authenticate merkle verification")}},
	})
	if upd == nil || upd.Generation != 2 {
		t.Fatalf("sharded update response %+v", upd)
	}
	res2, err := rc.Search(ctx, q, 3, authtext.TNRA, authtext.ChainMHT)
	if err != nil {
		t.Fatalf("post-update sharded search: %v", err)
	}
	if res2.Generation != 2 || rc.Generation() != 2 {
		t.Fatalf("set generation 2 expected, got result %d client %d", res2.Generation, rc.Generation())
	}
}
