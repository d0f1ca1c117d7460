package authtext

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"authtext/internal/corpus"
	"authtext/internal/httpapi"
	"authtext/internal/wire"
)

// dictionaryOwner builds a collection whose answers are long enough for
// their bodies to deflate against its collection dictionary; word is in
// every document, so two words make two vocabularies and two dictionaries.
func dictionaryOwner(t *testing.T, word string) *Owner {
	t.Helper()
	var docs []Document
	for _, d := range newsDocs() {
		docs = append(docs, Document{Content: bytes.Repeat([]byte(word+" "+string(d.Content)+". "), 8)})
	}
	o, err := NewOwner(docs)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// dictionaryRecorder serves through h, running before (when set) ahead of
// each search, and records the dictionary header of every search request
// and the dictionary flags of every search frame. A dictionary is what
// bodies sent in full deflate against, so the recorder drops the held-body
// summary of every request: each answer carries its bodies, however warm
// the client.
type dictionaryRecorder struct {
	h      http.Handler
	before func()
	mu     sync.Mutex
	named  []string // the request headers
	flags  []byte   // the frames' flags byte
}

func (d *dictionaryRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != httpapi.PathSearch {
		d.h.ServeHTTP(w, r)
		return
	}
	if d.before != nil {
		d.before()
	}
	r.Header.Del(httpapi.HeldHeader)
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, r)
	d.mu.Lock()
	d.named = append(d.named, r.Header.Get(httpapi.DictionaryHeader))
	if rec.Header().Get("Content-Type") == wire.ContentType && rec.Body.Len() >= wire.HeaderSize {
		d.flags = append(d.flags, rec.Body.Bytes()[7])
	}
	d.mu.Unlock()
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(rec.Body.Bytes())
}

// dictionaryClient serves the handler of s through a recorder and dials it.
func dictionaryClient(t *testing.T, s interface {
	HTTPHandler(...HandlerOption) (http.Handler, error)
}) (*RemoteClient, *dictionaryRecorder) {
	t.Helper()
	h, err := s.HTTPHandler()
	if err != nil {
		t.Fatal(err)
	}
	rec := &dictionaryRecorder{h: h}
	srv := httptest.NewServer(rec)
	t.Cleanup(srv.Close)
	rc, err := NewRemoteClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return rc, rec
}

const dictionaryQuery = "patent examiner portal"

// An answer that names the dictionary its request named, without carrying
// it, verifies even when the client's store evicted that dictionary while
// the answer was in flight: here five other dictionaries are installed
// between the request and its answer.
func TestRemoteDictionaryEvictedInFlight(t *testing.T) {
	o := dictionaryOwner(t, "alpha")
	rc, rec := dictionaryClient(t, o)
	ctx := context.Background()
	if _, err := rc.Search(ctx, dictionaryQuery, 3, TNRA, ChainMHT); err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("junk history for another deployment "), 30)
	rec.before = func() {
		for i := 0; i < wire.MaxHeldDictionaries+1; i++ {
			junk := wire.CollectionDictionary([]string{fmt.Sprintf("junk%d", i), "history"})
			_, dec := rc.transport.dicts.Held()
			frame := wire.Encoding{Dict: junk, Attach: true}.SearchResponse(&wire.SearchResponse{Hits: []wire.Hit{{Content: body}}})
			if _, err := dec.SearchResponse(frame); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := rc.Search(ctx, dictionaryQuery, 3, TRA, ChainMHT); err != nil {
		t.Fatalf("an honest answer naming an evicted dictionary: %v (tampered: %v)", err, IsTampered(err))
	}
	id := o.v.dict.ID()
	if len(rec.flags) != 2 || rec.flags[0]&6 != 6 || rec.flags[1]&6 != 2 || rec.named[1] != id {
		t.Fatalf("requests named %q, frames carried flags %v; want the second to name %s… and its frame not to carry it",
			rec.named, rec.flags, id[:8])
	}
	if names, _ := rc.transport.dicts.Held(); !strings.HasPrefix(names, id) {
		t.Fatalf("after the answer the client holds %q; want its dictionary most recently used", names)
	}
}

// A client names only dictionaries its own server sent: a client of
// deployment B never names deployment A's, though another client in the
// same process holds it.
func TestRemoteClientNamesOnlyItsDeploymentsDictionaries(t *testing.T) {
	a, b := dictionaryOwner(t, "alpha"), dictionaryOwner(t, "bravo")
	rcA, _ := dictionaryClient(t, a)
	rcB, recB := dictionaryClient(t, b)
	ctx := context.Background()
	for _, rc := range []*RemoteClient{rcA, rcB, rcA, rcB} {
		if _, err := rc.Search(ctx, dictionaryQuery, 3, TNRA, ChainMHT); err != nil {
			t.Fatal(err)
		}
	}
	idA, idB := a.v.dict.ID(), b.v.dict.ID()
	if idA == idB {
		t.Fatal("the two deployments share a dictionary")
	}
	if len(recB.named) != 2 || recB.named[0] != "" || recB.named[1] != idB {
		t.Fatalf("deployment B's client named %q; want nothing, then B's dictionary alone", recB.named)
	}
}

// A live owner, and a replica reloading its snapshots, keep their
// collection dictionary through a publish that adds a few terms, so a warm
// client is sent nothing again; a publish that adds more than a sixteenth
// of the vocabulary swaps it, and the client is sent the new one once.
func TestLiveDictionaryKeptThroughSmallVocabularyChange(t *testing.T) {
	var docs []Document
	for _, d := range corpus.Generate(corpus.Tiny()) {
		docs = append(docs, Document{Content: d.Content})
	}
	lo, _, err := NewLiveOwner(docs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := lo.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	replica, err := OpenLiveSnapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rc, rec := dictionaryClient(t, lo)
	query := strings.Join(strings.Fields(string(docs[0].Content))[:2], " ")
	search := func(wantFlags byte) {
		t.Helper()
		if _, err := rc.Search(context.Background(), query, 10, TNRA, ChainMHT); err != nil {
			t.Fatal(err)
		}
		if got := rec.flags[len(rec.flags)-1] & 6; got != wantFlags {
			t.Fatalf("frame dictionary flags %#x, want %#x", got, wantFlags)
		}
	}
	publish := func(terms []string) {
		t.Helper()
		text := []byte(strings.Join(terms, " ") + " " + string(docs[1].Content))
		if _, _, err := lo.Update([]Document{{Content: text}, {Content: text}}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := lo.WriteSnapshotDir(dir); err != nil {
			t.Fatal(err)
		}
		if swapped, err := replica.Reload(); err != nil || !swapped {
			t.Fatalf("replica reload: swapped %v, %v", swapped, err)
		}
	}
	search(6) // named and attached
	first, firstReplica := lo.Server().v.dict, replica.Server().v.dict
	if first.ID() != firstReplica.ID() {
		t.Fatal("the owner and its replica derive different dictionaries")
	}

	publish([]string{"freshterm1", "freshterm2"})
	if lo.Server().v.dict != first || replica.Server().v.dict != firstReplica {
		t.Fatal("a publish of two new terms swapped the dictionary")
	}
	search(2) // named, not attached

	var fresh []string
	for i := 0; i <= lo.Server().v.col.Index().M()/8; i++ {
		fresh = append(fresh, fmt.Sprintf("newterm%d", i))
	}
	publish(fresh)
	if lo.Server().v.dict == first || replica.Server().v.dict.ID() != lo.Server().v.dict.ID() {
		t.Fatal("a publish of a sixteenth of the vocabulary kept the dictionary, or the replica did not follow")
	}
	search(6)
	search(2)
}
