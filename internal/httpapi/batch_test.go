package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// batchBackend extends fakeBackend with a concurrent-capable batch hook so
// the handler's Endpoints.SearchBatch dispatch is observable.
type batchBackend struct {
	fakeBackend
	batchCalls int
}

func (b *batchBackend) SearchBatch(reqs []SearchRequest) []BatchSearchResult {
	b.batchCalls++
	out := make([]BatchSearchResult, len(reqs))
	for i := range reqs {
		resp, err := b.Search(&reqs[i])
		out[i] = BatchOutcome(resp, err)
	}
	return out
}

func TestBatchSearchFallsBackWithoutBatchBackend(t *testing.T) {
	b := &fakeBackend{}
	h := NewHandler(b)
	w := do(t, h, http.MethodPost, PathSearch, `{"queries":[{"query":"alpha"},{"query":"beta","r":3}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp BatchSearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("%d results", len(resp.Results))
	}
	for i, res := range resp.Results {
		if res.Error != nil || res.Response == nil {
			t.Fatalf("result %d: %+v", i, res)
		}
	}
	if resp.Results[1].Response.R != 3 || resp.Results[0].Response.R != DefaultR {
		t.Fatalf("r not preserved/defaulted: %+v", resp.Results)
	}
}

func TestBatchSearchUsesBatchBackend(t *testing.T) {
	b := &batchBackend{}
	h := NewHandler(b, WithEndpoints(Endpoints{SearchBatch: b.SearchBatch}))
	w := do(t, h, http.MethodPost, PathSearch, `{"queries":[{"query":"alpha"},{"query":"beta"}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if b.batchCalls != 1 {
		t.Fatalf("batch backend called %d times", b.batchCalls)
	}
}

func TestBatchSearchPerQueryErrorsDoNotFailBatch(t *testing.T) {
	b := &batchBackend{}
	b.searchErr = errors.New("boom")
	h := NewHandler(b, WithEndpoints(Endpoints{SearchBatch: b.SearchBatch}))
	w := do(t, h, http.MethodPost, PathSearch, `{"queries":[{"query":"alpha"}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 with per-query error", w.Code)
	}
	var resp BatchSearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Error == nil || resp.Results[0].Error.Code != CodeSearchFailed {
		t.Fatalf("bad batch error: %+v", resp.Results)
	}
}

func TestBatchSearchValidation(t *testing.T) {
	b := &fakeBackend{}
	h := NewHandler(b)

	// query and queries are mutually exclusive.
	w := do(t, h, http.MethodPost, PathSearch, `{"query":"x","queries":[{"query":"y"}]}`)
	wantError(t, w, http.StatusBadRequest, CodeBadRequest)

	// Per-query validation failures name the offending index.
	w = do(t, h, http.MethodPost, PathSearch, `{"queries":[{"query":"ok"},{"query":""}]}`)
	wantError(t, w, http.StatusBadRequest, CodeBadRequest)
	if !strings.Contains(w.Body.String(), "query 1") {
		t.Fatalf("error does not name the bad query: %s", w.Body.String())
	}

	// Oversized batches are rejected outright.
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i <= MaxBatchQueries; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"query":"q%d"}`, i)
	}
	sb.WriteString(`]}`)
	w = do(t, h, http.MethodPost, PathSearch, sb.String())
	wantError(t, w, http.StatusBadRequest, CodeBadRequest)

	// An empty queries array is not a batch: it falls through to single
	// validation and fails on the empty query string.
	w = do(t, h, http.MethodPost, PathSearch, `{"queries":[]}`)
	wantError(t, w, http.StatusBadRequest, CodeBadRequest)
}

// A maximum batch — MaxBatchQueries queries of MaxQueryBytes each — must
// fit under MaxBodyBytes: per-element limits, not body truncation, are
// what bound a request.
func TestMaxBatchFitsBodyCap(t *testing.T) {
	b := &batchBackend{}
	h := NewHandler(b, WithEndpoints(Endpoints{SearchBatch: b.SearchBatch}))
	q := strings.Repeat("a", MaxQueryBytes)
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i < MaxBatchQueries; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"query":%q}`, q)
	}
	sb.WriteString(`]}`)
	w := do(t, h, http.MethodPost, PathSearch, sb.String())
	if w.Code != http.StatusOK {
		t.Fatalf("max batch rejected: %d %s", w.Code, w.Body.String()[:120])
	}
	var resp BatchSearchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != MaxBatchQueries {
		t.Fatalf("%d results", len(resp.Results))
	}
}

func TestBatchOutcomeStatusErrorKeepsCode(t *testing.T) {
	res := BatchOutcome(nil, &StatusError{Status: 404, Code: CodeNotFound, Message: "gone"})
	if res.Error == nil || res.Error.Code != CodeNotFound {
		t.Fatalf("status error code lost: %+v", res)
	}
	res = BatchOutcome(&SearchResponse{}, nil)
	if res.Error != nil || res.Response == nil {
		t.Fatalf("success outcome wrong: %+v", res)
	}
}
