package httpapi

import (
	"net/http"
	"testing"
)

func TestUpdateRequestValidate(t *testing.T) {
	ok := &UpdateRequest{
		Add:    []UpdateDocument{{Content: []byte("body")}},
		Remove: []uint64{7},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	cases := map[string]*UpdateRequest{
		"empty batch":       {},
		"empty document":    {Add: []UpdateDocument{{}}},
		"too many adds":     {Add: make([]UpdateDocument, MaxUpdateDocs+1)},
		"too many removals": {Remove: make([]uint64, MaxUpdateDocs+1)},
	}
	for name, req := range cases {
		for i := range req.Add {
			if name != "empty document" {
				req.Add[i].Content = []byte("x")
			}
		}
		if err := req.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestUpdateEndpointAbsentOnStaticBackends(t *testing.T) {
	// A deployment that declares no Endpoints.Update must 404 the admin
	// path (the fake backend of the handler suite is static).
	h := NewHandler(&fakeBackend{})
	w := do(t, h, http.MethodPost, PathAdminUpdate, `{"remove":[1]}`)
	wantError(t, w, http.StatusNotFound, CodeNotFound)
}
