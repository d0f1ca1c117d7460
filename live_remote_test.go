package authtext_test

import (
	"fmt"
	"net/http"
	"testing"

	"authtext"
	"authtext/internal/httpapi"
)

// liveRemoteDocs is the small rotating-vocabulary corpus of the facade's
// live and fleet tests.
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

// TestLiveRemoteUpdateFlow: the update log reports every batch the update
// endpoint applies, and none it refuses. (Clients following the new
// generation, and refused batches publishing nothing, are the shape
// matrix's.)
func TestLiveRemoteUpdateFlow(t *testing.T) {
	owner, handles, err := authtext.NewLiveOwner(liveRemoteDocs(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	var reports []*authtext.UpdateReport
	handler := must(owner.HTTPHandler(authtext.WithUpdateLog(func(rep *authtext.UpdateReport) { reports = append(reports, rep) })))(t)
	for _, batch := range []string{
		`{}`, `{"remove":[999999]}`,
		fmt.Sprintf(`{"add":[{"content":"ZGlnZXN0IGNoYWlucw=="}],"remove":[%d]}`, handles[0]),
	} {
		matrixDo(handler, http.MethodPost, httpapi.PathAdminUpdate, batch, "")
	}
	if len(reports) != 1 || reports[0].Generation != 2 || reports[0].Added != 1 || reports[0].Removed != 1 {
		t.Fatalf("update log: %d reports, first %+v; want the one applied batch", len(reports), reports)
	}
}
