package httpapi

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"net/http"
	"strings"
	"testing"

	"authtext/internal/wire"
)

// FuzzHeldSummary feeds hostile HeldHeader values — NUL separates header
// lines — to the handler's summary parser, and frames a search answer with
// the encoding the handler derives from the request (encoding). The
// invariants: no panic; a value the parser accepts is the one canonical
// spelling of a fixed-size summary (it re-encodes to itself, so the parse
// did bounded work), sent on one header line; an ignored value — oversized,
// malformed, repeated — leaves the frame byte for byte the frame of a
// request that sent none, every body in full; and an accepted summary that
// holds the hit's digest gets the hit as a reference.
func FuzzHeldSummary(f *testing.F) {
	body := []byte("a body the client holds")
	sum := sha256.Sum256(body)
	digest := sum[:16]
	var store wire.BodyStore
	store.Keep([]wire.HeldBody{{Digest: digest, Body: body}})
	valid, _ := store.Held()
	f.Add([]byte(valid))
	f.Add([]byte{})
	f.Add([]byte(valid[:len(valid)-1]))
	f.Add([]byte(valid + "A"))
	f.Add([]byte(valid[:len(valid)-1] + "B")) // spare bits set
	f.Add([]byte(strings.Repeat("_", len(valid))))
	f.Add([]byte(strings.Repeat("+", len(valid))))
	f.Add([]byte(valid + "\x00" + valid))

	answer := &SearchResponse{Query: "merkle", R: 1, Algo: AlgoTNRA, Scheme: SchemeCMHT,
		Hits: []Hit{{DocID: 7, Score: 1.5, Content: body, Digest: digest}}, VO: []byte{0xde, 0xad}}
	search := func(values []string) (*http.Request, []byte) {
		req := &http.Request{Header: http.Header{"Accept": {FrameContentType}}}
		for _, v := range values {
			req.Header.Add(HeldHeader, v)
		}
		return req, encoding(req, nil).SearchResponse(answer)
	}
	_, plain := search(nil)

	f.Fuzz(func(t *testing.T, raw []byte) {
		values := strings.Split(string(raw), "\x00")
		req, frame := search(values)
		parsed := heldSummary(req)
		if parsed != nil && (len(values) != 1 || parsed.String() != values[0]) {
			t.Fatalf("accepted %d header lines of %d bytes that are not one canonical summary", len(values), len(raw))
		}
		refs := binary.BigEndian.Uint16(frame[6:])&(1<<3) != 0
		switch {
		case !parsed.Has(digest) && !bytes.Equal(frame, plain):
			t.Fatal("a summary that does not hold the body changed the answer")
		case parsed.Has(digest) && !refs:
			t.Fatal("a summary that holds the body did not get it as a reference")
		}
	})
}
