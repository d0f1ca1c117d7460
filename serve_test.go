package authtext

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

// The benchmarked path: a static handler prepares its one server with the
// cache and registry at construction, so pinning the (only) generation per
// request is free — no per-request Server, unlike the live sources.
func TestStaticSourcePinDoesNotAllocate(t *testing.T) {
	cache, metrics := NewVOCache(1<<20), NewMetrics()
	o := handlerOptions{cache: cache, metrics: metrics}
	b := &backend{src: newStaticSource(owner(t).Server(), nil, &o), opts: o}
	if b.pin().cache != cache {
		t.Fatal("the handler's cache is not the one served through")
	}
	if n := testing.AllocsPerRun(100, func() { _ = b.pin() }); n != 0 {
		t.Fatalf("static pin allocates %.0f times per request", n)
	}
}

// A response body whose length the server declared is read into one buffer
// of exactly that size, and must end there; an undeclared length still
// reads under the cap.
func TestReadCappedAllocatesOnce(t *testing.T) {
	body := bytes.Repeat([]byte("frame bytes "), 500)
	var rd bytes.Reader
	resp := &http.Response{ContentLength: int64(len(body)), Body: io.NopCloser(&rd)}
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		if got, err := readCapped(resp); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("sized body read as %d bytes: %v", len(got), err)
		}
	})
	if allocs != 1 {
		t.Fatalf("reading a sized body allocates %.0f times, want 1", allocs)
	}

	rd.Reset(append(bytes.Clone(body), '!'))
	if _, err := readCapped(resp); err == nil || !strings.Contains(err.Error(), "runs past") {
		t.Fatalf("a body longer than its declared length read as %v", err)
	}
	rd.Reset(body[:len(body)-1])
	if _, err := readCapped(resp); err == nil {
		t.Fatal("a body shorter than its declared length was accepted")
	}
	resp.ContentLength = -1
	rd.Reset(body)
	if got, err := readCapped(resp); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("an undeclared length read as %d bytes: %v", len(got), err)
	}
}
