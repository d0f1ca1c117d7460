package authtext

import "testing"

// The benchmarked path: a static handler adopts its cache and registry at
// construction, so pinning the (only) generation per request is free — no
// per-request Server copy, unlike the live sources.
func TestStaticSourcePinDoesNotAllocate(t *testing.T) {
	o := owner(t)
	cache, metrics := NewVOCache(1<<20), NewMetrics()
	src := &staticSource{srv: o.Server()}
	src.adopt(cache, metrics)
	b := &backend{src: src, opts: handlerOptions{cache: cache, metrics: metrics}}
	if b.pin().cache != cache {
		t.Fatal("the adopted cache is not the one served through")
	}
	if n := testing.AllocsPerRun(100, func() { _ = b.pin() }); n != 0 {
		t.Fatalf("static pin allocates %.0f times per request", n)
	}
}
