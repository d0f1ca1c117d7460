package authtext

import "testing"

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
