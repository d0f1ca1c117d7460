package authtext

import (
	"strconv"
	"strings"

	"authtext/internal/httpapi"
	"authtext/internal/vocache"
)

// Server-side VO cache. A published generation is immutable, so the answer
// to (normalized query terms, r, algorithm, scheme, generation) is a pure
// function — the server may replay it from memory without weakening the
// protocol one bit, because clients verify the bytes, not the server's
// diligence: a corrupted cache entry fails verification and a stale one
// classifies as ErrStaleGeneration, exactly like any other tampering
// (docs/ARCHITECTURE.md "The hot-query VO cache"). The generation is part
// of every key, so a document update invalidates the whole cache by
// construction: new queries build keys the old entries can never match,
// with no eviction logic on the hot path. Production traffic is heavily
// head-skewed (internal/workload.Zipfian models it), which is what makes
// a bounded cache absorb most of the serve load.

// VOCache is a sharded, byte-bounded LRU of complete answers (hits,
// encoded VO, stats) shared by any number of servers. One cache may back
// bare and sharded servers and their live variants at once; entries are
// shape-tagged so the two kinds of answer never collide. Safe for
// concurrent use. Attach it with the SetVOCache methods (library use) or
// WithVOCache (HTTP handlers), before serving starts.
type VOCache struct {
	c *vocache.Cache
}

// NewVOCache returns a cache bounded by maxBytes of encoded answer bytes
// (VO + delivered contents + bookkeeping overhead). Very small bounds are
// rounded up so every internal shard holds at least a few typical
// entries.
func NewVOCache(maxBytes int64) *VOCache {
	return &VOCache{c: vocache.New(maxBytes)}
}

// VOCacheStats is a point-in-time snapshot of a cache's counters.
type VOCacheStats struct {
	// Entries and Bytes describe the current population; CapacityBytes is
	// the configured bound.
	Entries, Bytes, CapacityBytes int64
	// Hits and Misses count lookups; Evictions counts LRU drops,
	// Invalidations entries reclaimed after a generation bump.
	Hits, Misses, Evictions, Invalidations int64
}

// HitRate returns Hits/(Hits+Misses), 0 before any lookup.
func (s VOCacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats snapshots the cache counters.
func (c *VOCache) Stats() VOCacheStats {
	st := c.c.Stats()
	return VOCacheStats{
		Entries: st.Entries, Bytes: st.Bytes, CapacityBytes: st.CapacityBytes,
		Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, Invalidations: st.Invalidations,
	}
}

// health converts the stats to the healthz wire form.
func (c *VOCache) health() *httpapi.CacheHealth {
	st := c.Stats()
	return &httpapi.CacheHealth{
		Entries: st.Entries, Bytes: st.Bytes, CapacityBytes: st.CapacityBytes,
		Hits: st.Hits, Misses: st.Misses, HitRate: st.HitRate(),
		Evictions: st.Evictions, Invalidations: st.Invalidations,
	}
}

// dropBelow reclaims entries of generations below gen. Correctness never
// depends on it (dead generations are unreachable by key); the update
// path calls it so superseded answers return their memory immediately
// instead of aging out of the LRU.
func (c *VOCache) dropBelow(gen uint64) {
	c.c.DropBelow(gen)
}

// cacheKey builds the lookup key: shape, generation, r, algorithm, scheme,
// then the normalized query terms in engine order. The shape tag ('k' for a
// shard set's fan-out answer, 'q' for a bare collection's) keeps one cache
// shared by both from ever handing one the other's answer. The terms come
// out of textproc.Terms, so two spellings of the same query (case,
// stopwords, whitespace) share an entry, while term ORDER is preserved — the
// VO encodes per-term structure, so differently ordered queries keep their
// own answers.
func cacheKey(sharded bool, tokens []string, r int, algo Algorithm, scheme Scheme, gen uint64) string {
	var b strings.Builder
	n := 16
	for _, t := range tokens {
		n += len(t) + 1
	}
	b.Grow(n)
	if sharded {
		b.WriteByte('k')
	} else {
		b.WriteByte('q')
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(gen, 10))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(r))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(algo)))
	b.WriteString(strconv.Itoa(int(scheme)))
	for _, t := range tokens {
		b.WriteByte('|')
		b.WriteString(t)
	}
	return b.String()
}

// Per-entry accounting overheads: the bound is expressed in encoded answer
// bytes, so fixed structure costs are charged as conservative constants.
const (
	cacheEntryOverhead = 256
	cacheHitOverhead   = 64
)

// resultCost charges an answer its VO, its delivered contents and the fixed
// overheads — for a fan-out answer, every shard's; its merged hits share
// their Content with the per-shard answers.
func resultCost(key string, res *SearchResult) int64 {
	n := int64(len(key)) + cacheEntryOverhead + int64(len(res.VO))
	for _, sr := range res.PerShard {
		n += resultCost("", sr)
	}
	for _, h := range res.Hits {
		n += cacheHitOverhead
		if res.PerShard == nil {
			n += int64(len(h.Content))
		}
	}
	return n
}

// cachedCopy is the private top-level copy that goes into and comes out of
// the cache: the caller owns what Search returned, and later hits get their
// own copies, so no caller can reorder or rescore another caller's answer
// through the cache. The VO, the document contents and the per-shard answers
// stay shared — they are immutable by contract, and any process that does
// scribble on them is caught by client verification, not trusted silently.
func cachedCopy(res *SearchResult) *SearchResult {
	cp := *res
	cp.Hits = append([]Hit(nil), res.Hits...)
	cp.PerShard = append([]*SearchResult(nil), res.PerShard...)
	return &cp
}

func (c *VOCache) put(key string, gen uint64, res *SearchResult) {
	c.c.Put(key, gen, resultCost(key, res), cachedCopy(res))
}

func (c *VOCache) get(key string) (*SearchResult, bool) {
	v, ok := c.c.Get(key)
	if !ok {
		return nil, false
	}
	return cachedCopy(v.(*SearchResult)), true
}
