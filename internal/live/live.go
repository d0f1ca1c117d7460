// Package live maintains a mutable, authenticated document collection on
// top of the immutable engine: every batch of additions and removals
// rebuilds a fresh engine.Collection under the next publication
// *generation* and atomically swaps the served pointer, so the lock-free
// read path of docs/CONCURRENCY.md is never touched — readers always see
// one whole generation, never a torn mix of two.
//
// The owner-side cost of an update is dominated by signing, and signing
// is exactly what the generation model lets us avoid: the engine signs
// canonical content-addressed messages, so a CachingSigner reuses every
// signature whose message an update did not change (unchanged term lists,
// unchanged document records). The generation number itself lives in the
// freshly signed manifest, which is what makes rollback detectable:
// clients refuse to regress to a lower generation (docs/UPDATES.md).
//
// Removals use tombstones rather than deletion: a removed document keeps
// its slot — its postings stay in the signed term lists and its record
// stays signed — and the manifest (re-signed every generation anyway)
// commits a removal bitmap that search and verification skip
// deterministically. Document IDs therefore never shift, which is what
// lets a removal batch reuse every per-structure signature it did not
// touch, exactly like an append batch. Dead slots accumulate until they
// outnumber live documents, at which point the rebuild compacts them away
// (one full re-sign, the same rare-event budget as a W_A re-pin).
package live

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/sig"
	"authtext/internal/textproc"
)

// UpdateStats reports what one generation change cost.
type UpdateStats struct {
	// Generation is the generation the update published.
	Generation uint64
	// Documents is the number of live documents after the update
	// (tombstoned slots excluded).
	Documents int
	// Added and Removed count the documents the batch changed.
	Added, Removed int
	// TombstonedSlots is the number of dead slots the new generation still
	// carries; Compacted reports that this rebuild dropped accumulated
	// dead slots (a full re-sign).
	TombstonedSlots int
	Compacted       bool
	// Signed is the number of fresh signatures the rebuild needed;
	// Reused the number served from the signature cache. Both count only
	// structures this rebuild actually produced (reuse-eligible
	// structures), so Reused/(Signed+Reused) is the honest reuse ratio
	// whether or not slots are tombstoned.
	Signed, Reused int
	// ShardsReused counts whole shards carried over from the previous
	// generation without any rebuild (sharded live sets only).
	ShardsReused int
	// Rebuild is the wall time from accepting the batch to swapping the
	// served pointer.
	Rebuild time.Duration
}

// entry is one document slot: a stable handle, the immutable content, its
// post-pipeline token count (the W_d index.Build will compute, counted
// once on addition), the pinned authority score (boosted collections),
// and the tombstone flag.
type entry struct {
	handle uint64
	doc    index.Document
	tokens int
	auth   float64
	dead   bool
}

func newEntry(handle uint64, d index.Document) entry {
	e := entry{handle: handle, doc: d}
	if d.Tokens != nil {
		e.tokens = len(textproc.RemoveStopwords(d.Tokens))
	} else {
		e.tokens = len(textproc.Terms(string(d.Content)))
	}
	return e
}

// Collection is a live single-collection deployment: an atomically
// swapped engine.Collection plus the owner-side state needed to rebuild
// it. Searches go through Current and are lock-free; updates serialise on
// an owner-side mutex that the read path never touches.
type Collection struct {
	mu      sync.Mutex // serialises updates (owner side only)
	cfg     engine.Config
	signer  *CachingSigner
	boosted bool
	docs    []entry // slots, including tombstoned ones
	dead    int     // tombstoned slots in docs
	tokens  int64   // sum of entry.tokens over docs
	// nextHandle assigns handles; never reused, so a handle is
	// unambiguous across the whole collection lifetime.
	nextHandle uint64
	lastStats  UpdateStats
	// pinnedAvgLen freezes the Okapi W_A across generations so that
	// untouched documents keep byte-identical impact weights — the
	// precondition for any signature reuse. It re-pins (full re-sign)
	// when the true average drifts beyond maxAvgLenDrift (nextAvgLen).
	pinnedAvgLen float64
	// publishHook, when set, runs under mu right after every generation
	// swap — updates are serialised, so a hook that persists generations
	// sees every one exactly once, in order.
	publishHook func(*engine.Collection, *UpdateStats)

	cur atomic.Pointer[engine.Collection]
	gen atomic.Uint64
}

// maxAvgLenDrift is the relative drift of the true average document
// length from the pinned W_A beyond which a rebuild re-pins (and
// re-signs everything). 25% keeps Okapi's length normalisation honest
// without making routine updates expensive. Tombstoned slots count in
// the drift base — they are part of the index statistics the signed
// structures were built against — and compaction bounds how long they
// can distort it.
const maxAvgLenDrift = 0.25

// nextAvgLen returns the W_A the next build must use, decided from the
// running token sum before anything is built: the pinned value while the
// true mean slot length stays within maxAvgLenDrift of it, else the true
// mean (repin — also the first build, which has nothing pinned yet).
func nextAvgLen(pinned float64, tokens int64, slots int) (avgLen float64, repin bool) {
	trueAvg := float64(tokens) / float64(slots)
	if pinned == 0 || math.Abs(trueAvg-pinned)/pinned > maxAvgLenDrift {
		return trueAvg, true
	}
	return pinned, false
}

// New builds generation 1 from the initial documents. cfg is the engine
// configuration to use for every generation; its Signer is wrapped in a
// CachingSigner so later updates reuse unchanged signatures. cfg.Authority
// (the §5 boost) is supported: scores are pinned per document and travel
// with it across generations. The returned handles identify the initial
// documents for later removal.
func New(docs []index.Document, cfg engine.Config) (*Collection, []uint64, error) {
	if cfg.Signer == nil {
		return nil, nil, errors.New("live: config needs a signer")
	}
	if cfg.Generation != 0 {
		return nil, nil, errors.New("live: the generation counter is owned by the live collection")
	}
	if cfg.Tombstones != nil {
		return nil, nil, errors.New("live: tombstones are managed by the live collection")
	}
	if cfg.Authority != nil && len(cfg.Authority) != len(docs) {
		return nil, nil, fmt.Errorf("live: %d authority scores for %d documents", len(cfg.Authority), len(docs))
	}
	c := &Collection{cfg: cfg, signer: NewCachingSigner(cfg.Signer), boosted: cfg.Authority != nil}
	c.cfg.Signer = c.signer
	// Per-generation authority/tombstone vectors are derived from the
	// entries at rebuild time, never from the construction config.
	c.cfg.Authority = nil
	handles := c.append(docs, cfg.Authority)
	if _, err := c.rebuildLocked(len(docs), 0); err != nil {
		return nil, nil, err
	}
	return c, handles, nil
}

// append registers documents and returns their handles (caller holds mu
// or is the constructor). auth may be nil (scores default to 0).
func (c *Collection) append(docs []index.Document, auth []float64) []uint64 {
	handles := make([]uint64, len(docs))
	for i, d := range docs {
		c.nextHandle++
		handles[i] = c.nextHandle
		e := newEntry(c.nextHandle, d)
		if auth != nil {
			e.auth = auth[i]
		}
		c.docs = append(c.docs, e)
		c.tokens += int64(e.tokens)
	}
	return handles
}

// rebuildLocked builds generation gen+1 from c.docs and swaps the served
// pointer, compacting first when dead slots outnumber live documents. On
// error nothing is swapped and the generation does not advance; the
// caller must restore c.docs, c.dead and c.tokens.
func (c *Collection) rebuildLocked(added, removed int) (*UpdateStats, error) {
	live := len(c.docs) - c.dead
	if live == 0 {
		return nil, errors.New("live: update would empty the collection")
	}
	start := time.Now()
	// Compaction policy: once the majority of slots are dead, drop them.
	// Surviving documents shift IDs, so the rebuild re-signs everything —
	// the same rare-event budget as a W_A re-pin — and the next
	// generations reuse signatures against the compacted ID space.
	compacted := false
	if c.dead > live {
		kept := make([]entry, 0, live)
		for _, e := range c.docs {
			if e.dead {
				c.tokens -= int64(e.tokens)
			} else {
				kept = append(kept, e)
			}
		}
		c.docs, c.dead, compacted = kept, 0, true
	}
	idocs := make([]index.Document, len(c.docs))
	var tombs []bool
	if c.dead > 0 {
		tombs = make([]bool, len(c.docs))
	}
	var auth []float64
	if c.boosted {
		auth = make([]float64, len(c.docs))
	}
	for i, e := range c.docs {
		idocs[i] = e.doc
		if tombs != nil && e.dead {
			tombs[i] = true
		}
		if auth != nil {
			auth[i] = e.auth
		}
	}
	cfg := c.cfg
	cfg.Generation = c.gen.Load() + 1
	// Past maxAvgLenDrift every weight changes, so that generation
	// re-signs everything — by design a rare event.
	cfg.FixedAvgLen, _ = nextAvgLen(c.pinnedAvgLen, c.tokens, len(c.docs))
	cfg.Tombstones = tombs
	cfg.Authority = auth
	// Readers are on the previous generation while this one builds.
	cfg.SpareCore = c.cur.Load() != nil
	c.signer.Begin()
	col, err := engine.BuildCollection(idocs, cfg)
	if err != nil {
		c.signer.Abort()
		return nil, err
	}
	signed, reused := c.signer.End()
	c.pinnedAvgLen = cfg.FixedAvgLen
	c.cur.Store(col)
	c.gen.Store(cfg.Generation)
	c.lastStats = UpdateStats{
		Generation:      cfg.Generation,
		Documents:       live,
		Added:           added,
		Removed:         removed,
		TombstonedSlots: c.dead,
		Compacted:       compacted,
		Signed:          signed,
		Reused:          reused,
		Rebuild:         time.Since(start),
	}
	st := c.lastStats
	if c.publishHook != nil {
		c.publishHook(col, &st)
	}
	return &st, nil
}

// SetPublishHook installs fn to run after every future generation swap,
// while the update lock is still held: generations reach fn exactly
// once each, in order, with no concurrent invocations. Keep fn fast —
// it extends the owner-side critical section (never the read path).
func (c *Collection) SetPublishHook(fn func(*engine.Collection, *UpdateStats)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.publishHook = fn
}

// Current returns the serving collection of the latest published
// generation. The pointer is immutable; any number of searches may run
// against it while updates build the next generation.
func (c *Collection) Current() *engine.Collection { return c.cur.Load() }

// Generation returns the latest published generation (≥ 1).
func (c *Collection) Generation() uint64 { return c.gen.Load() }

// Signer returns the collection's signer (the caching wrapper around the
// owner's key, safe for concurrent Sign calls). The fleet equivocation
// battery uses it to forge genuinely owner-signed divergent manifests —
// the attack a stolen or coerced signing key enables — so detection is
// exercised against real signatures rather than hand-rolled stand-ins.
func (c *Collection) Signer() sig.Signer { return c.signer }

// LastStats returns the cost report of the most recent generation change.
func (c *Collection) LastStats() UpdateStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastStats
}

// Handles returns the handles of the live corpus, in document order
// (tombstoned slots excluded).
func (c *Collection) Handles() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, 0, len(c.docs)-c.dead)
	for _, e := range c.docs {
		if !e.dead {
			out = append(out, e.handle)
		}
	}
	return out
}

// Update applies one batch — additions and removals together — as a
// single generation change: handles for the added documents are assigned,
// the removed handles become tombstoned slots, the collection rebuilds
// under generation+1 (reusing unchanged signatures), and the served
// pointer swaps atomically. An empty batch is rejected rather than
// burning a generation. On error the corpus, the served collection and
// the generation are all unchanged.
func (c *Collection) Update(add []index.Document, remove []uint64) ([]uint64, *UpdateStats, error) {
	return c.UpdateWithAuthority(add, nil, remove)
}

// UpdateWithAuthority is Update with per-document authority scores for
// the additions (boosted collections only; len(auth) == len(add), scores
// in [0,1]). A nil auth on a boosted collection assigns 0 to every added
// document.
func (c *Collection) UpdateWithAuthority(add []index.Document, auth []float64, remove []uint64) ([]uint64, *UpdateStats, error) {
	if len(add) == 0 && len(remove) == 0 {
		return nil, nil, errors.New("live: empty update batch")
	}
	if auth != nil && len(auth) != len(add) {
		return nil, nil, fmt.Errorf("live: %d authority scores for %d added documents", len(auth), len(add))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if auth != nil && !c.boosted {
		return nil, nil, errors.New("live: authority scores on an unboosted collection")
	}
	prevDocs, prevDead, prevTokens, prevNext := c.docs, c.dead, c.tokens, c.nextHandle
	// Work on a copy so a failed rebuild leaves the corpus untouched
	// (entries are values; the shared backing array is never mutated).
	next := append(make([]entry, 0, len(prevDocs)+len(add)), prevDocs...)
	if err := markRemoved(next, remove); err != nil {
		return nil, nil, err
	}
	c.docs = next
	c.dead += len(remove)
	handles := c.append(add, auth)
	st, err := c.rebuildLocked(len(add), len(remove))
	if err != nil {
		c.docs, c.dead, c.tokens, c.nextHandle = prevDocs, prevDead, prevTokens, prevNext
		return nil, nil, err
	}
	return handles, st, nil
}

// markRemoved tombstones the removed handles in docs, erroring on
// unknown, already-removed or duplicate handles (an update that silently
// "removes" a document that is not there would hide owner-side bugs).
func markRemoved(docs []entry, remove []uint64) error {
	if len(remove) == 0 {
		return nil
	}
	drop := make(map[uint64]bool, len(remove))
	for _, h := range remove {
		if drop[h] {
			return fmt.Errorf("live: handle %d removed twice in one batch", h)
		}
		drop[h] = true
	}
	for i := range docs {
		e := &docs[i]
		if !drop[e.handle] {
			continue
		}
		if e.dead {
			return fmt.Errorf("live: document handle %d already removed", e.handle)
		}
		e.dead = true
		delete(drop, e.handle)
	}
	for h := range drop {
		return fmt.Errorf("live: unknown document handle %d", h)
	}
	return nil
}
