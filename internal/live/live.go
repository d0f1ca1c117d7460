// Package live maintains a mutable, authenticated document collection on
// top of the immutable engine: every batch of additions and removals
// rebuilds a fresh engine.Collection under the next publication
// *generation* and atomically swaps the served pointer, so the lock-free
// read path of docs/CONCURRENCY.md is never touched — readers always see
// one whole generation, never a torn mix of two.
//
// Every generation signs what it builds. In dictionary mode that is one
// manifest per rebuilt collection (plus the set manifest of a shard set);
// the generation number lives in the signed manifest, which is what makes
// rollback detectable: clients refuse to regress to a lower generation
// (docs/UPDATES.md).
//
// Removals use tombstones rather than deletion: a removed document keeps
// its slot — its postings stay in the term lists and its record stays
// committed — and the signed manifest commits a removal bitmap that search
// and verification skip deterministically. Document IDs therefore never
// shift: a removal changes nothing a rebuild stores but the manifest.
// Dead slots accumulate until they outnumber live documents, at which
// point the rebuild compacts them away.
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
	"authtext/internal/shard"
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
	// dead slots.
	TombstonedSlots int
	Compacted       bool
	// Signed is the number of signatures the generation made: those of
	// the collections it rebuilt, plus a shard set's manifest.
	Signed int
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

// Collection is a live deployment: the latest published generation behind an
// atomic pointer, plus the owner-side state needed to build the next one.
// Searches go through Current / CurrentSet and are lock-free; updates
// serialise on an owner-side mutex that the read path never touches.
//
// Whether it is sharded is data, not a type. A bare collection (New) keeps
// one slot list and publishes it as a plain engine.Collection. A shard set
// (NewSharded) keeps one slot list per shard and publishes a shard.Set under
// a freshly signed set manifest. Placement in a set is *sticky*: a document
// is hashed to a shard once, on addition, and keeps its slot there until
// compaction, so an update rebuilds only the shards an add, a removal or a
// compaction touched; every other shard's engine.Collection is carried over
// wholesale, its manifest digest staying pinned in the new set manifest, and
// the whole set swaps at once — a fan-out never observes shards from two
// publication states. Placement is by content hash (shard.HashDoc) because
// only content is stable: a placement by global position would reshuffle
// most documents on any removal.
type Collection struct {
	mu      sync.Mutex // serialises updates (owner side only)
	cfg     engine.Config
	boosted bool
	// sharded is set on a shard set, unset on a bare collection.
	sharded bool
	// slots holds each shard's slot list, tombstoned slots included — one
	// list on a bare collection; dead counts the tombstoned slots per list.
	slots  [][]entry
	dead   []int
	tokens int64 // sum of entry.tokens over every slot
	// nextHandle assigns handles; never reused, so a handle is
	// unambiguous across the whole collection lifetime.
	nextHandle uint64
	lastStats  UpdateStats
	// pinnedAvgLen freezes one corpus-wide Okapi W_A across all shards and
	// all generations so that untouched documents keep byte-identical impact
	// weights — what lets a shard set carry an untouched shard over and
	// makes cross-shard score comparisons in the merge exact. It re-pins
	// (every shard rebuilds) when the true average drifts beyond
	// maxAvgLenDrift (nextAvgLen).
	pinnedAvgLen float64
	// publishHook, when set, runs under mu right after every generation
	// swap — updates are serialised, so a hook that persists generations
	// sees every one exactly once, in order.
	publishHook func(*UpdateStats)

	cur atomic.Pointer[engine.Collection] // bare collections
	set atomic.Pointer[shard.Set]         // shard sets
	gen atomic.Uint64
}

// maxAvgLenDrift is the relative drift of the true average document
// length from the pinned W_A beyond which a rebuild re-pins (and
// rebuilds every shard). 25% keeps Okapi's length normalisation honest
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

// New builds generation 1 of a bare collection from the initial documents.
// cfg is the engine configuration to use for every generation.
// cfg.Authority (the §5 boost) is supported: scores are pinned per document
// and travel with it across generations. The returned handles identify the
// initial documents for later removal.
func New(docs []index.Document, cfg engine.Config) (*Collection, []uint64, error) {
	return newCollection(docs, cfg, 1, false)
}

// NewSharded builds generation 1 of a k-shard live set, placing documents by
// content hash; cfg is used as in New.
func NewSharded(docs []index.Document, cfg engine.Config, k int) (*Collection, []uint64, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("live: shard count %d", k)
	}
	if k > len(docs) {
		return nil, nil, fmt.Errorf("live: %d shards for %d documents", k, len(docs))
	}
	return newCollection(docs, cfg, k, true)
}

func newCollection(docs []index.Document, cfg engine.Config, k int, sharded bool) (*Collection, []uint64, error) {
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
	c := &Collection{
		cfg:     cfg,
		boosted: cfg.Authority != nil,
		sharded: sharded,
		slots:   make([][]entry, k),
		dead:    make([]int, k),
	}
	// Per-generation authority/tombstone vectors are derived from the
	// entries at rebuild time, never from the construction config.
	c.cfg.Authority = nil
	dirty := make([]bool, k)
	handles := c.append(c.slots, dirty, docs, cfg.Authority)
	if c.sharded {
		if c.tokens == 0 {
			return nil, nil, errors.New("live: collection has no indexable terms")
		}
		for s := range c.slots {
			if len(c.slots[s]) == 0 {
				return nil, nil, fmt.Errorf("live: hash partitioning left shard %d/%d empty; use fewer shards", s, k)
			}
		}
	}
	if _, err := c.rebuildLocked(len(docs), 0, dirty); err != nil {
		return nil, nil, err
	}
	return c, handles, nil
}

// append assigns handles to docs and places each in its slot list of slots,
// marking the lists it touched dirty (caller holds mu or is the
// constructor). auth may be nil (scores default to 0).
func (c *Collection) append(slots [][]entry, dirty []bool, docs []index.Document, auth []float64) []uint64 {
	handles := make([]uint64, len(docs))
	for i, d := range docs {
		c.nextHandle++
		handles[i] = c.nextHandle
		e := newEntry(c.nextHandle, d)
		if auth != nil {
			e.auth = auth[i]
		}
		s := 0
		if c.sharded {
			s = shard.HashDoc(d, len(slots))
		}
		slots[s] = append(slots[s], e)
		dirty[s] = true
		c.tokens += int64(e.tokens)
	}
	return handles
}

// rebuildLocked builds generation gen+1 from c.slots and swaps the served
// pointer, rebuilding only dirty lists: a clean shard is carried over from
// the previous generation. A list whose dead slots outnumber its live
// documents compacts first, shifting its survivors' IDs — unless its
// survivors alone would index no term. On error nothing is
// swapped and the generation does not advance; the caller must restore
// c.slots, c.dead and c.tokens.
func (c *Collection) rebuildLocked(added, removed int, dirty []bool) (*UpdateStats, error) {
	totalSlots, totalDead := 0, 0
	for s := range c.slots {
		totalSlots += len(c.slots[s])
		totalDead += c.dead[s]
	}
	if totalSlots == totalDead {
		return nil, errors.New("live: update would empty the collection")
	}
	start := time.Now()
	compacted := false
	for s := range c.slots {
		liveS := len(c.slots[s]) - c.dead[s]
		if liveS == 0 {
			// An all-dead shard cannot be published (its manifest would
			// commit zero live documents) and hash placement cannot move
			// survivors in. Reject the batch whole.
			return nil, fmt.Errorf("live: update would empty shard %d; remove fewer documents or use fewer shards", s)
		}
		if c.dead[s] > liveS {
			kept := make([]entry, 0, liveS)
			docs := make([]index.Document, 0, liveS)
			var deadTokens int64
			for _, e := range c.slots[s] {
				if e.dead {
					deadTokens += int64(e.tokens)
				} else {
					kept = append(kept, e)
					docs = append(docs, e.doc)
				}
			}
			if !index.KeepsTerm(docs, c.cfg.RemoveSingletons) {
				// Compacted, the survivors would index no term, and the build
				// would refuse the batch. The list stays tombstoned this
				// generation: it indexes the documents it indexed before.
				continue
			}
			c.tokens -= deadTokens
			c.slots[s] = kept
			totalSlots -= c.dead[s]
			totalDead -= c.dead[s]
			c.dead[s], dirty[s], compacted = 0, true, true
		}
	}

	// Past maxAvgLenDrift every weight in every shard changes, so that
	// generation carries no shard over — by design a rare event.
	avgLen, repin := nextAvgLen(c.pinnedAvgLen, c.tokens, totalSlots)
	newGen := c.gen.Load() + 1
	prevSet := c.set.Load()
	cols := make([]*engine.Collection, len(c.slots))
	errs := make([]error, len(c.slots))
	reusedShards := 0
	var wg sync.WaitGroup
	for s := range c.slots {
		if prevSet != nil && !repin && !dirty[s] {
			// Untouched slot list, identical pinned W_A, identical
			// configuration: the previous generation's collection is
			// byte-for-byte what a rebuild would produce. Carry it
			// over, old shard manifest and all — the new set manifest
			// re-pins its digest.
			cols[s] = prevSet.Col(s)
			reusedShards++
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			slots := c.slots[s]
			docs := make([]index.Document, len(slots))
			cfg := c.cfg
			if c.dead[s] > 0 {
				cfg.Tombstones = make([]bool, len(slots))
			}
			if c.boosted {
				cfg.Authority = make([]float64, len(slots))
			}
			for i, e := range slots {
				docs[i] = e.doc
				if cfg.Tombstones != nil && e.dead {
					cfg.Tombstones[i] = true
				}
				if cfg.Authority != nil {
					cfg.Authority[i] = e.auth
				}
			}
			cfg.Generation = newGen
			cfg.FixedAvgLen = avgLen
			// Readers are on the previous generation while this one builds.
			cfg.SpareCore = newGen > 1
			cols[s], errs[s] = engine.BuildCollection(docs, cfg)
		}(s)
	}
	wg.Wait()
	signed := 0
	for s, err := range errs {
		if err != nil {
			if c.sharded {
				err = fmt.Errorf("live: shard %d: %w", s, err)
			}
			return nil, err
		}
		if prevSet == nil || cols[s] != prevSet.Col(s) { // rebuilt, not carried over
			signed += cols[s].BuildStats().Signatures
		}
	}
	if c.sharded {
		set, err := c.signSet(cols, totalSlots, newGen)
		if err != nil {
			return nil, err
		}
		signed++ // the set manifest
		c.set.Store(set)
	} else {
		c.cur.Store(cols[0])
	}
	c.gen.Store(newGen)
	c.pinnedAvgLen = avgLen
	c.lastStats = UpdateStats{
		Generation:      newGen,
		Documents:       totalSlots - totalDead,
		Added:           added,
		Removed:         removed,
		TombstonedSlots: totalDead,
		Compacted:       compacted,
		Signed:          signed,
		ShardsReused:    reusedShards,
		Rebuild:         time.Since(start),
	}
	st := c.lastStats
	if c.publishHook != nil {
		c.publishHook(&st)
	}
	return &st, nil
}

// signSet signs a set manifest over the built shards and assembles the
// serving Set (Assemble re-validates every pinned digest). Global IDs are
// prefix-sum offsets over the shard slot lists, regenerated every
// generation — they carry no signatures of their own (only digests inside
// the freshly signed set manifest), so renumbering is free.
func (c *Collection) signSet(cols []*engine.Collection, globalN int, gen uint64) (*shard.Set, error) {
	hashSize := c.cfg.HashSize
	if hashSize == 0 {
		hashSize = sig.DefaultHashSize
	}
	hasher, err := sig.NewHasher(hashSize)
	if err != nil {
		return nil, err
	}
	k := len(cols)
	sm := &shard.SetManifest{
		K:               uint32(k),
		Partitioner:     shard.HashContent,
		GlobalN:         uint32(globalN),
		HashSize:        uint8(hashSize),
		ShardDocs:       make([]uint32, k),
		ManifestDigests: make([][]byte, k),
		DocMapDigests:   make([][]byte, k),
		Generation:      gen,
	}
	docMaps := make([][]uint32, k)
	off := 0
	for s, col := range cols {
		docMaps[s] = make([]uint32, len(c.slots[s]))
		for i := range docMaps[s] {
			docMaps[s][i] = uint32(off + i)
		}
		off += len(c.slots[s])
		m, _ := col.Manifest()
		sm.ShardDocs[s] = m.N
		sm.ManifestDigests[s] = hasher.Sum(m.Encode())
		sm.DocMapDigests[s] = hasher.Sum(shard.EncodeDocMap(docMaps[s]))
	}
	smSig, err := c.cfg.Signer.Sign(sm.Encode())
	if err != nil {
		return nil, fmt.Errorf("live: sign set manifest: %w", err)
	}
	return shard.Assemble(cols, sm, smSig, c.cfg.Signer.Verifier(), docMaps)
}

// SetPublishHook installs fn to run after every future generation swap,
// while the update lock is still held: generations reach fn exactly
// once each, in order, with no concurrent invocations, and Current /
// CurrentSet inside fn is the generation just published. Keep fn fast —
// it extends the owner-side critical section (never the read path).
func (c *Collection) SetPublishHook(fn func(*UpdateStats)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.publishHook = fn
}

// Current returns the serving collection of the latest published
// generation (nil on a shard set; see CurrentSet). The pointer is immutable;
// any number of searches may run against it while updates build the next
// generation.
func (c *Collection) Current() *engine.Collection { return c.cur.Load() }

// CurrentSet returns the serving shard set of the latest published
// generation (nil on a bare collection).
func (c *Collection) CurrentSet() *shard.Set { return c.set.Load() }

// Generation returns the latest published generation (≥ 1).
func (c *Collection) Generation() uint64 { return c.gen.Load() }

// Shards returns the shard count: 0 for a bare collection.
func (c *Collection) Shards() int {
	if !c.sharded {
		return 0
	}
	return len(c.slots)
}

// Signer returns the collection's signer (the owner's key, safe for
// concurrent Sign calls). The fleet equivocation battery uses it to forge
// genuinely owner-signed divergent manifests — the attack a stolen or
// coerced signing key enables — so detection is exercised against real
// signatures rather than hand-rolled stand-ins.
func (c *Collection) Signer() sig.Signer { return c.cfg.Signer }

// LastStats returns the cost report of the most recent generation change.
func (c *Collection) LastStats() UpdateStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastStats
}

// Handles returns the handles of the live corpus, in (global) document
// order, tombstoned slots excluded.
func (c *Collection) Handles() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []uint64
	for _, slots := range c.slots {
		for _, e := range slots {
			if !e.dead {
				out = append(out, e.handle)
			}
		}
	}
	return out
}

// Update applies one batch — additions and removals together — as a
// single generation change: handles for the added documents are assigned,
// the removed handles become tombstoned slots, the touched slot lists
// rebuild under generation+1, and the served pointer swaps atomically. An
// empty batch is rejected rather than burning a generation. On error the
// corpus, the served generation and the generation counter are all
// unchanged.
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
	prevSlots, prevDead, prevTokens, prevNext := c.slots, c.dead, c.tokens, c.nextHandle
	// Work on copies so a failed rebuild leaves the corpus untouched
	// (entries are values; the shared backing arrays are never mutated).
	next := make([][]entry, len(prevSlots))
	for s := range next {
		next[s] = append(make([]entry, 0, len(prevSlots[s])+len(add)), prevSlots[s]...)
	}
	nextDead := append([]int(nil), prevDead...)
	dirty := make([]bool, len(next))
	if err := markRemoved(next, nextDead, dirty, remove); err != nil {
		return nil, nil, err
	}
	handles := c.append(next, dirty, add, auth)
	c.slots, c.dead = next, nextDead
	st, err := c.rebuildLocked(len(add), len(remove), dirty)
	if err != nil {
		c.slots, c.dead, c.tokens, c.nextHandle = prevSlots, prevDead, prevTokens, prevNext
		return nil, nil, err
	}
	return handles, st, nil
}

// markRemoved tombstones the removed handles across the slot lists, counting
// them in dead and marking the touched lists dirty. It errors on unknown,
// already-removed or duplicate handles (an update that silently "removes" a
// document that is not there would hide owner-side bugs).
func markRemoved(slots [][]entry, dead []int, dirty []bool, remove []uint64) error {
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
	for s := range slots {
		for i := range slots[s] {
			e := &slots[s][i]
			if !drop[e.handle] {
				continue
			}
			if e.dead {
				return fmt.Errorf("live: document handle %d already removed", e.handle)
			}
			e.dead = true
			dead[s]++
			dirty[s] = true
			delete(drop, e.handle)
		}
	}
	for h := range drop {
		return fmt.Errorf("live: unknown document handle %d", h)
	}
	return nil
}
