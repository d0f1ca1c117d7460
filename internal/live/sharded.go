package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/shard"
	"authtext/internal/sig"
)

// ShardedCollection is the sharded counterpart of Collection: one live
// shard set behind an atomic pointer. Document placement is *sticky*:
// every document is hashed to a shard once, on addition, and keeps its
// slot there until compaction — removals tombstone the slot in place. An
// update therefore rebuilds only the shards an add, a removal or a
// compaction actually touched; every untouched shard's engine.Collection
// is carried over wholesale, its manifest digest staying pinned in the
// freshly signed set manifest, and the whole set swaps at once, so a
// fan-out never observes shards from two different publication states.
//
// Only the hash partitioner is supported: its placement depends on
// document content alone, which is what keeps slots stable under
// interleaved adds and removals. Round-robin placement depends on global
// position, so any removal would reshuffle most documents and degrade
// every update to a full rebuild — NewSharded rejects it outright.
type ShardedCollection struct {
	mu      sync.Mutex
	cfg     engine.Config
	signer  *CachingSigner
	part    shard.Partitioner
	k       int
	boosted bool
	// shards holds each shard's slot list (including tombstoned slots);
	// dead counts the tombstoned slots per shard.
	shards     [][]entry
	dead       []int
	tokens     int64 // sum of entry.tokens over every slot of every shard
	nextHandle uint64
	lastStats  UpdateStats
	// pinnedAvgLen freezes one corpus-wide Okapi W_A across all shards
	// and all generations (see Collection.pinnedAvgLen). A side benefit
	// over static sharded builds: every shard scores against the same
	// W_A, so cross-shard score comparisons in the merge are exact
	// rather than per-shard approximations.
	pinnedAvgLen float64
	// publishHook runs under mu after every generation swap (see
	// Collection.SetPublishHook); snapshot persistence hangs off it.
	publishHook func(*shard.Set, *UpdateStats)

	cur atomic.Pointer[shard.Set]
	gen atomic.Uint64
}

// NewSharded builds generation 1 of a k-shard live set. part must be the
// hash partitioner (0 defaults to it); cfg.Authority (§5 boost) is
// supported exactly as in New.
func NewSharded(docs []index.Document, cfg engine.Config, k int, part shard.Partitioner) (*ShardedCollection, []uint64, error) {
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
	if part == 0 {
		part = shard.HashContent
	}
	if part != shard.HashContent {
		return nil, nil, fmt.Errorf("live: the %v partitioner is not supported on live sharded sets: "+
			"its placement depends on document position, so removals would reshuffle every shard "+
			"and defeat signature reuse; use the hash partitioner", part)
	}
	if k < 1 {
		return nil, nil, fmt.Errorf("live: shard count %d", k)
	}
	if k > len(docs) {
		return nil, nil, fmt.Errorf("live: %d shards for %d documents", k, len(docs))
	}
	c := &ShardedCollection{
		cfg:     cfg,
		signer:  NewCachingSigner(cfg.Signer),
		part:    part,
		k:       k,
		boosted: cfg.Authority != nil,
		shards:  make([][]entry, k),
		dead:    make([]int, k),
	}
	c.cfg.Signer = c.signer
	c.cfg.Authority = nil
	handles := make([]uint64, len(docs))
	for i, d := range docs {
		c.nextHandle++
		handles[i] = c.nextHandle
		e := newEntry(c.nextHandle, d)
		if cfg.Authority != nil {
			e.auth = cfg.Authority[i]
		}
		s := shard.HashDoc(d, k)
		c.shards[s] = append(c.shards[s], e)
		c.tokens += int64(e.tokens)
	}
	if c.tokens == 0 {
		return nil, nil, errors.New("live: collection has no indexable terms")
	}
	for s := range c.shards {
		if len(c.shards[s]) == 0 {
			return nil, nil, fmt.Errorf("live: hash partitioning left shard %d/%d empty; use fewer shards", s, k)
		}
	}
	if _, err := c.rebuildLocked(len(docs), 0, nil); err != nil {
		return nil, nil, err
	}
	return c, handles, nil
}

// Current returns the serving shard set of the latest generation.
func (c *ShardedCollection) Current() *shard.Set { return c.cur.Load() }

// Generation returns the latest published generation (≥ 1).
func (c *ShardedCollection) Generation() uint64 { return c.gen.Load() }

// Shards returns the shard count.
func (c *ShardedCollection) Shards() int { return c.k }

// LastStats returns the cost report of the most recent generation change.
func (c *ShardedCollection) LastStats() UpdateStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastStats
}

// SetPublishHook installs fn to run after every future set-generation
// swap, under the update lock (see Collection.SetPublishHook).
func (c *ShardedCollection) SetPublishHook(fn func(*shard.Set, *UpdateStats)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.publishHook = fn
}

// Update applies one add/remove batch as a single set-wide generation
// change; see Collection.Update for the contract.
func (c *ShardedCollection) Update(add []index.Document, remove []uint64) ([]uint64, *UpdateStats, error) {
	return c.UpdateWithAuthority(add, nil, remove)
}

// UpdateWithAuthority is Update with authority scores for the additions
// (see Collection.UpdateWithAuthority).
func (c *ShardedCollection) UpdateWithAuthority(add []index.Document, auth []float64, remove []uint64) ([]uint64, *UpdateStats, error) {
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
	prevShards, prevDead, prevTokens, prevNext := c.shards, c.dead, c.tokens, c.nextHandle
	next := make([][]entry, c.k)
	for s := range next {
		next[s] = append([]entry(nil), prevShards[s]...)
	}
	nextDead := append([]int(nil), prevDead...)
	dirty := make([]bool, c.k)
	if err := markRemovedSharded(next, nextDead, dirty, remove); err != nil {
		return nil, nil, err
	}
	handles := make([]uint64, len(add))
	for i, d := range add {
		c.nextHandle++
		handles[i] = c.nextHandle
		e := newEntry(c.nextHandle, d)
		if auth != nil {
			e.auth = auth[i]
		} // boosted with nil auth: scores default to 0
		s := shard.HashDoc(d, c.k)
		next[s] = append(next[s], e)
		c.tokens += int64(e.tokens)
		dirty[s] = true
	}
	c.shards, c.dead = next, nextDead
	st, err := c.rebuildLocked(len(add), len(remove), dirty)
	if err != nil {
		c.shards, c.dead, c.tokens, c.nextHandle = prevShards, prevDead, prevTokens, prevNext
		return nil, nil, err
	}
	return handles, st, nil
}

// markRemovedSharded tombstones the removed handles across the shard slot
// lists, marking touched shards dirty (same error contract as
// markRemoved).
func markRemovedSharded(shards [][]entry, dead []int, dirty []bool, remove []uint64) error {
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
	for s := range shards {
		for i := range shards[s] {
			e := &shards[s][i]
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

// rebuildLocked builds the next set generation and swaps the served
// pointer, rebuilding only dirty shards (nil dirty: all). Shards whose
// dead slots outnumber live documents compact first (their IDs shift, so
// they re-sign in full; the rest of the set is unaffected). On error
// nothing is swapped; the caller must restore the slot lists and c.tokens.
func (c *ShardedCollection) rebuildLocked(added, removed int, dirty []bool) (*UpdateStats, error) {
	totalSlots, totalDead := 0, 0
	for s := range c.shards {
		totalSlots += len(c.shards[s])
		totalDead += c.dead[s]
	}
	if totalSlots == totalDead {
		return nil, errors.New("live: update would empty the collection")
	}
	start := time.Now()
	compacted := false
	for s := range c.shards {
		liveS := len(c.shards[s]) - c.dead[s]
		if liveS == 0 {
			// An all-dead shard cannot be published (its manifest would
			// commit zero live documents) and hash placement cannot move
			// survivors in. Reject the batch whole.
			return nil, fmt.Errorf("live: update would empty shard %d; remove fewer documents or use fewer shards", s)
		}
		if c.dead[s] > liveS {
			kept := make([]entry, 0, liveS)
			for _, e := range c.shards[s] {
				if e.dead {
					c.tokens -= int64(e.tokens)
				} else {
					kept = append(kept, e)
				}
			}
			c.shards[s] = kept
			totalSlots -= c.dead[s]
			totalDead -= c.dead[s]
			c.dead[s] = 0
			compacted = true
			if dirty != nil {
				dirty[s] = true
			}
		}
	}

	// Re-pin the shared W_A when the corpus drifted too far; that changes
	// every weight in every shard, so shard reuse is off for this build.
	pinned, repin := nextAvgLen(c.pinnedAvgLen, c.tokens, totalSlots)

	newGen := c.gen.Load() + 1
	prevSet := c.cur.Load()
	c.signer.Begin()
	cols := make([]*engine.Collection, c.k)
	errs := make([]error, c.k)
	reusedShards := 0
	var wg sync.WaitGroup
	for s := 0; s < c.k; s++ {
		if prevSet != nil && !repin && dirty != nil && !dirty[s] {
			// Untouched slot list, identical pinned W_A, identical
			// configuration: the previous generation's collection is
			// byte-for-byte what a rebuild would produce, minus the
			// signing. Carry it over, old shard manifest and all — the
			// new set manifest re-pins its digest.
			cols[s] = prevSet.Col(s)
			reusedShards++
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			slots := c.shards[s]
			sub := make([]index.Document, len(slots))
			var tombs []bool
			if c.dead[s] > 0 {
				tombs = make([]bool, len(slots))
			}
			var auth []float64
			if c.boosted {
				auth = make([]float64, len(slots))
			}
			for i, e := range slots {
				sub[i] = e.doc
				if tombs != nil && e.dead {
					tombs[i] = true
				}
				if auth != nil {
					auth[i] = e.auth
				}
			}
			scfg := c.cfg
			scfg.Generation = newGen
			scfg.FixedAvgLen = pinned
			scfg.Tombstones = tombs
			scfg.Authority = auth
			// Readers are on the previous set generation meanwhile.
			scfg.SpareCore = prevSet != nil
			cols[s], errs[s] = engine.BuildCollection(sub, scfg)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			c.signer.Abort()
			return nil, fmt.Errorf("live: shard %d: %w", s, err)
		}
	}
	// A reused shard never called Sign this epoch; pruning would evict
	// its still-live signatures, so only fully-signed rebuilds prune.
	var signed, reused int
	if reusedShards > 0 {
		signed, reused = c.signer.EndKeep()
	} else {
		signed, reused = c.signer.End()
	}

	// Global IDs are prefix-sum offsets over the shard slot lists,
	// regenerated every generation — they carry no signatures of their
	// own (only digests inside the freshly signed set manifest), so
	// renumbering is free.
	docMaps := make([][]uint32, c.k)
	off := 0
	for s := range c.shards {
		docMaps[s] = make([]uint32, len(c.shards[s]))
		for i := range docMaps[s] {
			docMaps[s][i] = uint32(off + i)
		}
		off += len(c.shards[s])
	}
	set, err := signSet(cols, docMaps, c.cfg, c.signer, c.part, off, newGen)
	if err != nil {
		return nil, err
	}
	c.cur.Store(set)
	c.gen.Store(newGen)
	c.pinnedAvgLen = pinned
	c.lastStats = UpdateStats{
		Generation:      newGen,
		Documents:       totalSlots - totalDead,
		Added:           added,
		Removed:         removed,
		TombstonedSlots: totalDead,
		Compacted:       compacted,
		Signed:          signed,
		Reused:          reused,
		ShardsReused:    reusedShards,
		Rebuild:         time.Since(start),
	}
	st := c.lastStats
	if c.publishHook != nil {
		c.publishHook(set, &st)
	}
	return &st, nil
}

// signSet signs a set manifest over the built shards and assembles the
// serving Set (Assemble re-validates every pinned digest).
func signSet(cols []*engine.Collection, docMaps [][]uint32, cfg engine.Config, signer sig.Signer,
	part shard.Partitioner, globalN int, gen uint64) (*shard.Set, error) {
	hashSize := cfg.HashSize
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
		Partitioner:     part,
		GlobalN:         uint32(globalN),
		HashSize:        uint8(hashSize),
		ShardDocs:       make([]uint32, k),
		ManifestDigests: make([][]byte, k),
		DocMapDigests:   make([][]byte, k),
		Generation:      gen,
	}
	for s, col := range cols {
		m, _ := col.Manifest()
		sm.ShardDocs[s] = m.N
		sm.ManifestDigests[s] = hasher.Sum(m.Encode())
		sm.DocMapDigests[s] = hasher.Sum(shard.EncodeDocMap(docMaps[s]))
	}
	smSig, err := signer.Sign(sm.Encode())
	if err != nil {
		return nil, fmt.Errorf("live: sign set manifest: %w", err)
	}
	return shard.Assemble(cols, sm, smSig, signer.Verifier(), docMaps)
}
