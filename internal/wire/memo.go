package wire

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// Section memoisation, on both ends of the wire. A section's deflate stream
// is a pure function of (section bytes, level, dictionary), and its
// inflation a pure function of (stream, dictionary): a document returned by
// many answers, and a proof replayed from the VO cache, present the
// identical bytes every time. So a server remembers each section's
// compressed bytes keyed by the section's SHA-256, the level and the
// dictionary's SHA-256 (deflateMemo), and a client remembers each chunk's
// inflated bytes keyed by the SHA-256 of the stream it received and of the
// dictionary the frame named (inflateMemo). A hit costs one hash (hardware-accelerated, an order of
// magnitude faster than inflate and more than that faster than deflate)
// instead of the codec. Because a stored entry IS a previous run's output,
// memoised and non-memoised results are byte-identical by construction — the
// determinism contract in the frame-layout comment survives untouched, and a
// client's memo cannot be poisoned: an entry only ever holds what inflating
// exactly those stream bytes produced. Incompressible sections are
// remembered too (as an empty entry), so a server does not re-deflate and
// discard them on every hit.
//
// Admission is on second sighting, after a short trial: the first sighting
// of a key keeps its bytes only while they are among the most recent
// maxBytes/16 of first sightings; past that only the key stays, and a later
// sighting stores the bytes for good. Most proofs of an uncached or
// long-tailed stream are never seen again, and holding them until LRU
// pressure reached them used to be most of a serving process's resident
// memory. The trial is what keeps a hot section that comes straight back —
// every cached answer, just after a live publish has changed them all — from
// being compressed twice: without it the memo needs two passes over the hot
// set to warm, and serving throughput sags for about a second after each
// publish.
type memo struct {
	mu         sync.Mutex
	maxBytes   int64                     // bound on what it retains: data plus memoEntryOverhead per entry, LRU beyond
	m          map[memoKey]*list.Element // values: *memoEntry
	lru        *list.List                // front = most recent
	bytes      int64
	trial      *list.List // values: *memoEntry seen once, data kept; front = newest
	trialBytes int64
}

// The two memos and their fixed bounds. Each keeps at most 1/16 of its bound
// on trial, and does not remember a single entry larger than that: a huge
// one-off section's hash already costs more than a replay would save.
var (
	deflateMemo = newMemo(64 << 20)
	inflateMemo = newMemo(16 << 20)
)

// memoEntryOverhead approximates the heap an entry pins besides its data:
// the memoEntry (key, slice header, flag), its list element and its map
// slot with the key's second copy.
const memoEntryOverhead = 200

func newMemo(maxBytes int64) *memo {
	return &memo{maxBytes: maxBytes, m: make(map[memoKey]*list.Element), lru: list.New(), trial: list.New()}
}

// trialMax bounds the bytes kept on the strength of one sighting, and the
// size of any one entry.
func (c *memo) trialMax() int64 { return c.maxBytes / 16 }

// memoKey names everything a memoised result depends on: the SHA-256 of the
// input, in deflateMemo the compression level (zero in inflateMemo), and the
// SHA-256 of the dictionary the stream reaches back into (zero for none).
// Without the dictionary, an honest switch from one to another would serve
// one history's bytes for the other's, and that would look like tampering.
type memoKey struct {
	sum   [sha256.Size]byte
	level int
	dict  [sha256.Size]byte
}

type memoEntry struct {
	key    memoKey
	stored bool          // false: key seen once, its trial over, verdict not kept
	data   []byte        // stored and nil: compression does not pay for this section
	trial  *list.Element // in memo.trial until a second sighting or the trial bound
}

// endTrial takes e off the trial list; its data stays or goes as the
// caller decides. c.mu is held.
func (c *memo) endTrial(e *memoEntry) {
	c.trial.Remove(e.trial)
	c.trialBytes -= int64(len(e.data))
	e.trial = nil
}

// get returns the remembered result (data, true), the remembered "does not
// compress" verdict (nil, true), or a miss. The returned slice is shared and
// immutable; callers copy it into their own buffer.
func (c *memo) get(key memoKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	elem, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(elem)
	e := elem.Value.(*memoEntry)
	if e.trial != nil {
		c.endTrial(e) // second sighting: admitted
	}
	return e.data, e.stored
}

// put records one run for key whose output is data (nil: does not
// compress; otherwise an exact-size slice the memo may keep). The first call
// for a key keeps data on trial, a call after the trial has lapsed stores it
// for good; least-recently-used entries are evicted beyond the byte bound.
func (c *memo) put(key memoKey, data []byte) {
	if int64(len(data)) > c.trialMax() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.m[key]; ok {
		e := elem.Value.(*memoEntry)
		if e.stored {
			return // a concurrent run over the same bytes won the race
		}
		e.stored, e.data = true, data
		c.bytes += int64(len(data))
		c.lru.MoveToFront(elem)
	} else {
		e := &memoEntry{key: key, stored: true, data: data}
		c.m[key] = c.lru.PushFront(e)
		c.bytes += memoEntryOverhead + int64(len(data))
		if len(data) > 0 { // a verdict without bytes needs no trial
			e.trial = c.trial.PushFront(e)
			c.trialBytes += int64(len(data))
		}
		for c.trialBytes > c.trialMax() {
			old := c.trial.Back().Value.(*memoEntry)
			c.bytes -= int64(len(old.data))
			c.endTrial(old)
			old.stored, old.data = false, nil
		}
	}
	for c.bytes > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*memoEntry)
		if e.trial != nil {
			c.endTrial(e)
		}
		c.lru.Remove(back)
		delete(c.m, e.key)
		c.bytes -= memoEntryOverhead + int64(len(e.data))
	}
}
