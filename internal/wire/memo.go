package wire

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// Deflate memoisation for the serving hot path. A section's stream is a
// pure function of (section bytes, level), and the only expensive part of
// EncodeFrame is deflate: a document returned by many answers, and a proof
// replayed from the VO cache, present the identical section every time, so
// the compressed bytes are remembered keyed by the section's SHA-256 and
// the level. A hit costs one hash over the raw bytes (hardware-accelerated,
// ~30x faster than deflate) instead of a fresh compression. Because the
// stored bytes ARE a previous deflateSection's output, memoised and
// non-memoised encodes are byte-identical by construction — the determinism
// contract in the frame-layout comment survives untouched. Incompressible
// sections are remembered too (as an empty entry), so they are not
// re-deflated-and-discarded on every hit.
//
// Admission is on second sighting, after a short trial: the first encode
// of a section keeps its bytes only while they are among the most recent
// memoTrialBytes of first sightings; past that only the key stays, and a
// later encode stores the bytes for good. Most proofs of an uncached or
// long-tailed stream are never encoded again, and holding their streams
// until LRU pressure reached them used to be most of a serving process's
// resident memory. The trial is what keeps a hot section that comes
// straight back — every cached answer, just after a live publish has
// changed them all — from being compressed twice: without it the memo
// needs two passes over the hot set to warm, and serving throughput sags
// for about a second after each publish.
const (
	// memoMaxBytes bounds what the memo retains (LRU beyond): stored
	// compressed bytes plus memoEntryOverhead per entry.
	memoMaxBytes = 64 << 20
	// memoMaxEntryBytes skips memoising huge one-off sections whose raw
	// hash cost already dwarfs any replay saving.
	memoMaxEntryBytes = 4 << 20
	// memoEntryOverhead approximates the heap an entry pins besides its
	// data: the memoEntry (key, slice header, flag), its list element and
	// its map slot with the key's second copy.
	memoEntryOverhead = 200
	// memoTrialBytes bounds the bytes kept on the strength of one sighting.
	memoTrialBytes = memoMaxBytes / 16
)

// memoKey names everything a section's stream depends on.
type memoKey struct {
	sum   [sha256.Size]byte
	level int
}

type memoEntry struct {
	key    memoKey
	stored bool          // false: key seen once, its trial over, verdict not kept
	data   []byte        // stored and nil: compression does not pay for this section
	trial  *list.Element // in deflateMemo.trial until a second sighting or the trial bound
}

var deflateMemo = struct {
	mu         sync.Mutex
	m          map[memoKey]*list.Element // values: *memoEntry
	lru        *list.List                // front = most recent
	bytes      int64
	trial      *list.List // values: *memoEntry seen once, data kept; front = newest
	trialBytes int64
}{m: make(map[memoKey]*list.Element), lru: list.New(), trial: list.New()}

// endTrial takes e off the trial list; its data stays or goes as the
// caller decides. deflateMemo.mu is held.
func endTrial(e *memoEntry) {
	deflateMemo.trial.Remove(e.trial)
	deflateMemo.trialBytes -= int64(len(e.data))
	e.trial = nil
}

// memoGet returns the remembered deflate output (data, true), the
// remembered "does not compress" verdict (nil, true), or a miss. The
// returned slice is shared and immutable; callers copy it into their
// frame buffer.
func memoGet(key memoKey) ([]byte, bool) {
	deflateMemo.mu.Lock()
	defer deflateMemo.mu.Unlock()
	elem, ok := deflateMemo.m[key]
	if !ok {
		return nil, false
	}
	deflateMemo.lru.MoveToFront(elem)
	e := elem.Value.(*memoEntry)
	if e.trial != nil {
		endTrial(e) // second sighting: admitted
	}
	return e.data, e.stored
}

// memoPut records one encode of key whose deflate output is data (nil:
// does not compress; otherwise an exact-size slice the memo may keep).
// The first call for a key keeps data on trial, a call after the trial has
// lapsed stores it for good; least-recently-used entries are evicted
// beyond the byte bound.
func memoPut(key memoKey, data []byte) {
	if len(data) > memoMaxEntryBytes {
		return
	}
	deflateMemo.mu.Lock()
	defer deflateMemo.mu.Unlock()
	if elem, ok := deflateMemo.m[key]; ok {
		e := elem.Value.(*memoEntry)
		if e.stored {
			return // concurrent encode of the same section won the race
		}
		e.stored, e.data = true, data
		deflateMemo.bytes += int64(len(data))
		deflateMemo.lru.MoveToFront(elem)
	} else {
		e := &memoEntry{key: key, stored: true, data: data}
		deflateMemo.m[key] = deflateMemo.lru.PushFront(e)
		deflateMemo.bytes += memoEntryOverhead + int64(len(data))
		if len(data) > 0 { // a verdict without bytes needs no trial
			e.trial = deflateMemo.trial.PushFront(e)
			deflateMemo.trialBytes += int64(len(data))
		}
		for deflateMemo.trialBytes > memoTrialBytes {
			old := deflateMemo.trial.Back().Value.(*memoEntry)
			deflateMemo.bytes -= int64(len(old.data))
			endTrial(old)
			old.stored, old.data = false, nil
		}
	}
	for deflateMemo.bytes > memoMaxBytes {
		back := deflateMemo.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*memoEntry)
		if e.trial != nil {
			endTrial(e)
		}
		deflateMemo.lru.Remove(back)
		delete(deflateMemo.m, e.key)
		deflateMemo.bytes -= memoEntryOverhead + int64(len(e.data))
	}
}
