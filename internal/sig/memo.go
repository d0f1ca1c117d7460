package sig

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// memoCapacity bounds one generation of a MemoVerifier's memo; with two
// generations a memo holds at most 2·memoCapacity 32-byte keys (a few MiB
// with map overhead), enough for every signature of a collection two orders
// of magnitude larger than the ones the benchmarks serve.
const memoCapacity = 1 << 15

// MemoVerifier is a Verifier that runs the wrapped verification at most once
// per (message, signature) pair: a pair that verified is remembered, and
// presenting the same pair again returns nil without touching the key. A
// search client sees the same few hundred owner signatures — one per document
// record, one per term list — query after query, so after the first sighting
// of each the public-key operation disappears from its verification cost.
//
// Soundness. The memo is bound to ONE inner verifier, i.e. one public key,
// and records only pairs that key accepted. An entry's key is
// SHA-256(SHA-256(msg) ‖ sig) — the fixed-width inner digest makes the
// concatenation unambiguous — so a hit means this exact message with this
// exact signature already passed the real check, up to a SHA-256 collision,
// which is the assumption the signature scheme itself rests on. A failed
// verification is never recorded, a different message or a different
// signature is a different key, and eviction can only turn a would-be hit
// into a real verification, never the reverse. Freshness is not the
// per-structure signatures' job (the generation-stamped manifest carries
// it, docs/UPDATES.md), which is why entries may outlive a generation bump:
// a signature the owner reused is still a signature the owner made.
//
// Safe for concurrent use.
type MemoVerifier struct {
	inner    Verifier
	capacity int

	mu sync.Mutex
	// Two-generation rotation: inserts go to cur; when cur is full it
	// becomes old and the previous old is dropped. A hit in old is promoted,
	// so pairs in use survive rotation and the rest age out.
	cur, old map[[sha256.Size]byte]struct{}

	// Outcomes not yet collected by TakeCounts.
	verified, hits atomic.Uint64
}

// Memoize wraps v in a MemoVerifier with an empty memo. A v that already is
// one is returned as is, so verifiers derived from a memoised one (the shard
// clients of a sharded client) share its memo.
func Memoize(v Verifier) *MemoVerifier {
	if m, ok := v.(*MemoVerifier); ok {
		return m
	}
	return newMemoVerifier(v, memoCapacity)
}

func newMemoVerifier(v Verifier, capacity int) *MemoVerifier {
	return &MemoVerifier{inner: v, capacity: capacity, cur: make(map[[sha256.Size]byte]struct{})}
}

// Verify implements Verifier.
func (m *MemoVerifier) Verify(msg, sigBytes []byte) error {
	digest := sha256.Sum256(msg)
	// Stack space for signatures up to RSA-2048; larger ones spill to the heap.
	var buf [sha256.Size + 256]byte
	key := sha256.Sum256(append(append(buf[:0], digest[:]...), sigBytes...))

	m.mu.Lock()
	_, hit := m.cur[key]
	if !hit {
		if _, hit = m.old[key]; hit {
			m.insertLocked(key)
		}
	}
	m.mu.Unlock()
	if hit {
		m.hits.Add(1)
		return nil
	}
	if err := m.inner.Verify(msg, sigBytes); err != nil {
		return err
	}
	m.verified.Add(1)
	m.mu.Lock()
	m.insertLocked(key)
	m.mu.Unlock()
	return nil
}

func (m *MemoVerifier) insertLocked(key [sha256.Size]byte) {
	if len(m.cur) >= m.capacity {
		m.old, m.cur = m.cur, make(map[[sha256.Size]byte]struct{}, m.capacity)
	}
	m.cur[key] = struct{}{}
}

// Size implements Verifier.
func (m *MemoVerifier) Size() int { return m.inner.Size() }

// Inner returns the wrapped verifier — the public key itself, for code that
// publishes it.
func (m *MemoVerifier) Inner() Verifier { return m.inner }

// TakeCounts returns how many checks ran the real verification and
// succeeded, and how many were answered from the memo, since the previous
// call — and resets both, so that totals summed over calls are exact however
// the calls interleave with concurrent Verifys.
func (m *MemoVerifier) TakeCounts() (verified, hits uint64) {
	return m.verified.Swap(0), m.hits.Swap(0)
}
