package wire

import (
	"bytes"
	"container/list"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Held bodies. A client checks every result body by hashing it into the
// collection's commitment — the document-hash tree under TNRA, the document
// root under TRA — so a body it has verified once is bound by that same
// digest whenever an answer returns it again, and sending it again only
// adds bytes. A client therefore keeps the bodies it verified (BodyStore)
// and summarises their digests in each request it offers frames on: a Bloom
// filter of fixed size (HeldSummary), built from the digests' own bits. A
// frame sends a hit whose digest the summary contains as that digest in
// place of its body, and the client fills the body back in from its store
// before verification, which hashes it as ever. A reference is the full
// digest, so an honest answer cannot fail its content check; a reference
// the store cannot fill — a false positive of the filter, or a body evicted
// while the request was in flight — is a plain miss (ErrHeldMiss), and the
// request is asked again without a summary (docs/PROTOCOL.md "Held
// bodies"). The server keeps no per-client state: the digests are the
// document-hash leaves it already holds.

// HeldSummaryBytes is the size of a held-body summary: 4 096 filter bits.
const HeldSummaryBytes = 512

// MaxHeldBodies bounds the bodies a client holds. Full, its summary's
// false-positive rate is (1 − e^(−heldProbes·256/4096))^heldProbes ≈ 1/2 200.
const MaxHeldBodies = 256

// heldGrace is how many of the bodies it evicted most recently a store
// keeps aside, for the answers to requests whose summaries still named them:
// with several requests in flight, each answer's new bodies evict the oldest
// while the others are on the wire. No summary names them.
const heldGrace = 32

// heldProbes is the number of filter bits each digest sets: ln 2 · 4096/256,
// rounded, which minimises the false-positive rate of a full summary.
const heldProbes = 11

// Digest lengths a reference may carry: the hash sizes sig accepts.
const minDigestBytes, maxDigestBytes = 8, 32

// heldEncoding is how a summary travels in its request header: unpadded
// URL-safe base64, canonical (Strict), so one summary has one spelling.
var heldEncoding = base64.RawURLEncoding.Strict()

// HeldSummary is a Bloom filter over the digests of the bodies a client
// holds. Bit i of the filter is bit i%8 of byte i/8.
type HeldSummary struct {
	bits [HeldSummaryBytes]byte
}

// probes returns the enhanced double-hashing pair that places digest's
// filter bits (probe) from its first eight bytes, which are already uniform
// (a truncated SHA-256). A digest of no hash size has none (ok false): it
// sets and matches nothing.
func probes(digest []byte) (h1, h2 uint32, ok bool) {
	if len(digest) < minDigestBytes || len(digest) > maxDigestBytes {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(digest), binary.BigEndian.Uint32(digest[4:]), true
}

// probe is filter bit i of a digest: (h1 + i·h2 + (i³ − i)/6) mod 4096.
// Plain double hashing, h1 + i·h2, needs an odd h2 over a power-of-two
// filter, or a digest's bits repeat, and so places digests in half as many
// patterns; with the cubic term every h2 serves, and the false-positive
// rate measures as an ideal filter's (TestHeldSummary).
func probe(h1, h2, i uint32) uint32 {
	return (h1 + i*h2 + (i*i*i-i)/6) % (8 * HeldSummaryBytes)
}

// Has reports whether the summary contains digest: always when the client
// holds the body, and for at most about one other digest in 2 200. A nil
// summary contains nothing.
func (s *HeldSummary) Has(digest []byte) bool {
	h1, h2, ok := probes(digest)
	if s == nil || !ok {
		return false
	}
	for i := uint32(0); i < heldProbes; i++ {
		if bit := probe(h1, h2, i); s.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// String is the summary as its request header carries it.
func (s *HeldSummary) String() string { return heldEncoding.EncodeToString(s.bits[:]) }

// ParseHeldSummary reads a summary from its header value. Anything but the
// one canonical spelling of HeldSummaryBytes is ignored (nil): a server
// then sends every body in full. Its work is bounded by the fixed length,
// checked before anything is decoded.
func ParseHeldSummary(v string) *HeldSummary {
	if len(v) != heldEncoding.EncodedLen(HeldSummaryBytes) {
		return nil
	}
	s := new(HeldSummary)
	if n, err := heldEncoding.Decode(s.bits[:], []byte(v)); err != nil || n != HeldSummaryBytes {
		return nil
	}
	return s
}

// ErrHeldMiss reports a frame that refers to a body its client does not
// hold: a false positive of the summary, or a body evicted while the
// request was in flight. It is no tampering; the request is asked again
// without a summary.
var ErrHeldMiss = errors.New("wire: the frame refers to a body this client does not hold")

// BodyStore is one client's verified bodies, keyed by content digest: the
// MaxHeldBodies it used most recently, least recently used out, which its
// summary names, and the heldGrace it evicted last, which only answers
// already in flight can refer to. Each connection to a deployment keeps its
// own, so a summary names only bodies its own server sent. The zero value
// holds none. Bodies go in and come out as copies: nothing a caller does to
// a result reaches a later answer. Each answer takes the lock twice — its
// references, the bodies it verified — and a full store allocates nothing
// to keep a body, so that concurrent searches through one client seldom
// wait on each other or on the collector.
type BodyStore struct {
	mu       yieldingMutex
	lru      list.List // of *held, most recently used first
	byDigest map[digestKey]*list.Element
	evicted  [heldGrace]*held // a ring, next the slot to overwrite
	next     int
	// counts is a counting Bloom filter over the held digests, sum its
	// bits: bit i is set while counts[i] > 0, so an eviction clears the
	// bits no held digest still sets, and sum names the held bodies alone.
	// A counter cannot overflow: at most MaxHeldBodies·heldProbes digests'
	// bits are counted. summary is sum's header value, which Keep
	// publishes for Held to read without the lock; nil while none is held.
	counts  [8 * HeldSummaryBytes]uint16
	sum     HeldSummary
	summary atomic.Pointer[string]
}

// yieldingMutex is a mutex whose waiters yield their processor before they
// park. Every hold of a BodyStore lasts a few microseconds, but concurrent
// searches through one client take it twice an answer, and a goroutine
// parked on a contended sync.Mutex can wait far longer than the hold to run
// again: with two searches in flight through one client, a plain mutex
// cost a quarter of the closed-loop throughput, most of which yielding
// keeps.
type yieldingMutex struct{ sync.Mutex }

func (m *yieldingMutex) Lock() {
	for range 100 {
		if m.TryLock() {
			return
		}
		runtime.Gosched()
	}
	m.Mutex.Lock()
}

// HeldBody is a result body with the content digest verification bound it
// by.
type HeldBody struct{ Digest, Body []byte }

// held is a stored body: its digest and then the body, in one buffer that
// the next body kept reuses once this one has left the ring of evicted
// bodies.
type held struct {
	buf []byte
	n   int // the digest's length
}

func (h *held) digest() []byte { return h.buf[:h.n] }
func (h *held) body() []byte   { return h.buf[h.n:] }

// digestKey is a digest as a map key: its length and its bytes.
type digestKey struct {
	n byte
	b [maxDigestBytes]byte
}

func keyOf(digest []byte) (k digestKey) {
	k.n = byte(copy(k.b[:], digest))
	return k
}

// Keep makes bodies — each bound to its digest by a verification that has
// just passed — the most recently used, storing a copy of each one not held.
func (s *BodyStore) Keep(bodies []HeldBody) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range bodies {
		s.keep(b)
	}
	if s.lru.Len() > 0 {
		summary := s.sum.String()
		s.summary.Store(&summary)
	}
}

func (s *BodyStore) keep(b HeldBody) {
	if _, _, ok := probes(b.Digest); !ok {
		return
	}
	k := keyOf(b.Digest)
	if e, ok := s.byDigest[k]; ok {
		s.lru.MoveToFront(e)
		return
	}
	if s.byDigest == nil {
		s.byDigest = make(map[digestKey]*list.Element, MaxHeldBodies)
	}
	var h *held
	e := s.lru.Back()
	if s.lru.Len() < MaxHeldBodies {
		h = new(held)
		e = s.lru.PushFront(h)
	} else {
		// The least recently used body joins the ring; the one the ring
		// drops is referenced nowhere else, and its buffer takes this body.
		old := e.Value.(*held)
		delete(s.byDigest, keyOf(old.digest()))
		s.count(old.digest(), false)
		h, s.evicted[s.next] = s.evicted[s.next], old
		s.next = (s.next + 1) % heldGrace
		if h == nil {
			h = new(held)
		}
		e.Value = h
		s.lru.MoveToFront(e)
	}
	h.buf, h.n = append(append(h.buf[:0], b.Digest...), b.Body...), len(b.Digest)
	s.byDigest[k] = e
	s.count(b.Digest, true)
}

// count counts digest's filter bits in (add) or out of the summary.
func (s *BodyStore) count(digest []byte, add bool) {
	h1, h2, _ := probes(digest)
	for i := uint32(0); i < heldProbes; i++ {
		bit := probe(h1, h2, i)
		if add {
			s.counts[bit]++
		} else {
			s.counts[bit]--
		}
		if s.counts[bit] > 0 {
			s.sum.bits[bit/8] |= 1 << (bit % 8)
		} else {
			s.sum.bits[bit/8] &^= 1 << (bit % 8)
		}
	}
}

// body returns a copy of the body held under digest, or evicted last. Only
// Keep, once the answer has verified, makes a body the most recently used.
// The caller holds s.mu.
func (s *BodyStore) body(digest []byte) ([]byte, bool) {
	if e, ok := s.byDigest[keyOf(digest)]; ok {
		return bytes.Clone(e.Value.(*held).body()), true
	}
	for _, h := range s.evicted {
		if h != nil && bytes.Equal(h.digest(), digest) {
			return bytes.Clone(h.body()), true
		}
	}
	return nil, false
}

// Held snapshots s for one request: summary is the header value naming the
// bodies held ("" for none), and refs — nil for none — resolves its
// answer's references and counts them.
func (s *BodyStore) Held() (summary string, refs *HeldRefs) {
	p := s.summary.Load()
	if p == nil {
		return "", nil
	}
	return *p, &HeldRefs{store: s}
}

// HeldRefs resolves the references of one answer against the store whose
// summary its request sent: Used counts the bodies filled from it, Missed
// the references it could not fill.
type HeldRefs struct {
	store        *BodyStore
	pending      []*Hit // decoded as references, awaiting their bodies
	Used, Missed int
}

// fill sets the Content of every pending hit to a copy of the body held
// under its Digest, and counts the hits it fills and those it cannot.
func (r *HeldRefs) fill() {
	pending := r.pending
	r.pending = nil
	if len(pending) == 0 {
		return
	}
	r.store.mu.Lock()
	defer r.store.mu.Unlock()
	for _, h := range pending {
		if body, ok := r.store.body(h.Digest); ok {
			h.Content = body
			r.Used++
		} else {
			r.Missed++
		}
	}
}

// Hits sent by the frames of this process, behind
// authtext_wire_held_hits_total.
var hitsReferenced, hitsSent atomic.Uint64

// HeldHitStats counts the hits of every search frame encoded: Referenced
// went as the digest of a body the request's summary holds, Sent as the
// body.
type HeldHitStats struct{ Referenced, Sent uint64 }

// HeldHits returns the process-wide hit counts.
func HeldHits() HeldHitStats { return HeldHitStats{hitsReferenced.Load(), hitsSent.Load()} }
