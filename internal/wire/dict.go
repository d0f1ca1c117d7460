package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Collection dictionaries. Every document a collection serves is written in
// the vocabulary its index holds in memory (§4.1), and every server of the
// collection holds that index. So a frame deflates each document body with
// the vocabulary as preset history (RFC 1951's window, filled before the
// first byte): a body's words become back-references into the dictionary
// instead of literals coded again in every stream. The dictionary is a pure
// function of the vocabulary's term set (CollectionDictionary), so every
// server that opens a generation derives the same bytes, and a publish that
// keeps the vocabulary keeps the dictionary, its id and every memo entry
// keyed by it, on both ends of the wire. A server that publishes or reloads
// generation after generation keeps its dictionary through publishes that
// change the vocabulary a little, too (NextDictionary).
//
// A frame names the dictionary by its SHA-256 and carries it in full only
// when the request did not name it among those the client holds
// (docs/PROTOCOL.md "Binary framing"). A client keeps the few most recently
// used dictionaries of its own connection (DictionaryStore); the memos,
// keyed by the dictionary's hash, are the process's. The dictionary adds
// no trust: it only says how the bytes of a body are put
// back together, and every body is still checked against the proof.

// MaxDictionaryBytes is the deflate window: history further back than this
// cannot be referred to, so no dictionary is longer.
const MaxDictionaryBytes = 32 << 10

// MaxHeldDictionaries bounds the dictionaries a client holds, and so the
// ids a request names and a server reads.
const MaxHeldDictionaries = 4

// Dictionary is a preset deflate dictionary and its identity. The bytes are
// immutable once built.
type Dictionary struct {
	id  [sha256.Size]byte
	hex string
	b   []byte
	// writers pools BestCompression writers preset with b (flate.Writer.Reset
	// keeps a writer's dictionary); only the server's copy ever uses it.
	writers sync.Pool
}

// NewDictionary wraps b as a dictionary; b must not change afterwards.
func NewDictionary(b []byte) *Dictionary { return newDictionary(b, sha256.Sum256(b)) }

// newDictionary wraps b, whose SHA-256 is id.
func newDictionary(b []byte, id [sha256.Size]byte) *Dictionary {
	return &Dictionary{id: id, hex: hex.EncodeToString(id[:]), b: b}
}

// ID is the dictionary's SHA-256 in lower-case hex, as requests name it.
func (d *Dictionary) ID() string { return d.hex }

// sum returns d's SHA-256, the zero array for no dictionary: the part of a
// memo key that says which history a stream was made against.
func (d *Dictionary) sum() [sha256.Size]byte {
	if d == nil {
		return [sha256.Size]byte{}
	}
	return d.id
}

// preset returns d's bytes, nil for no dictionary.
func (d *Dictionary) preset() []byte {
	if d == nil {
		return nil
	}
	return d.b
}

// CollectionDictionary is the one rule that turns a vocabulary into its
// dictionary: the term names, longest to shortest, ties in ascending byte
// order (which is term-ID order), separated by single spaces, and of that
// the last MaxDictionaryBytes. The terms most bodies repeat are short, and
// at the end they sit nearest the body, where deflate's distance codes are
// cheapest. Each vocabulary is one index's names in term-ID order; a shard
// set passes every shard's, and the dictionary is their union's. It is
// O(M) in the names — bucketed by length, never comparison-sorted — and
// returns nil for an empty vocabulary.
func CollectionDictionary(vocabs ...[]string) *Dictionary {
	names := union(vocabs)
	if len(names) == 0 {
		return nil
	}
	// Longest first: bucket i of the order starts where the longer buckets end.
	longest := 0
	for _, n := range names {
		longest = max(longest, len(n))
	}
	start := make([]int, longest+1)
	for _, n := range names {
		start[len(n)]++
	}
	for l, pos := longest, 0; l >= 0; l-- {
		start[l], pos = pos, pos+start[l]
	}
	order := make([]string, len(names))
	for _, n := range names {
		order[start[len(n)]] = n
		start[len(n)]++
	}
	// Only the tail survives the window: join from the first name that
	// reaches into it.
	first, size := len(order), -1
	for first > 0 && size < MaxDictionaryBytes {
		first--
		size += len(order[first]) + 1
	}
	b := []byte(strings.Join(order[first:], " "))
	if len(b) > MaxDictionaryBytes {
		b = bytes.Clone(b[len(b)-MaxDictionaryBytes:])
	}
	return NewDictionary(b)
}

// NextDictionary returns the dictionary a server serves for a new
// generation whose own (CollectionDictionary) is next, when it served prev
// for the one before: prev while next names few terms prev lacks — at most
// one in sixteen of next's — and next otherwise. A publish that brings a
// few new terms then keeps every memo entry keyed by the dictionary, on
// both ends of the wire, and every client's copy; only a vocabulary that
// has drifted costs a swap. A stale dictionary only compresses the new
// terms less well: which dictionary a frame names never matters to its
// verification.
func NextDictionary(prev, next *Dictionary) *Dictionary {
	if prev == nil || next == nil {
		return next
	}
	if prev.id == next.id {
		return prev
	}
	held := make(map[string]bool)
	for _, n := range bytes.Fields(prev.b) {
		held[string(n)] = true
	}
	names := bytes.Fields(next.b)
	fresh := 0
	for _, n := range names {
		if !held[string(n)] {
			fresh++
		}
	}
	if 16*fresh > len(names) {
		return next
	}
	return prev
}

// union merges name lists, each in ascending byte order, into their union
// in that order.
func union(vocabs [][]string) []string {
	if len(vocabs) == 1 {
		return vocabs[0]
	}
	total := 0
	for _, v := range vocabs {
		total += len(v)
	}
	out := make([]string, 0, total)
	heads := make([]int, len(vocabs))
	for {
		best := -1
		for i, v := range vocabs {
			if heads[i] < len(v) && (best < 0 || v[heads[i]] < vocabs[best][heads[best]]) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		if n := vocabs[best][heads[best]]; len(out) == 0 || out[len(out)-1] != n {
			out = append(out, n)
		}
		heads[best]++
	}
}

// Dictionary outcomes since process start: frames that carried a
// dictionary in full (the server's side), and attached dictionaries a
// client installed or refused. Behind authtext_wire_dictionaries_attached_total
// and authtext_client_wire_dictionaries_total.
var dictAttached, dictInstalled, dictRefused atomic.Uint64

// DictionaryStats counts collection dictionaries on the wire: Attached
// frames encoded with their dictionary in full; Installed dictionaries a
// decoder took from a frame into its client's store, Refused ones it
// rejected because they do not hash to the id the frame names or exceed
// the window.
type DictionaryStats struct{ Attached, Installed, Refused uint64 }

// Dictionaries returns the process-wide dictionary counts.
func Dictionaries() DictionaryStats {
	return DictionaryStats{dictAttached.Load(), dictInstalled.Load(), dictRefused.Load()}
}

// DictionaryStore is one client's dictionaries: the MaxHeldDictionaries it
// used most recently, least recently used out. Each connection to a
// deployment keeps its own, so a request names only dictionaries its own
// server sent — never another deployment's — and one deployment's traffic
// never evicts another's. The zero value holds none.
type DictionaryStore struct {
	mu  sync.Mutex
	lru []*Dictionary // most recently used first
	// held is lru as a set, with the request header's value: rebuilt only
	// when a dictionary comes or goes, never when the order changes.
	held atomic.Pointer[heldSet]
}

type heldSet struct {
	dicts []*Dictionary
	names string
}

// Held snapshots s for one request: names is the value that request names
// its dictionaries by — their ids, comma-separated, "" for none — and dec
// decodes its answer. dec keeps those very dictionaries, so a frame that
// names one of them without carrying it decodes whatever s evicts while the
// answer is in flight.
func (s *DictionaryStore) Held() (names string, dec Decoding) {
	dec.store = s
	if h := s.held.Load(); h != nil {
		names, dec.Held = h.names, h.dicts
	}
	return names, dec
}

// use makes d the most recently used dictionary of s, installing it unless
// s holds one of its id, and returns the one s holds and whether d was
// installed. A nil store holds nothing: d comes back as it is.
func (s *DictionaryStore) use(d *Dictionary) (*Dictionary, bool) {
	if s == nil {
		return d, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, h := range s.lru {
		if h.id == d.id {
			copy(s.lru[1:i+1], s.lru[:i])
			s.lru[0] = h
			return h, false
		}
	}
	if len(s.lru) < MaxHeldDictionaries {
		s.lru = append(s.lru, nil)
	}
	copy(s.lru[1:], s.lru)
	s.lru[0] = d
	ids := make([]string, len(s.lru))
	for i, h := range s.lru {
		ids[i] = h.hex
	}
	s.held.Store(&heldSet{dicts: slices.Clone(s.lru), names: strings.Join(ids, ",")})
	return d, true
}

// Decoding says which dictionaries a frame may name without carrying them:
// Held, those its request named. Made by DictionaryStore.Held, it also
// makes the dictionary a frame uses that store's most recently used,
// installing one the frame carried. Bodies resolves the hits a frame sends
// by reference (BodyStore.Held): nil when the request named no held body,
// and then a frame that refers to one is malformed. The zero Decoding holds
// none and installs nowhere: it decodes frames that name no dictionary or
// carry the one they name, and send every body.
type Decoding struct {
	Held   []*Dictionary
	Bodies *HeldRefs
	store  *DictionaryStore
}

// resolve returns the dictionary a frame names by id: attached, which must
// hash to id, or one of dec.Held.
func (dec Decoding) resolve(id [sha256.Size]byte, attached []byte, isAttached bool) (*Dictionary, error) {
	var d *Dictionary
	for _, h := range dec.Held {
		if h.id == id {
			d = h
			break
		}
	}
	if isAttached {
		if sha256.Sum256(attached) != id {
			dictRefused.Add(1)
			return nil, frameErr("the attached dictionary does not hash to the id the frame names")
		}
		if d == nil {
			d = newDictionary(bytes.Clone(attached), id)
		}
		var installed bool
		if d, installed = dec.store.use(d); installed {
			dictInstalled.Add(1)
		}
		return d, nil
	}
	if d == nil {
		return nil, frameErr("the frame names dictionary %s…, which its request did not name and it does not carry", hex.EncodeToString(id[:8]))
	}
	d, _ = dec.store.use(d)
	return d, nil
}
