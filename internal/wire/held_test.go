package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// digestOf is a 16-byte content digest, as the default hash size gives.
func digestOf(body []byte) []byte {
	sum := sha256.Sum256(body)
	return sum[:16]
}

// withDigests returns r with every hit's Digest set, as a server sends it.
func withDigests(r *SearchResponse) *SearchResponse {
	for i := range r.Hits {
		r.Hits[i].Digest = digestOf(r.Hits[i].Content)
	}
	return r
}

// heldStore returns a store holding bodies, and the summary it sends.
func heldStore(bodies ...[]byte) (*BodyStore, *HeldSummary) {
	s := new(BodyStore)
	for _, b := range bodies {
		s.Keep([]HeldBody{{digestOf(b), b}})
	}
	summary, _ := s.Held()
	return s, ParseHeldSummary(summary)
}

// take returns a copy of the body s holds under digest, as an answer's
// reference gets it.
func (s *BodyStore) take(digest []byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.body(digest)
}

// A full summary — MaxHeldBodies digests — contains every one of them and
// at most one other digest in a thousand; its header value parses back to
// it, and nothing but that one spelling parses. A store that has evicted
// bodies sends the summary a store holding only what it holds would send.
func TestHeldSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	digest := func() []byte {
		d := make([]byte, 16)
		rng.Read(d)
		return d
	}
	s := new(BodyStore)
	var kept [][]byte
	for i := 0; i < MaxHeldBodies; i++ {
		d := digest()
		kept = append(kept, d)
		s.Keep([]HeldBody{{d, []byte("body")}})
	}
	value, refs := s.Held()
	if refs == nil || len(value) != heldEncoding.EncodedLen(HeldSummaryBytes) {
		t.Fatalf("a full store sends a %d-byte header value", len(value))
	}
	sum := ParseHeldSummary(value)
	if sum == nil || sum.String() != value {
		t.Fatal("the summary does not round-trip through its header value")
	}
	for _, d := range kept {
		if !sum.Has(d) {
			t.Fatal("the summary lacks a digest its store holds")
		}
	}
	const probes = 200_000
	fp := 0
	for i := 0; i < probes; i++ {
		if sum.Has(digest()) {
			fp++
		}
	}
	t.Logf("false positives: %d in %d (%.2e)", fp, probes, float64(fp)/probes)
	if fp*1000 > probes {
		t.Fatalf("false-positive rate %d/%d exceeds 1/1000", fp, probes)
	}

	for i := 0; i < 3*MaxHeldBodies; i++ {
		s.Keep([]HeldBody{{digest(), []byte("body")}, {kept[rng.Intn(len(kept))], []byte("body")}})
	}
	fresh := new(BodyStore)
	for e := s.lru.Back(); e != nil; e = e.Prev() {
		h := e.Value.(*held)
		fresh.Keep([]HeldBody{{h.digest(), h.body()}})
	}
	churned, _ := s.Held()
	if want, _ := fresh.Held(); churned != want {
		t.Fatal("after evictions the summary names more than the bodies held")
	}

	for _, bad := range []string{"", value[1:], value + "A", strings.Repeat("!", len(value)),
		value[:len(value)-1] + "B", // the two spare bits set: not canonical
		strings.Repeat("A", 64<<10)} {
		if ParseHeldSummary(bad) != nil {
			t.Fatalf("a %d-byte malformed value parsed", len(bad))
		}
	}
	var nilSum *HeldSummary
	if nilSum.Has(kept[0]) || sum.Has(kept[0][:7]) || sum.Has(append(bytes.Repeat(kept[0], 2), 0)) {
		t.Fatal("no summary, or a digest of no hash size, matched")
	}
	if v, refs := new(BodyStore).Held(); v != "" || refs != nil {
		t.Fatal("an empty store sends a summary")
	}
}

// The store keeps the MaxHeldBodies bodies used most recently, as copies,
// and hands out copies; its summary no longer names an evicted body, which
// can be taken until heldGrace more have been evicted after it.
func TestBodyStoreLRU(t *testing.T) {
	s := new(BodyStore)
	body := func(i int) []byte { return []byte(fmt.Sprintf("body %d", i)) }
	keep := func(b []byte) { s.Keep([]HeldBody{{digestOf(b), b}}) }
	for i := 0; i <= MaxHeldBodies; i++ {
		b := body(i)
		keep(b)
		b[0] = 'X' // the caller's slice is not the store's
		if i == 0 {
			keep(body(0)) // already held: only touched
		}
		if i == MaxHeldBodies-1 {
			keep(body(0)) // body 0 most recently used: body 1 goes next
		}
	}
	if summary, _ := s.Held(); s.byDigest[keyOf(digestOf(body(1)))] != nil || ParseHeldSummary(summary).Has(digestOf(body(1))) {
		t.Fatal("the least recently used body survived a full store's insert")
	}
	if got, ok := s.take(digestOf(body(1))); !ok || !bytes.Equal(got, body(1)) {
		t.Fatal("a body evicted last cannot be taken by an answer in flight")
	}
	for i := 0; i < heldGrace; i++ {
		keep(body(MaxHeldBodies + 1 + i))
	}
	// Each of those reused the buffer of a body the ring dropped, or a new
	// one: every body held is still its own.
	for i := MaxHeldBodies - heldGrace + 2; i <= MaxHeldBodies+heldGrace; i++ {
		if got, ok := s.take(digestOf(body(i))); !ok || !bytes.Equal(got, body(i)) {
			t.Fatalf("body %d: %q, %v", i, got, ok)
		}
	}
	if _, ok := s.take(digestOf(body(1))); ok {
		t.Fatalf("a body evicted %d evictions ago can still be taken", heldGrace+1)
	}
	keep(body(0))
	got, ok := s.take(digestOf(body(0)))
	if !ok || !bytes.Equal(got, body(0)) {
		t.Fatalf("body 0: %q, %v", got, ok)
	}
	got[0] = 'X'
	if again, _ := s.take(digestOf(body(0))); !bytes.Equal(again, body(0)) {
		t.Fatal("a caller's write reached the stored body")
	}
	if s.lru.Len() != MaxHeldBodies || len(s.byDigest) != MaxHeldBodies {
		t.Fatalf("%d bodies held, want %d", s.lru.Len(), MaxHeldBodies)
	}
}

// A hit the summary holds travels as its digest and comes back as a copy of
// the held body; an answer that refers to no held body is the frame it
// always was; a reference the store cannot fill is ErrHeldMiss; a frame
// that refers to held bodies decodes only for a request that named some.
func TestHeldReferencesRoundTrip(t *testing.T) {
	want := withDigests(sampleSearchResponse())
	store, sum := heldStore(want.Hits[1].Content)

	plain := EncodeSearchResponse(want)
	_, unrelated := heldStore([]byte("a body no answer returns"))
	if got := (Encoding{Held: unrelated}).SearchResponse(withDigests(verboseSearchResponse())); !bytes.Equal(got, EncodeSearchResponse(verboseSearchResponse())) {
		t.Fatal("an answer that refers to no held body is not the frame it was")
	}
	before := HeldHits()
	frame := Encoding{Held: sum}.SearchResponse(want)
	if st := HeldHits(); st.Referenced-before.Referenced != 1 || st.Sent-before.Sent != 2 {
		t.Fatalf("hit counts moved by %+v → %+v, want one reference and two bodies", before, st)
	}
	if binary.BigEndian.Uint16(frame[6:])&flagHeldRefs == 0 || len(frame) >= len(plain) {
		t.Fatalf("a frame with a reference: flags %#x, %d bytes against %d", frame[7], len(frame), len(plain))
	}

	_, refs := store.Held()
	got, err := Decoding{Bodies: refs}.SearchResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if refs.Used != 1 || refs.Missed != 0 || !bytes.Equal(got.Hits[1].Digest, want.Hits[1].Digest) {
		t.Fatalf("used %d, missed %d, digest %x", refs.Used, refs.Missed, got.Hits[1].Digest)
	}
	for i := range got.Hits {
		if !bytes.Equal(got.Hits[i].Content, want.Hits[i].Content) {
			t.Fatalf("hit %d decodes to another body", i)
		}
		got.Hits[i].Digest, want.Hits[i].Digest = nil, nil
	}
	got.Hits[1].Content[0] ^= 1
	if again, _ := store.take(digestOf(want.Hits[1].Content)); !bytes.Equal(again, want.Hits[1].Content) {
		t.Fatal("a write to a decoded hit reached the held body")
	}
	got.Hits[1].Content[0] ^= 1
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	other, _ := heldStore([]byte("another body"))
	_, refs = other.Held()
	if _, err := (Decoding{Bodies: refs}).SearchResponse(frame); !errors.Is(err, ErrHeldMiss) || refs.Missed != 1 {
		t.Fatalf("a reference not held: %v (missed %d), want ErrHeldMiss", err, refs.Missed)
	}
	if _, err := DecodeSearchResponse(frame); !errors.Is(err, ErrFrame) {
		t.Fatalf("references to a request that named no held body: %v, want ErrFrame", err)
	}
}

// A fan-out answer uses the same hit encoding: a reference in any shard's
// answer tags every shard's hits.
func TestHeldReferencesSharded(t *testing.T) {
	a, b := withDigests(sampleSearchResponse()), withDigests(verboseSearchResponse())
	want := &ShardedSearchResponse{Query: "q", R: 3, Algo: "tnra", Scheme: "cmht", Generation: 2,
		Shards: []SearchResponse{*a, *b}, Merged: []MergedHit{{Shard: 1, DocID: 2, GlobalID: 9, Score: 1}}}
	store, sum := heldStore(b.Hits[3].Content)
	frame := Encoding{Held: sum}.ShardedSearchResponse(want)
	_, refs := store.Held()
	got, err := Decoding{Bodies: refs}.ShardedSearchResponse(frame)
	if err != nil || refs.Used != 1 {
		t.Fatalf("%v, %d used", err, refs.Used)
	}
	for i := range want.Shards {
		for j := range want.Shards[i].Hits {
			if !bytes.Equal(got.Shards[i].Hits[j].Content, want.Shards[i].Hits[j].Content) {
				t.Fatalf("shard %d hit %d decodes to another body", i, j)
			}
		}
	}
}

// taggedAnswer is the payload of a one-hit search answer whose hit carries
// tag and then field as a byte string.
func taggedAnswer(tag byte, field []byte) []byte {
	b := appendStr(nil, "q")
	b = binary.BigEndian.AppendUint32(b, 1)
	b = appendStr(b, "tnra")
	b = appendStr(b, "cmht")
	b = binary.BigEndian.AppendUint64(b, 1)
	b = binary.BigEndian.AppendUint32(b, 1)
	b = binary.BigEndian.AppendUint64(b, 3)
	b = binary.BigEndian.AppendUint64(b, 0)
	b = append(b, tag)
	b = binary.BigEndian.AppendUint32(b, uint32(len(field)))
	b = append(b, field...)
	b = binary.BigEndian.AppendUint32(b, 0) // no VO
	return appendSearchStats(b, &SearchStats{})
}

// Hostile tags and references are decode errors, not misses; a manifest
// frame cannot refer to held bodies.
func TestHeldReferencesHostile(t *testing.T) {
	body := []byte("a held body")
	store, _ := heldStore(body)
	digest := digestOf(body)
	for name, tc := range map[string]struct {
		raw  []byte
		want error
	}{
		"held":           {taggedAnswer(hitRef, digest), nil},
		"body":           {taggedAnswer(hitBody, body), nil},
		"not held":       {taggedAnswer(hitRef, digestOf([]byte("other"))), ErrHeldMiss},
		"short digest":   {taggedAnswer(hitRef, digest[:7]), ErrDecode},
		"long digest":    {taggedAnswer(hitRef, bytes.Repeat(digest, 3)), ErrDecode},
		"unknown tag":    {taggedAnswer(7, digest), ErrDecode},
		"untagged frame": {taggedAnswer(hitRef, digest)[:0], ErrDecode},
	} {
		_, refs := store.Held()
		got, err := Decoding{Bodies: refs}.SearchResponse(frameOf(TypeSearch, flagHeldRefs, tc.raw))
		if tc.want == nil && (err != nil || !bytes.Equal(got.Hits[0].Content, body)) {
			t.Fatalf("%s: %v", name, err)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s: %v, want %v", name, err, tc.want)
		}
	}
	m := EncodeManifestResponse(&ManifestResponse{Format: "atcx1", Export: []byte("blob")})
	_, refs := store.Held()
	if _, _, err := (Decoding{Bodies: refs}).Frame(frameOf(TypeManifest, flagHeldRefs, m[HeaderSize:])); !errors.Is(err, ErrFrame) {
		t.Fatalf("a manifest that refers to held bodies: %v, want ErrFrame", err)
	}
}
