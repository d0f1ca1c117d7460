package wire

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// dictFrame assembles a chunked frame with any dictionary fields: flags are
// ORed with flagChunked, id follows the header when named, and dict (with
// its length) when attached. CRC and length agree with what follows.
func dictFrame(typ byte, flags uint16, id [sha256.Size]byte, dict, payload []byte) []byte {
	var body []byte
	if flags&flagDictNamed != 0 {
		body = append(body, id[:]...)
	}
	if flags&flagDictAttached != 0 {
		body = binary.BigEndian.AppendUint32(body, uint32(len(dict)))
		body = append(body, dict...)
	}
	return frameOf(typ, flags|flagChunked, append(body, payload...))
}

// frameOf frames body, whatever it holds, under a header whose flags are
// flags and whose CRC and length agree with body.
func frameOf(typ byte, flags uint16, body []byte) []byte {
	out := append([]byte(frameMagic), FrameVersion, typ)
	out = binary.BigEndian.AppendUint16(out, flags)
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
	out = binary.BigEndian.AppendUint64(out, uint64(len(body)))
	return append(out, body...)
}

// dictStream deflates sec against dict with a fresh writer.
func dictStream(t testing.TB, sec, dict []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriterDict(&buf, flate.BestCompression, dict)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(sec)
	fw.Close()
	return buf.Bytes()
}

// testVocabulary is a vocabulary in term-ID (ascending byte) order.
var testVocabulary = []string{"authenticate", "chain", "digest", "document", "index", "merkle", "posting", "proof", "tree"}

// bodyOf writes a document body in testVocabulary.
func bodyOf(i int) []byte {
	var b bytes.Buffer
	for j := 0; b.Len() < 700; j++ {
		fmt.Fprintf(&b, "%s %s %s; ", testVocabulary[(i+j)%len(testVocabulary)], testVocabulary[(3*j+i)%len(testVocabulary)], testVocabulary[(j*j)%len(testVocabulary)])
	}
	return b.Bytes()
}

// The rule: longest names first, ties in term-ID order, one space apart; a
// shard set's dictionary is its union's; only the last window survives; and
// the bytes depend on the term set alone.
func TestCollectionDictionaryRule(t *testing.T) {
	d := CollectionDictionary(testVocabulary)
	want := "authenticate document posting digest merkle chain index proof tree"
	if string(d.b) != want {
		t.Fatalf("dictionary %q, want %q", d.b, want)
	}
	if sum := sha256.Sum256([]byte(want)); d.ID() != fmt.Sprintf("%x", sum) || len(d.b) != len(want) {
		t.Fatalf("id %s, length %d", d.ID(), len(d.b))
	}
	// Two shards with overlapping vocabularies: the union, each name once.
	shards := CollectionDictionary(testVocabulary[:6], testVocabulary[3:])
	if shards.ID() != d.ID() {
		t.Fatalf("a shard set's dictionary %q is not its union's %q", shards.b, d.b)
	}
	if CollectionDictionary(testVocabulary[1:]).ID() == d.ID() {
		t.Fatal("a vocabulary change kept the dictionary")
	}
	if CollectionDictionary() != nil || CollectionDictionary(nil, nil) != nil {
		t.Fatal("an empty vocabulary has a dictionary")
	}
	// A vocabulary past the window keeps its tail: the shortest names, last.
	var big []string
	for i := 0; i < 6000; i++ {
		if big = append(big, fmt.Sprintf("term%07d", i)); i < 3000 {
			big = append(big, fmt.Sprintf("t%05d", i))
		}
	}
	large := CollectionDictionary(big)
	if len(large.b) != MaxDictionaryBytes || !bytes.HasSuffix(large.b, []byte("t02998 t02999")) ||
		!strings.Contains(string(large.b), "term0005999 t00000 ") {
		t.Fatalf("%d-byte dictionary ends %q", len(large.b), large.b[len(large.b)-40:])
	}
}

// Bodies deflate against the dictionary, proofs and exports do not, and the
// frame names the dictionary only when a body used it; every such frame
// decodes to its message whether the dictionary came attached or held.
func TestDictionaryFramesRoundTrip(t *testing.T) {
	resetMemo()
	d := CollectionDictionary(testVocabulary)
	r := verboseSearchResponse()
	for i := range r.Hits {
		r.Hits[i].Content = bodyOf(i)
	}
	attached := Encoding{Dict: d, Attach: true}.SearchResponse(r)
	named := Encoding{Dict: d}.SearchResponse(r)
	plain := EncodeSearchResponse(r)
	if flags := binary.BigEndian.Uint16(attached[6:]); flags != flagChunked|flagDictNamed|flagDictAttached {
		t.Fatalf("attached frame flags %#x", flags)
	}
	if flags := binary.BigEndian.Uint16(named[6:]); flags != flagChunked|flagDictNamed {
		t.Fatalf("named frame flags %#x", flags)
	}
	if len(attached) != len(named)+4+len(d.b) || len(named) >= len(plain) {
		t.Fatalf("frames of %d (attached), %d (named) and %d (no dictionary) bytes", len(attached), len(named), len(plain))
	}
	var store DictionaryStore
	if names, dec := store.Held(); names != "" || dec.store != &store {
		t.Fatalf("an empty store names %q", names)
	} else if _, err := dec.SearchResponse(named); err == nil {
		t.Fatal("a frame naming a dictionary its client does not hold decoded")
	}
	before := Dictionaries()
	for _, frame := range [][]byte{attached, named, attached} {
		_, dec := store.Held()
		got, err := dec.SearchResponse(frame)
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("dictionary frame did not round-trip: %v", err)
		}
	}
	if after := Dictionaries(); after.Installed-before.Installed != 1 || after.Refused != before.Refused {
		t.Fatalf("installed %d, refused %d dictionaries; want 1 and 0",
			after.Installed-before.Installed, after.Refused-before.Refused)
	}
	if names, _ := store.Held(); names != d.ID() {
		t.Fatalf("held %q, want %q", names, d.ID())
	}
	// The proof's stream is the one a dictionary-less frame carries.
	proof := chunksOf(t, plain)
	var found bool
	for _, c := range chunksOfPayload(t, named[HeaderSize+sha256.Size:]) {
		found = found || (c.deflated && bytes.Equal(c.body, proof[len(proof)-2].body))
	}
	if !found {
		t.Fatal("the proof's stream changed under a dictionary")
	}
	// A message with no body to deflate names no dictionary.
	noBodies := verboseSearchResponse()
	noBodies.Hits = nil
	if f := (Encoding{Dict: d, Attach: true}).SearchResponse(noBodies); binary.BigEndian.Uint16(f[6:]) != flagChunked {
		t.Fatalf("an answer without bodies carries flags %#x", binary.BigEndian.Uint16(f[6:]))
	}
}

// chunksOfPayload parses a chunk list.
func chunksOfPayload(t testing.TB, p []byte) []chunk {
	t.Helper()
	var out []chunk
	for len(p) > 0 {
		c, rest, err := nextChunk(p)
		if err != nil {
			t.Fatal(err)
		}
		out, p = append(out, c), rest
	}
	return out
}

// The same stream bytes under two dictionaries inflate to two outputs, and
// neither memo ever serves one dictionary's result for the other's: both
// keys carry the dictionary.
func TestMemoKeysNameTheDictionary(t *testing.T) {
	resetMemo()
	one := CollectionDictionary(testVocabulary)
	// The same length, other bytes: every back-reference lands elsewhere.
	shifted := bytes.ToUpper(one.b)
	two := newDictionary(shifted, sha256.Sum256(shifted))

	// Decoding: one stream, framed under each dictionary.
	body := bodyOf(1)
	stream := dictStream(t, body, one.b)
	payload := appendChunk(nil, chunk{n: len(body), deflated: true, body: stream})
	want := map[*Dictionary][]byte{}
	for _, d := range []*Dictionary{one, two} {
		ref, err := standalone(payload, d.b)
		if err != nil {
			t.Fatal(err) // a stream that reaches back inflates under any window-sized history
		}
		want[d] = ref
	}
	if !bytes.Equal(want[one], body) || bytes.Equal(want[two], body) {
		t.Fatal("the stream does not reach back into the dictionary")
	}
	for round := 0; round < 3; round++ { // cold, then warm twice
		for _, d := range []*Dictionary{one, two} {
			_, raw, err := DecodeFrame(dictFrame(TypeManifest, flagDictNamed|flagDictAttached, d.id, d.b, payload))
			if err != nil || !bytes.Equal(raw, want[d]) {
				t.Fatalf("round %d: the stream under dictionary %s decoded to another history's bytes (%v)", round, d.ID()[:8], err)
			}
		}
	}

	// Encoding: one body, deflated against each dictionary.
	r := &SearchResponse{Query: "q", Hits: []Hit{{Content: body}}}
	for round := 0; round < 3; round++ {
		for _, d := range []*Dictionary{one, two} {
			frame := Encoding{Dict: d, Attach: true}.SearchResponse(r)
			if got, err := DecodeSearchResponse(frame); err != nil || !bytes.Equal(got.Hits[0].Content, body) {
				t.Fatalf("round %d: a body deflated against dictionary %s decodes wrong (%v)", round, d.ID()[:8], err)
			}
		}
	}
}

// A store keeps the four most recently used dictionaries; a frame names one
// its request named without carrying it; an attachment that does not hash
// to its name, or exceeds the window, is refused and installs nothing; and
// a frame naming a dictionary its request did not name fails.
func TestDictionaryStore(t *testing.T) {
	resetMemo()
	var store DictionaryStore
	body := bodyOf(2)
	dicts := storeDictionaries(6)
	frame := func(d *Dictionary, attach bool) []byte {
		return Encoding{Dict: d, Attach: attach}.SearchResponse(&SearchResponse{Hits: []Hit{{Content: body}}})
	}
	decodes := func(f []byte) bool {
		_, dec := store.Held()
		_, err := dec.SearchResponse(f)
		return err == nil
	}
	for _, d := range dicts[:5] {
		if !decodes(frame(d, true)) {
			t.Fatal("an attached dictionary was not installed")
		}
	}
	// dicts[0] was least recently used when dicts[4] arrived.
	if decodes(frame(dicts[0], false)) || !decodes(frame(dicts[1], false)) {
		t.Fatal("the store does not hold the four most recently used dictionaries")
	}
	// dicts[1] is now the most recent: dicts[5] evicts dicts[2].
	decodes(frame(dicts[5], true))
	if decodes(frame(dicts[2], false)) || !decodes(frame(dicts[1], false)) {
		t.Fatal("the store evicted other than the least recently used dictionary")
	}
	names, _ := store.Held()
	if held := strings.Split(names, ","); len(held) != MaxHeldDictionaries {
		t.Fatalf("the header names %d dictionaries, want %d", len(held), MaxHeldDictionaries)
	}

	before := Dictionaries()
	other := dicts[2]
	hostile := map[string][]byte{
		"attached dictionary with another's hash": dictFrame(TypeSearch, flagDictNamed|flagDictAttached, dicts[3].id, other.b, nil),
		"dictionary past the window":              dictFrame(TypeSearch, flagDictNamed|flagDictAttached, sha256.Sum256(make([]byte, MaxDictionaryBytes+1)), make([]byte, MaxDictionaryBytes+1), nil),
	}
	for name, f := range hostile {
		_, dec := store.Held()
		if _, _, err := dec.Frame(f); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: %v, want ErrFrame", name, err)
		}
	}
	if after := Dictionaries(); after.Refused-before.Refused != 2 || after.Installed != before.Installed {
		t.Fatalf("hostile attachments: %d refused, %d installed; want 2 and 0", after.Refused-before.Refused, after.Installed-before.Installed)
	}
	if decodes(frame(other, false)) {
		t.Fatal("a refused attachment was installed")
	}
}

// storeDictionaries returns n distinct dictionaries of testVocabulary's kind.
func storeDictionaries(n int) []*Dictionary {
	var dicts []*Dictionary
	for i := 0; i < n; i++ {
		dicts = append(dicts, CollectionDictionary(append([]string{fmt.Sprintf("store%d", i)}, testVocabulary...)))
	}
	return dicts
}

// A request's answer decodes against the dictionaries that request named,
// even when the store evicts them while the answer is in flight: a frame
// that names dicts[0] without carrying it decodes after five others were
// installed, and dicts[0] is the most recently used again afterwards.
func TestDictionaryEvictedInFlight(t *testing.T) {
	var store DictionaryStore
	dicts := storeDictionaries(6)
	body := bodyOf(3)
	frame := func(d *Dictionary, attach bool) []byte {
		return Encoding{Dict: d, Attach: attach}.SearchResponse(&SearchResponse{Hits: []Hit{{Content: body}}})
	}
	_, dec := store.Held()
	if _, err := dec.SearchResponse(frame(dicts[0], true)); err != nil {
		t.Fatal(err)
	}
	names, inFlight := store.Held() // the request is sent naming dicts[0]
	if names != dicts[0].ID() {
		t.Fatalf("the request names %q", names)
	}
	for _, d := range dicts[1:] { // other answers install five more
		_, dec := store.Held()
		if _, err := dec.SearchResponse(frame(d, true)); err != nil {
			t.Fatal(err)
		}
	}
	if names, _ := store.Held(); strings.Contains(names, dicts[0].ID()) {
		t.Fatal("the store still holds the first dictionary")
	}
	got, err := inFlight.SearchResponse(frame(dicts[0], false))
	if err != nil || !bytes.Equal(got.Hits[0].Content, body) {
		t.Fatalf("an answer naming the dictionary its request named fails after eviction: %v", err)
	}
	if names, _ := store.Held(); !strings.HasPrefix(names, dicts[0].ID()) {
		t.Fatal("the answer's dictionary is not the most recently used again")
	}
}

// Two stores share nothing: what one connection installs, another never
// names, and its answers cannot name it either.
func TestDictionaryStoresAreSeparate(t *testing.T) {
	var a, b DictionaryStore
	d := CollectionDictionary(testVocabulary)
	attached := Encoding{Dict: d, Attach: true}.SearchResponse(&SearchResponse{Hits: []Hit{{Content: bodyOf(4)}}})
	_, dec := a.Held()
	if _, err := dec.SearchResponse(attached); err != nil {
		t.Fatal(err)
	}
	if names, _ := b.Held(); names != "" {
		t.Fatalf("a store names %q, which another store installed", names)
	}
	_, dec = b.Held()
	if _, err := dec.SearchResponse(Encoding{Dict: d}.SearchResponse(&SearchResponse{Hits: []Hit{{Content: bodyOf(4)}}})); !errors.Is(err, ErrFrame) {
		t.Fatalf("an answer naming another store's dictionary: %v, want ErrFrame", err)
	}
}

// A server keeps its dictionary while a new generation's names at most one
// term in sixteen that it lacks, and swaps to the new one past that.
func TestNextDictionary(t *testing.T) {
	var vocab []string
	for i := 0; i < 32; i++ {
		vocab = append(vocab, fmt.Sprintf("term%02d", i))
	}
	with := func(extra ...string) *Dictionary {
		return CollectionDictionary(append(append([]string(nil), vocab...), extra...))
	}
	prev := with()
	for _, tc := range []struct {
		name       string
		next, want *Dictionary
	}{
		{"the same vocabulary", with(), prev},
		{"two new terms of 34", with("new1", "new2"), prev},
		{"three new terms of 35", with("new1", "new2", "new3"), nil},
		{"terms removed", CollectionDictionary(vocab[4:]), prev},
		{"an empty vocabulary", nil, nil},
	} {
		want := tc.want
		if want == nil {
			want = tc.next
		}
		if got := NextDictionary(prev, tc.next); got != want {
			t.Errorf("%s: NextDictionary kept %v, want %v", tc.name, got == prev, want == prev)
		}
	}
	if next := with(); NextDictionary(nil, next) != next {
		t.Error("a first generation does not get its own dictionary")
	}
}

// One store serves many requests at once: every answer decodes against
// the dictionaries its own request named, while other answers install and
// evict. Run it under the race detector.
func TestDictionaryStoreConcurrent(t *testing.T) {
	var store DictionaryStore
	dicts := storeDictionaries(6)
	body := bodyOf(5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				d := dicts[(g+i)%len(dicts)]
				names, dec := store.Held()
				// An honest server carries the dictionary unless the request
				// named it.
				frame := Encoding{Dict: d, Attach: !strings.Contains(names, d.ID())}.SearchResponse(&SearchResponse{Hits: []Hit{{Content: body}}})
				got, err := dec.SearchResponse(frame)
				if err != nil || !bytes.Equal(got.Hits[0].Content, body) {
					t.Errorf("goroutine %d, answer %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if names, _ := store.Held(); len(strings.Split(names, ",")) != MaxHeldDictionaries {
		t.Fatalf("the store holds %q", names)
	}
}
