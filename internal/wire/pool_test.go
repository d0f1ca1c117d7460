package wire

import (
	"bytes"
	"compress/flate"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// legacyDeflate is the payload servers sent before the sectioned encoder:
// `u64 raw length | deflate stream`, the stream one whole-payload pass of a
// BestSpeed writer. Decoders must keep reading it.
func legacyDeflate(t testing.TB, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(binary.BigEndian.AppendUint64(nil, uint64(len(raw))))
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyFrame wraps a compressed payload in a valid frame header.
func legacyFrame(payload []byte) []byte {
	out := append([]byte(frameMagic), FrameVersion, TypeSearch)
	out = binary.BigEndian.AppendUint16(out, flagDeflate)
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	return append(out, payload...)
}

// floatEntropyBytes is the order-0 entropy of b in bytes, the quantity
// compressible estimates in integers.
func floatEntropyBytes(b []byte) float64 {
	var hist [256]int
	for _, c := range b {
		hist[c]++
	}
	bits := 0.0
	for _, c := range hist {
		if c > 0 {
			bits += float64(c) * math.Log2(float64(len(b))/float64(c))
		}
	}
	return bits / 8
}

// referencePayload is the stored payload the encoder must reproduce, built
// the slow way: a brand-new flate.Writer per section, the verdicts taken in
// floating point, the stream written block by block. nil: not compressed.
func referencePayload(t testing.TB, raw []byte, secs []section) []byte {
	t.Helper()
	out := binary.BigEndian.AppendUint64(nil, uint64(len(raw)))
	stored := func(b []byte, open bool) {
		if open && len(b) == 0 {
			out = append(out, 0x00, 0x00, 0xff, 0xff)
		}
		for len(b) > 0 {
			if !open {
				out = append(out, 0x00)
			}
			n := min(len(b), 65535)
			out = append(out, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
			out = append(out, b[:n]...)
			b, open = b[n:], false
		}
	}
	glue, open := 0, false
	for _, s := range secs {
		sec := raw[s.off:s.end]
		level := flate.BestCompression
		if s.vo {
			level = flate.BestSpeed
			if floatEntropyBytes(sec)+codeTableBytes > float64(len(sec))*15/16 {
				continue
			}
		}
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, level)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(sec)
		fw.Flush()
		stream := buf.Bytes()
		if !bytes.HasSuffix(stream, []byte{0x00, 0x00, 0xff, 0xff}) {
			t.Fatalf("a sync flush ended in % x", stream[max(0, len(stream)-4):])
		}
		if len(stream) >= len(sec) {
			continue
		}
		stored(raw[glue:s.off], open)
		out = append(out, stream[:len(stream)-4]...)
		glue, open = s.end, true
	}
	if !open {
		return nil
	}
	stored(raw[glue:], true)
	if out = append(out, 0x03, 0x00); len(out) >= len(raw) {
		return nil
	}
	return out
}

// checkFrame asserts that frame carries exactly referencePayload's bytes
// (or raw itself, flag clear, when that is nil) and decodes back to raw
// through the unchanged decoder.
func checkFrame(t testing.TB, frame, raw []byte, secs []section) {
	t.Helper()
	want, wantFlags := referencePayload(t, raw, secs), flagDeflate
	if want == nil {
		want, wantFlags = raw, 0
	}
	if flags := binary.BigEndian.Uint16(frame[6:]); flags != wantFlags {
		t.Fatalf("frame flags %#x, want %#x", flags, wantFlags)
	}
	if !bytes.Equal(frame[HeaderSize:], want) {
		t.Fatalf("frame payload (%d bytes) differs from the fresh-writer reference (%d bytes)", len(frame)-HeaderSize, len(want))
	}
	typ, got, err := DecodeFrame(frame)
	if err != nil || typ != TypeSearch || !bytes.Equal(got, raw) {
		t.Fatalf("frame did not survive the round trip: type %d, %v", typ, err)
	}
}

// resetMemo empties the process-wide deflate memo.
func resetMemo() {
	deflateMemo.mu.Lock()
	defer deflateMemo.mu.Unlock()
	deflateMemo.m = make(map[memoKey]*list.Element)
	deflateMemo.lru.Init()
	deflateMemo.bytes = 0
	deflateMemo.trial.Init()
	deflateMemo.trialBytes = 0
}

// checkMemoAccounting recomputes what the memo retains and compares it with
// the running total its bound is enforced on.
func checkMemoAccounting(t *testing.T) {
	t.Helper()
	deflateMemo.mu.Lock()
	defer deflateMemo.mu.Unlock()
	var retained, onTrial int64
	trials := 0
	for e := deflateMemo.lru.Front(); e != nil; e = e.Next() {
		entry := e.Value.(*memoEntry)
		retained += memoEntryOverhead + int64(len(entry.data))
		if entry.trial != nil {
			onTrial += int64(len(entry.data))
			trials++
		}
	}
	if retained != deflateMemo.bytes || len(deflateMemo.m) != deflateMemo.lru.Len() {
		t.Fatalf("memo charges %d bytes for %d retained; %d keys, %d entries",
			deflateMemo.bytes, retained, len(deflateMemo.m), deflateMemo.lru.Len())
	}
	if onTrial != deflateMemo.trialBytes || trials != deflateMemo.trial.Len() || onTrial > memoTrialBytes {
		t.Fatalf("memo charges %d bytes on trial for %d kept by %d entries (list holds %d, bound %d)",
			deflateMemo.trialBytes, onTrial, trials, deflateMemo.trial.Len(), memoTrialBytes)
	}
}

// answerLikePayloads returns distinct compressible payloads of the sizes
// real answers have, from just past compressMin to a hundred KB.
func answerLikePayloads(n int) [][]byte {
	r := rand.New(rand.NewSource(11))
	words := []string{"merkle", "tree", "digest", "posting", "signature", "threshold", "document", "\x00\x01\x02", "ΩΩ"}
	out := make([][]byte, n)
	for i := range out {
		size := compressMin + r.Intn(8<<10)
		if i%7 == 0 {
			size = 40<<10 + r.Intn(60<<10)
		}
		var b bytes.Buffer
		fmt.Fprintf(&b, "payload %d:", i)
		for b.Len() < size {
			b.WriteString(words[r.Intn(len(words))])
			b.WriteByte(byte(r.Intn(256)))
		}
		out[i] = b.Bytes()
	}
	return out
}

// carve lays an answer's sections over raw: two bodies and a proof, with
// glue before, between and after them.
func carve(raw []byte) []section {
	n := len(raw)
	return []section{
		{off: 16, end: n / 3},
		{off: n/3 + 20, end: 2 * n / 3},
		{off: 2*n/3 + 4, end: n - 64, vo: true},
	}
}

// TestPooledCompressorsAreDeterministicUnderConcurrency is the -race hammer
// for the pools and the memo: many goroutines encode and decode a few
// distinct payloads through shared, reused flate writers and readers, in
// different orders, while the memo is emptied under them; every frame must
// equal the one fresh writers produce (which is also the single-threaded
// encoding, on a memo miss and on a hit) and must decode back to its
// payload.
func TestPooledCompressorsAreDeterministicUnderConcurrency(t *testing.T) {
	payloads := answerLikePayloads(12)
	want := make([][]byte, len(payloads))
	resetMemo()
	for i, raw := range payloads {
		want[i] = EncodeFrame(TypeSearch, raw, carve(raw))
		checkFrame(t, want[i], raw, carve(raw))
		if binary.BigEndian.Uint16(want[i][6:])&flagDeflate == 0 {
			t.Fatalf("payload %d: not compressed", i)
		}
		if hit := EncodeFrame(TypeSearch, raw, carve(raw)); !bytes.Equal(hit, want[i]) {
			t.Fatalf("payload %d: the memo hit differs from the miss", i)
		}
	}
	resetMemo() // make the goroutines race on real compressions, not memo hits

	workers, rounds := 16, 30
	if testing.Short() {
		rounds = 8
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < rounds; round++ {
				i := r.Intn(len(payloads))
				if round%5 == 0 {
					resetMemo()
				}
				frame := EncodeFrame(TypeSearch, payloads[i], carve(payloads[i]))
				if !bytes.Equal(frame, want[i]) {
					t.Errorf("worker %d: frame of payload %d differs from its single-threaded encoding", w, i)
					return
				}
				typ, raw, err := DecodeFrame(frame)
				if err != nil || typ != TypeSearch || !bytes.Equal(raw, payloads[i]) {
					t.Errorf("worker %d: payload %d did not survive the round trip: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	checkMemoAccounting(t)
}

// TestAssembledStreamLayouts drives the stream assembler through section
// layouts the benchmark's answers never produce. Every frame must equal
// the fresh-writer reference where the layout is known, decode to the
// value it was made from through the unchanged decoder, and be the same
// bytes on a memo miss, on a hit and after the memo was cleared.
func TestAssembledStreamLayouts(t *testing.T) {
	body := func(i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("body %d of the collection. ", i)), 30)
	}
	structuredVO := verboseSearchResponse().VO
	withHits := func(vo []byte, contents ...[]byte) *SearchResponse {
		r := &SearchResponse{Query: "merkle tree", R: 10, Algo: "tnra", Scheme: "cmht", VO: vo}
		for i, c := range contents {
			r.Hits = append(r.Hits, Hit{DocID: i, Score: float64(10 - i), Content: c})
		}
		r.Stats.VOBytes = len(vo)
		return r
	}
	type layout struct {
		name       string
		compressed bool
		encode     func() []byte
		decode     func([]byte) (interface{}, error)
		want       interface{}
	}
	search := func(name string, compressed bool, r *SearchResponse) layout {
		return layout{name, compressed,
			func() []byte { return EncodeSearchResponse(r) },
			func(f []byte) (interface{}, error) { return DecodeSearchResponse(f) }, r}
	}
	batch := &BatchSearchResponse{Results: []BatchSearchResult{
		{Response: withHits(xorshiftBytes(2, 900), body(1), body(2))},
		{Error: &ErrorBody{Code: "bad_request", Message: "empty query"}},
		{Response: withHits(structuredVO, body(2), body(3))},
	}}
	sharded := &ShardedSearchResponse{
		Query: "merkle tree", R: 10, Algo: "tnra", Scheme: "cmht", Generation: 3,
		Shards: []SearchResponse{*withHits(xorshiftBytes(3, 700), body(4)), *withHits(structuredVO), *withHits(nil, body(5), body(6))},
		Merged: []MergedHit{{Shard: 0, DocID: 0, GlobalID: 0, Score: 10}, {Shard: 2, DocID: 1, GlobalID: 7, Score: 9}},
		Stats:  ShardedSearchStats{Shards: 3, EntriesRead: 80, VOBytes: 10},
	}
	manifest := &ManifestResponse{Format: "atcx1", Export: bytes.Repeat([]byte("signed manifest "), 90)}
	layouts := []layout{
		search("zero hits, deflated proof", true, withHits(structuredVO)),
		search("empty content between bodies", true, withHits(xorshiftBytes(4, 600), body(1), nil, body(2))),
		search("stored proof above one stored block", true, withHits(xorshiftBytes(5, 70000), body(1), body(2))),
		search("glue above two stored blocks before a body", true, &SearchResponse{
			Query: string(xorshiftBytes(6, 140000)), Hits: []Hit{{Content: body(7)}}}),
		search("deflated proof", true, withHits(structuredVO, body(1), body(2), body(3))),
		search("no section shrinks", false, withHits(xorshiftBytes(7, 1500), xorshiftBytes(8, 400), xorshiftBytes(9, 400))),
		{"batch with an error between two answers", true,
			func() []byte { return EncodeBatchSearchResponse(batch) },
			func(f []byte) (interface{}, error) { return DecodeBatchSearchResponse(f) }, batch},
		{"sharded answer", true,
			func() []byte { return EncodeShardedSearchResponse(sharded) },
			func(f []byte) (interface{}, error) { return DecodeShardedSearchResponse(f) }, sharded},
		{"manifest export", true,
			func() []byte { return EncodeManifestResponse(manifest) },
			func(f []byte) (interface{}, error) { return DecodeManifestResponse(f) }, manifest},
	}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			resetMemo()
			miss := l.encode()
			hit := l.encode()
			resetMemo()
			cleared := l.encode()
			if !bytes.Equal(miss, hit) || !bytes.Equal(miss, cleared) {
				t.Fatal("the frame depends on the state of the memo")
			}
			if got := binary.BigEndian.Uint16(miss[6:])&flagDeflate != 0; got != l.compressed {
				t.Fatalf("compressed = %v, want %v", got, l.compressed)
			}
			got, err := l.decode(miss)
			if err != nil {
				t.Fatal(err)
			}
			if want := l.want; !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
			}
			if r, ok := l.want.(*SearchResponse); ok {
				var secs []section
				raw := appendSearchResponse(nil, &secs, r)
				checkFrame(t, miss, raw, secs)
			}
		})
	}

	// Layouts no message produces, straight into the assembler: sections
	// with no glue between them (a zero-length stored block), a section at
	// offset 0, one that ends the payload, and all three at once.
	raw := bytes.Join([][]byte{body(1), body(2), structuredVO}, nil)
	a, b := len(body(1)), len(body(1))+len(body(2))
	for name, secs := range map[string][]section{
		"adjacent sections":     {{off: 8, end: a}, {off: a, end: b}},
		"section at offset 0":   {{off: 0, end: a}},
		"section ends payload":  {{off: b, end: len(raw), vo: true}},
		"sections and no glue":  {{off: 0, end: a}, {off: a, end: b}, {off: b, end: len(raw), vo: true}},
		"no sections":           nil,
		"only an empty section": {{off: 40, end: 40}},
	} {
		t.Run(name, func(t *testing.T) {
			resetMemo()
			frame := EncodeFrame(TypeSearch, raw, secs)
			checkFrame(t, frame, raw, secs)
			if !bytes.Equal(frame, EncodeFrame(TypeSearch, raw, secs)) {
				t.Fatal("the memo hit differs from the miss")
			}
		})
	}
}

// TestCompressibleVerdicts pins the entropy estimate on fixed inputs, so
// that neither the threshold nor the arithmetic can drift silently: which
// proofs go through the compressor is part of the wire bytes. The two
// captured proofs answer queries over the benchmark's corpus (RSA-1024
// signatures): flate makes the TNRA one 1.007 of its size and the TRA one
// 0.77.
func TestCompressibleVerdicts(t *testing.T) {
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		b    []byte
		want bool
	}{
		{"all random", xorshiftBytes(1, 4096), false},
		{"all zero", make([]byte, 4096), true},
		{"one byte", []byte{7}, false},
		{"a few distinct bytes", []byte("abcdefghijklmnopqrstuvwxyz0123456789"), false},
		{"text", bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 40), true},
		{"captured TNRA proof", read("tnra_vo.bin"), false},
		{"captured TRA proof", read("tra_vo.bin"), true},
	} {
		if got := compressible(tc.b); got != tc.want {
			t.Errorf("%s (%d bytes, entropy %.0f): compressible = %v, want %v",
				tc.name, len(tc.b), floatEntropyBytes(tc.b), got, tc.want)
		}
	}

	// The fixed-point logarithm underestimates by less than one unit in the
	// last place.
	for _, x := range []uint64{1, 2, 3, 5, 255, 256, 1000, 65535, 1 << 26, 1<<40 + 12345} {
		want := math.Log2(float64(x)) * (1 << log2Frac)
		if got := float64(log2(x)); got > want || got < want-1 {
			t.Errorf("log2(%d) = %g, want within one below %g", x, got, want)
		}
	}
}

// The pooled writers of both levels must emit what a fresh writer does,
// whatever they compressed before.
func TestPooledSectionDeflateMatchesFreshWriter(t *testing.T) {
	payloads := answerLikePayloads(3)
	for round := 0; round < 2; round++ {
		for i, raw := range payloads {
			for _, level := range []int{flate.BestSpeed, flate.BestCompression} {
				var buf bytes.Buffer
				fw, err := flate.NewWriter(&buf, level)
				if err != nil {
					t.Fatal(err)
				}
				fw.Write(raw)
				fw.Flush()
				if got := deflateSection(raw, level); !bytes.Equal(got, buf.Bytes()[:buf.Len()-syncTail]) || cap(got) != len(got) {
					t.Fatalf("payload %d level %d: pooled stream (%d of %d bytes) differs from a fresh writer's", i, level, len(got), cap(got))
				}
			}
		}
	}
}

// A pooled reader that just failed on a corrupt stream must be clean for
// the next caller.
func TestPooledInflaterRecoversFromCorruptStream(t *testing.T) {
	raw := answerLikePayloads(1)[0]
	good := legacyDeflate(t, raw)
	bad := append([]byte(nil), good...)
	for i := 12; i < len(bad); i += 3 {
		bad[i] ^= 0x5a
	}
	for i := 0; i < 4; i++ {
		if _, err := inflatePayload(bad); err == nil {
			t.Fatal("corrupt stream inflated")
		}
		got, err := inflatePayload(good)
		if err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("intact stream after a corrupt one: %v", err)
		}
	}
}

// TestInflateAllocationBoundedByInput: a 30-byte frame whose length prefix
// claims the full 64 MiB must be rejected without the decoder committing
// memory the received bytes could never fill.
func TestInflateAllocationBoundedByInput(t *testing.T) {
	payload := binary.BigEndian.AppendUint64(nil, MaxPayloadBytes)
	payload = append(payload, 0x01, 0x00) // a truncated stored block
	frame := legacyFrame(payload)
	if len(frame) != 30 {
		t.Fatalf("frame is %d bytes", len(frame))
	}
	decode := func() {
		if _, _, err := DecodeFrame(frame); !errors.Is(err, ErrFrame) {
			t.Fatalf("hostile frame: %v, want ErrFrame", err)
		}
	}
	decode() // populate the reader pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10 {
		t.Fatalf("decoding a %d-byte frame allocated %d bytes", len(frame), grew)
	}

	// The same claim backed by a stream that really is that dense still
	// decodes: the buffer grows with the data instead of trusting the
	// prefix.
	dense := make([]byte, 4<<20)
	got, err := inflatePayload(legacyDeflate(t, dense))
	if err != nil || !bytes.Equal(got, dense) {
		t.Fatalf("dense payload: %v", err)
	}
}

// TestMemoAdmitsOnSecondSighting pins the memo's admission and accounting:
// the first encode of a section keeps an exact-size copy of its stream on
// trial, so a section that comes straight back is replayed; once
// memoTrialBytes of newer first sightings have pushed it off trial only
// its key is left, the next encode compresses again and stores the bytes
// for good, and the one after that replays them. The key covers the level:
// the same bytes as a proof are another entry.
func TestMemoAdmitsOnSecondSighting(t *testing.T) {
	resetMemo()
	raw := answerLikePayloads(1)[0]
	whole := []section{{off: 0, end: len(raw)}}
	key := memoKey{sha256.Sum256(raw), flate.BestCompression}
	entry := func() memoEntry {
		deflateMemo.mu.Lock()
		defer deflateMemo.mu.Unlock()
		elem, ok := deflateMemo.m[key]
		if !ok {
			t.Fatal("the memo forgot the key")
		}
		return *elem.Value.(*memoEntry)
	}

	first := EncodeFrame(TypeSearch, raw, whole)
	e := entry()
	if !e.stored || e.trial == nil || len(e.data) == 0 || cap(e.data) != len(e.data) {
		t.Fatalf("after one encode: stored %v, on trial %v, %d bytes in %d of capacity",
			e.stored, e.trial != nil, len(e.data), cap(e.data))
	}
	if want := int64(memoEntryOverhead + len(e.data)); deflateMemo.bytes != want || deflateMemo.trialBytes != int64(len(e.data)) {
		t.Fatalf("memo charges %d bytes (%d on trial), retains %d", deflateMemo.bytes, deflateMemo.trialBytes, want)
	}
	if again := EncodeFrame(TypeSearch, raw, whole); !bytes.Equal(first, again) {
		t.Fatal("encode replayed from the trial differs from the compressed one")
	}
	if e := entry(); !e.stored || e.trial != nil || deflateMemo.trialBytes != 0 {
		t.Fatalf("a second sighting within the trial did not admit the entry: %+v", e)
	}
	asProof := EncodeFrame(TypeSearch, raw, []section{{off: 0, end: len(raw), vo: true}})
	if len(deflateMemo.m) != 2 || bytes.Equal(asProof, first) {
		t.Fatalf("the same bytes at another level: %d memo entries, frames equal %v", len(deflateMemo.m), bytes.Equal(asProof, first))
	}
	checkFrame(t, asProof, raw, []section{{off: 0, end: len(raw), vo: true}})
	checkMemoAccounting(t)

	// The same section again, but this time other first sightings outlast
	// its trial before it returns.
	resetMemo()
	EncodeFrame(TypeSearch, raw, whole)
	filler := make([]byte, 64<<10)
	rng := rand.New(rand.NewSource(1))
	for n := 0; entry().trial != nil; n++ {
		if n > 4*memoTrialBytes/len(filler) {
			t.Fatal("the trial never lapsed")
		}
		for i := range filler { // about half compressible, never the same twice
			filler[i] = byte(rng.Intn(16))
		}
		EncodeFrame(TypeSearch, filler, []section{{off: 0, end: len(filler), vo: true}})
		checkMemoAccounting(t)
	}
	if e := entry(); e.stored || e.data != nil {
		t.Fatalf("after its trial lapsed: entry %+v, want a bare key", e)
	}
	if _, ok := memoGet(key); ok {
		t.Fatal("a bare key answered as a hit")
	}

	before := Sections()
	second := EncodeFrame(TypeSearch, raw, whole)
	e = entry()
	if !e.stored || e.trial != nil || len(e.data) == 0 || cap(e.data) != len(e.data) {
		t.Fatalf("after the second encode: stored %v, on trial %v, %d bytes in %d of capacity",
			e.stored, e.trial != nil, len(e.data), cap(e.data))
	}
	third := EncodeFrame(TypeSearch, raw, whole)
	if !bytes.Equal(first, second) || !bytes.Equal(first, third) {
		t.Fatal("memoised encode differs from the compressed ones")
	}
	if c, ok := memoGet(key); !ok || !bytes.HasPrefix(third[HeaderSize+8:], c) {
		t.Fatal("third encode was not served from the memo")
	}
	if after := Sections(); after.Deflated-before.Deflated != 1 || after.MemoHit-before.MemoHit != 1 {
		t.Fatalf("second and third encode: compressor ran %d times, memo hit %d times, want 1 and 1",
			after.Deflated-before.Deflated, after.MemoHit-before.MemoHit)
	}
	checkMemoAccounting(t)
}
