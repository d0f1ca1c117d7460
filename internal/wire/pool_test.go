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
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// freshDeflate is the reference the pooled compressor must reproduce: the
// `u64 raw length | deflate stream` payload written by a brand-new
// flate.Writer, as every encode used to do.
func freshDeflate(t testing.TB, raw []byte) []byte {
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

// resetMemo empties the process-wide deflate memo.
func resetMemo() {
	deflateMemo.mu.Lock()
	defer deflateMemo.mu.Unlock()
	deflateMemo.m = make(map[[sha256.Size]byte]*list.Element)
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
// real answers have, from just past compressMin to a few hundred KB.
func answerLikePayloads(n int) [][]byte {
	r := rand.New(rand.NewSource(11))
	words := []string{"merkle", "tree", "digest", "posting", "signature", "threshold", "document", "\x00\x01\x02", "ΩΩ"}
	out := make([][]byte, n)
	for i := range out {
		size := compressMin + r.Intn(8<<10)
		if i%7 == 0 {
			size = 100<<10 + r.Intn(200<<10)
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

// TestPooledCompressorsAreDeterministicUnderConcurrency is the -race hammer
// for the pools: many goroutines encode and decode a few distinct payloads
// through shared, reused flate writers and readers, in different orders;
// every frame must equal the one a fresh writer produces (which is also the
// single-threaded encoding) and must decode back to its payload.
func TestPooledCompressorsAreDeterministicUnderConcurrency(t *testing.T) {
	payloads := answerLikePayloads(12)
	want := make([][]byte, len(payloads))
	for i, raw := range payloads {
		ref := freshDeflate(t, raw)
		if got := deflatePayload(raw); !bytes.Equal(got, ref) {
			t.Fatalf("payload %d: pooled deflate differs from a fresh writer's stream", i)
		}
		want[i] = EncodeFrame(TypeSearch, raw)
		if !bytes.Equal(want[i][HeaderSize:], ref) {
			t.Fatalf("payload %d: frame does not carry the fresh writer's stream", i)
		}
	}
	resetMemo() // make the goroutines race on real compressions, not memo hits

	workers, rounds := 8, 30
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
				frame := EncodeFrame(TypeSearch, payloads[i])
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

// A pooled reader that just failed on a corrupt stream must be clean for
// the next caller.
func TestPooledInflaterRecoversFromCorruptStream(t *testing.T) {
	raw := answerLikePayloads(1)[0]
	good := deflatePayload(raw)
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

// deflateFrame wraps a compressed payload in a valid frame header.
func deflateFrame(payload []byte) []byte {
	out := append([]byte(frameMagic), FrameVersion, TypeSearch)
	out = binary.BigEndian.AppendUint16(out, flagDeflate)
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	return append(out, payload...)
}

// TestInflateAllocationBoundedByInput: a 30-byte frame whose length prefix
// claims the full 64 MiB must be rejected without the decoder committing
// memory the received bytes could never fill.
func TestInflateAllocationBoundedByInput(t *testing.T) {
	payload := binary.BigEndian.AppendUint64(nil, MaxPayloadBytes)
	payload = append(payload, 0x01, 0x00) // a truncated stored block
	frame := deflateFrame(payload)
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
	got, err := inflatePayload(deflatePayload(dense))
	if err != nil || !bytes.Equal(got, dense) {
		t.Fatalf("dense payload: %v", err)
	}
}

// TestMemoAdmitsOnSecondSighting pins the memo's admission and accounting:
// the first encode of a payload keeps an exact-size copy of its bytes on
// trial, so a payload that comes straight back is replayed; once
// memoTrialBytes of newer first sightings have pushed it off trial only
// its key is left, the next encode compresses again and stores the bytes
// for good, and the one after that replays them.
func TestMemoAdmitsOnSecondSighting(t *testing.T) {
	resetMemo()
	raw := answerLikePayloads(1)[0]
	key := sha256.Sum256(raw)
	entry := func() memoEntry {
		deflateMemo.mu.Lock()
		defer deflateMemo.mu.Unlock()
		elem, ok := deflateMemo.m[key]
		if !ok {
			t.Fatal("the memo forgot the key")
		}
		return *elem.Value.(*memoEntry)
	}

	first := EncodeFrame(TypeSearch, raw)
	e := entry()
	if !e.stored || e.trial == nil || len(e.data) == 0 || cap(e.data) != len(e.data) {
		t.Fatalf("after one encode: stored %v, on trial %v, %d bytes in %d of capacity",
			e.stored, e.trial != nil, len(e.data), cap(e.data))
	}
	if want := int64(memoEntryOverhead + len(e.data)); deflateMemo.bytes != want || deflateMemo.trialBytes != int64(len(e.data)) {
		t.Fatalf("memo charges %d bytes (%d on trial), retains %d", deflateMemo.bytes, deflateMemo.trialBytes, want)
	}
	if again := EncodeFrame(TypeSearch, raw); !bytes.Equal(first, again) {
		t.Fatal("encode replayed from the trial differs from the compressed one")
	}
	if e := entry(); !e.stored || e.trial != nil || deflateMemo.trialBytes != 0 {
		t.Fatalf("a second sighting within the trial did not admit the entry: %+v", e)
	}
	checkMemoAccounting(t)

	// The same payload again, but this time other first sightings outlast
	// its trial before it returns.
	resetMemo()
	EncodeFrame(TypeSearch, raw)
	filler := make([]byte, 64<<10)
	rng := rand.New(rand.NewSource(1))
	for n := 0; entry().trial != nil; n++ {
		if n > 4*memoTrialBytes/len(filler) {
			t.Fatal("the trial never lapsed")
		}
		for i := range filler { // about half compressible, never the same twice
			filler[i] = byte(rng.Intn(16))
		}
		EncodeFrame(TypeSearch, filler)
		checkMemoAccounting(t)
	}
	if e := entry(); e.stored || e.data != nil {
		t.Fatalf("after its trial lapsed: entry %+v, want a bare key", e)
	}
	if _, ok := memoGet(key); ok {
		t.Fatal("a bare key answered as a hit")
	}

	second := EncodeFrame(TypeSearch, raw)
	e = entry()
	if !e.stored || e.trial != nil || len(e.data) == 0 || cap(e.data) != len(e.data) {
		t.Fatalf("after the second encode: stored %v, on trial %v, %d bytes in %d of capacity",
			e.stored, e.trial != nil, len(e.data), cap(e.data))
	}
	third := EncodeFrame(TypeSearch, raw)
	if !bytes.Equal(first, second) || !bytes.Equal(first, third) {
		t.Fatal("memoised encode differs from the compressed ones")
	}
	if c, ok := memoGet(key); !ok || !bytes.Equal(c, third[HeaderSize:]) {
		t.Fatal("third encode was not served from the memo")
	}
	checkMemoAccounting(t)
}
