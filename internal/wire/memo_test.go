package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// sectionFrame frames one deflated chunk holding sec.
func sectionFrame(t testing.TB, sec []byte) []byte {
	t.Helper()
	return chunkedFrame(TypeManifest, appendChunk(nil, chunk{n: len(sec), deflated: true, body: closedStream(t, sec, flate.BestSpeed)}))
}

// TestDecodeMemoBounded floods the decoder with sections it has never seen,
// once each and then twice each (a second sighting admits the bytes for
// good): whatever arrives, what the decode memo retains stays within its
// bound, its accounting stays exact, and every decode is right.
func TestDecodeMemoBounded(t *testing.T) {
	sec := make([]byte, 256<<10) // a unique prefix, then zeros: cheap to deflate, a quarter MiB to keep
	for _, sightings := range []int{1, 2} {
		resetMemo()
		before := Inflations()
		n := int(3 * inflateMemo.maxBytes / int64(len(sec)))
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint64(sec, uint64(i))
			frame := sectionFrame(t, sec)
			for k := 0; k < sightings; k++ {
				if _, raw, err := DecodeFrame(frame); err != nil || !bytes.Equal(raw, sec) {
					t.Fatalf("section %d, sighting %d: %v", i, k+1, err)
				}
				checkMemoAccounting(t, inflateMemo)
			}
		}
		after := Inflations()
		if got := after.Inflated - before.Inflated; got != uint64(n) {
			t.Fatalf("%d sightings of %d sections inflated %d times, want %d", sightings, n, got, n)
		}
		if got, want := after.MemoHit-before.MemoHit, uint64(n*(sightings-1)); got != want {
			t.Fatalf("%d sightings of %d sections hit the memo %d times, want %d", sightings, n, got, want)
		}
		inflateMemo.mu.Lock()
		retained, entries := inflateMemo.bytes, inflateMemo.lru.Len()
		inflateMemo.mu.Unlock()
		t.Logf("%d sightings of %d sections of %d KiB: %d entries retain %d bytes (bound %d)",
			sightings, n, len(sec)>>10, entries, retained, inflateMemo.maxBytes)
		if sightings == 2 && retained < inflateMemo.maxBytes/2 {
			t.Fatalf("admitted sections retain %d bytes, under half the bound: the flood did not reach it", retained)
		}
	}
}

// TestDecodeMemoConcurrentDecodes is the -race hammer for the decode memo:
// many goroutines decode answers that share their documents, in different
// orders, while the memo is emptied under them; every memo-served decode
// must equal what inflating the frame's chunks standalone gives, and decode
// to the answer it was made from.
func TestDecodeMemoConcurrentDecodes(t *testing.T) {
	bodies := answerLikePayloads(8)
	rng := rand.New(rand.NewSource(5))
	var answers []*SearchResponse
	var frames, want [][]byte
	for i := 0; i < 16; i++ {
		r := &SearchResponse{Query: "merkle tree", R: 3, Algo: "tnra", Scheme: "cmht", VO: xorshiftBytes(uint64(i), 600)}
		for k := 0; k < 3; k++ {
			r.Hits = append(r.Hits, Hit{DocID: k, Score: float64(3 - k), Content: bodies[rng.Intn(len(bodies))]})
		}
		frame := EncodeSearchResponse(r)
		ref, err := standalone(frame[HeaderSize:], nil)
		if err != nil {
			t.Fatal(err)
		}
		answers, frames, want = append(answers, r), append(frames, frame), append(want, ref)
	}
	resetMemo()

	workers, rounds := 8, 40
	if testing.Short() {
		rounds = 12
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < rounds; round++ {
				if round%7 == 0 {
					inflateMemo.reset()
				}
				i := r.Intn(len(frames))
				_, raw, err := DecodeFrame(frames[i])
				if err != nil || !bytes.Equal(raw, want[i]) {
					t.Errorf("worker %d: frame %d decodes differently from its standalone inflation: %v", w, i, err)
					return
				}
				got, err := DecodeSearchResponse(frames[i])
				if err != nil || !reflect.DeepEqual(got, answers[i]) {
					t.Errorf("worker %d: answer %d did not survive the round trip: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	checkMemoAccounting(t, inflateMemo)
}

// Callers get copies, never memo storage: scribbling over everything a
// decoded answer holds changes nothing a later decode returns, whether that
// decode inflates or replays from the memo.
func TestDecodedContentIsNotMemoStorage(t *testing.T) {
	resetMemo()
	want := verboseSearchResponse()
	frame := EncodeSearchResponse(want)
	for i := range want.Hits {
		if len(want.Hits[i].Content) == 0 {
			want.Hits[i].Content = nil // as the decoder returns an empty body
		}
	}
	before := Inflations()
	for i := 0; i < 3; i++ {
		got, err := DecodeSearchResponse(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %d after the caller wrote over an earlier answer differs", i+1)
		}
		for _, h := range got.Hits {
			for j := range h.Content {
				h.Content[j] ^= 0xff
			}
		}
		for j := range got.VO {
			got.VO[j] = 0
		}
	}
	after := Inflations()
	deflated := 0
	for _, c := range chunksOf(t, frame) {
		if c.deflated {
			deflated++
		}
	}
	if in, hit := after.Inflated-before.Inflated, after.MemoHit-before.MemoHit; deflated == 0 || in != uint64(deflated) || hit != uint64(2*deflated) {
		t.Fatalf("three decodes of %d deflated chunks: %d inflated, %d from the memo; want %d and %d", deflated, in, hit, deflated, 2*deflated)
	}
}
