package engine

import (
	"testing"

	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/store"
)

// buildList writes one list in both layouts onto a fresh device.
func buildCursorFixture(t *testing.T, n int, blockSize int) (*store.Device, store.Extent, store.Extent, []index.Posting) {
	t.Helper()
	dev := store.MustDevice(store.Params{
		BlockSize: blockSize, Seek: 1e6, Rotation: 1e6, TransferBytesPerSec: 1 << 20,
	})
	ps := make([]index.Posting, n)
	for i := range ps {
		ps[i] = index.Posting{Doc: index.DocID(i * 3), W: float32(n-i) * 0.5}
	}
	plainExt := dev.AllocWrite(encodePlainList(ps, blockSize))
	rho := core.ChainRho(blockSize, 16)
	leaves := core.KindTNRACMHT.ListLeaves(ps)
	hasher := testHasher()
	digests := core.ChainDigests(hasher, leaves, rho)
	chainExt := dev.AllocWrite(encodeChainList(ps, digests, blockSize, 16, rho))
	return dev, plainExt, chainExt, ps
}

func TestPlainCursorRoundTrip(t *testing.T) {
	dev, plainExt, _, ps := buildCursorFixture(t, 100, 256)
	cur := newListCursor(dev.NewSession(), plainExt, len(ps), false, 256, 16)
	for i := 0; i < len(ps); i++ {
		p, ok := cur.Peek()
		if !ok {
			t.Fatalf("exhausted at %d", i)
		}
		if p != ps[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, p, ps[i])
		}
		cur.Advance()
	}
	if _, ok := cur.Peek(); ok {
		t.Fatal("cursor not exhausted")
	}
	if cur.Consumed() != len(ps) {
		t.Fatal("consumed mismatch")
	}
}

func TestChainCursorRoundTripAndDigests(t *testing.T) {
	dev, _, chainExt, ps := buildCursorFixture(t, 100, 256)
	rho := core.ChainRho(256, 16)
	cur := newListCursor(dev.NewSession(), chainExt, len(ps), true, 256, 16)
	all := cur.LoadAll()
	if len(all) != len(ps) {
		t.Fatalf("LoadAll %d entries", len(all))
	}
	for i := range ps {
		if all[i] != ps[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	// Header digests must reproduce the chain computation.
	leaves := core.KindTNRACMHT.ListLeaves(ps)
	digests := core.ChainDigests(testHasher(), leaves, rho)
	nb := core.ChainBlocks(len(ps), rho)
	for j := 0; j < nb-1; j++ {
		got := cur.NextDigest(j)
		if string(got) != string(digests[j+1]) {
			t.Fatalf("block %d header digest mismatch", j)
		}
	}
	if cur.NextDigest(nb-1) != nil {
		t.Fatal("last block must have no successor digest")
	}
}

func TestCursorLazyBlockLoads(t *testing.T) {
	dev, plainExt, _, ps := buildCursorFixture(t, 100, 256) // 32 entries/block
	sess := dev.NewSession()
	cur := newListCursor(sess, plainExt, len(ps), false, 256, 16)
	cur.Peek()
	if got := sess.Stats().BlockReads; got != 1 {
		t.Fatalf("first peek read %d blocks, want 1", got)
	}
	// Consuming within the block costs nothing further.
	for i := 0; i < 31; i++ {
		cur.Advance()
		cur.Peek()
	}
	if got := sess.Stats().BlockReads; got != 1 {
		t.Fatalf("within-block consumption read %d blocks", got)
	}
	cur.Advance()
	cur.Peek() // crosses into block 1
	if got := sess.Stats().BlockReads; got != 2 {
		t.Fatalf("block crossing read %d blocks, want 2", got)
	}
}

func TestFullListForProofChargesFullScan(t *testing.T) {
	dev, plainExt, _, ps := buildCursorFixture(t, 100, 256)
	sess := dev.NewSession()
	cur := newListCursor(sess, plainExt, len(ps), false, 256, 16)
	cur.Peek() // one block fetched during "processing"
	before := sess.Stats()
	all := cur.FullListForProof()
	if len(all) != len(ps) {
		t.Fatal("full scan incomplete")
	}
	// §4.1 prevents caching: the proof pass pays for every block again.
	if got := sess.Stats().Sub(before).BlockReads; got != int64(plainExt.Blocks) {
		t.Fatalf("proof scan read %d blocks, want %d", got, plainExt.Blocks)
	}
}

func TestDocRecordRoundTrip(t *testing.T) {
	vec := []index.TermFreq{{Term: 2, W: 0.5}, {Term: 9, W: 1.25}}
	hash := make([]byte, 16)
	for i := range hash {
		hash[i] = byte(i)
	}
	sigBytes := []byte("signature-bytes")
	var vecs []index.TermFreq
	rec, err := decodeDocRecord(encodeDocRecord(vec, hash, sigBytes), 16, &vecs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.vec) != 2 || rec.vec[1].W != 1.25 || rec.vec[0].Term != 2 {
		t.Fatalf("vector mismatch: %+v", rec.vec)
	}
	if string(rec.contentHash) != string(hash) || string(rec.sig) != string(sigBytes) {
		t.Fatal("hash/sig mismatch")
	}
	// A second record carved from the same arena leaves the first in place,
	// also when it does not fit the current chunk.
	long := make([]index.TermFreq, 3000)
	for i := range long {
		long[i] = index.TermFreq{Term: index.TermID(i), W: float32(i)}
	}
	rec2, err := decodeDocRecord(encodeDocRecord(long, hash, sigBytes), 16, &vecs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.vec) != len(long) || rec2.vec[2999] != long[2999] || rec.vec[1].W != 1.25 || rec.vec[0].Term != 2 {
		t.Fatal("arena growth disturbed a decoded vector")
	}
}

func TestDecodeDocRecordErrors(t *testing.T) {
	if _, err := decodeDocRecord([]byte{1, 2, 3}, 16, new([]index.TermFreq)); err == nil {
		t.Fatal("short record decoded")
	}
	// Claimed count larger than the payload.
	bad := encodeDocRecord([]index.TermFreq{{Term: 1, W: 1}}, make([]byte, 16), nil)
	bad[3] = 200
	if _, err := decodeDocRecord(bad, 16, new([]index.TermFreq)); err == nil {
		t.Fatal("truncated record decoded")
	}
}

func testHasher() (h mhtHasher) { return newTestHasher() }
