package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"authtext/internal/mht"
	"authtext/internal/sig"
)

func chainHasher() mht.Hasher { return mht.NewHasher(sig.MustHasher(16)) }

func chainLeaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, 8)
		binary.BigEndian.PutUint32(b, uint32(i))
		binary.BigEndian.PutUint32(b[4:], uint32(i*31+7))
		out[i] = b
	}
	return out
}

func TestChainRho(t *testing.T) {
	// 1 KB blocks, 16-byte digests, 4-byte addresses, 8-byte entries.
	if got := ChainRho(1024, 16); got != 125 {
		t.Fatalf("ChainRho(1024,16) = %d, want 125", got)
	}
	if got := ChainRho(64, 16); got != 5 {
		t.Fatalf("ChainRho(64,16) = %d, want 5", got)
	}
	if got := ChainRho(16, 16); got != 1 {
		t.Fatalf("tiny blocks should clamp to 1, got %d", got)
	}
}

func TestChainBlocks(t *testing.T) {
	cases := []struct{ n, rho, want int }{
		{0, 5, 0}, {1, 5, 1}, {5, 5, 1}, {6, 5, 2}, {10, 5, 2}, {11, 5, 3},
	}
	for _, c := range cases {
		if got := ChainBlocks(c.n, c.rho); got != c.want {
			t.Errorf("ChainBlocks(%d,%d) = %d, want %d", c.n, c.rho, got, c.want)
		}
	}
}

func TestChainDigestsStructure(t *testing.T) {
	h := chainHasher()
	leaves := chainLeaves(12)
	rho := 5
	ds := ChainDigests(h, leaves, rho)
	if len(ds) != 3 {
		t.Fatalf("%d digests, want 3", len(ds))
	}
	// Last block: tree over its own leaves only.
	want2 := mht.Root(h, leaves[10:12])
	if !bytes.Equal(ds[2], want2) {
		t.Fatal("last block digest mismatch")
	}
	// Middle block: leaves 5..9 plus digest of block 2 as trailing leaf.
	tree1 := append(append([][]byte{}, leaves[5:10]...), ds[2])
	if !bytes.Equal(ds[1], mht.Root(h, tree1)) {
		t.Fatal("middle block digest mismatch")
	}
	tree0 := append(append([][]byte{}, leaves[0:5]...), ds[1])
	if !bytes.Equal(ds[0], mht.Root(h, tree0)) {
		t.Fatal("head digest mismatch")
	}
}

func TestChainPrefixRoundTripAllPrefixes(t *testing.T) {
	h := chainHasher()
	for _, n := range []int{1, 4, 5, 6, 11, 25, 37} {
		leaves := chainLeaves(n)
		for _, rho := range []int{1, 3, 5, 8} {
			ds := ChainDigests(h, leaves, rho)
			head := ds[0]
			for k := 0; k <= n; k++ {
				proof, err := ChainProvePrefix(h, leaves, ds, rho, k)
				if err != nil {
					t.Fatalf("n=%d rho=%d k=%d: %v", n, rho, k, err)
				}
				got, err := ChainRootFromPrefix(h, k, mht.Leaves(leaves), n, rho, proof)
				if err != nil {
					t.Fatalf("n=%d rho=%d k=%d: verify: %v", n, rho, k, err)
				}
				if !bytes.Equal(got, head) {
					t.Fatalf("n=%d rho=%d k=%d: head mismatch", n, rho, k)
				}
			}
		}
	}
}

func TestChainTamperedPrefixFails(t *testing.T) {
	h := chainHasher()
	leaves := chainLeaves(20)
	rho := 5
	ds := ChainDigests(h, leaves, rho)
	proof, err := ChainProvePrefix(h, leaves, ds, rho, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with a revealed leaf.
	tampered := append([][]byte{}, leaves[:7]...)
	evil := make([]byte, 8)
	copy(evil, tampered[3])
	evil[7] ^= 1
	tampered[3] = evil
	got, err := ChainRootFromPrefix(h, len(tampered), mht.Leaves(tampered), 20, rho, proof)
	if err == nil && bytes.Equal(got, ds[0]) {
		t.Fatal("tampered prefix verified")
	}
	// Reorder two revealed leaves.
	swapped := append([][]byte{}, leaves[:7]...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	got, err = ChainRootFromPrefix(h, len(swapped), mht.Leaves(swapped), 20, rho, proof)
	if err == nil && bytes.Equal(got, ds[0]) {
		t.Fatal("reordered prefix verified")
	}
	// Truncate the prefix but keep the proof.
	got, err = ChainRootFromPrefix(h, 6, mht.Leaves(leaves), 20, rho, proof)
	if err == nil && bytes.Equal(got, ds[0]) {
		t.Fatal("truncated prefix verified with stale proof")
	}
}

func TestChainProofSizeIndependentOfListLength(t *testing.T) {
	// §3.3.2: the number of digests per term is proportional to log2(ρ+1)
	// and independent of the list length.
	h := chainHasher()
	rho := 125
	k := 40
	var sizes []int
	for _, n := range []int{200, 2000, 20000} {
		leaves := chainLeaves(n)
		ds := ChainDigests(h, leaves, rho)
		proof, err := ChainProvePrefix(h, leaves, ds, rho, k)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(proof.Digests))
	}
	if sizes[0] != sizes[1] || sizes[1] != sizes[2] {
		t.Fatalf("proof sizes vary with list length: %v", sizes)
	}
}

func TestChainKProof(t *testing.T) {
	// rho=10, group=4: kScore=13 → block 1, rem 3 → rounded to 4 → 14.
	if got := ChainKProof(13, 100, 10, 4); got != 14 {
		t.Fatalf("ChainKProof = %d, want 14", got)
	}
	// Exact block boundary stays.
	if got := ChainKProof(20, 100, 10, 4); got != 20 {
		t.Fatalf("ChainKProof = %d, want 20", got)
	}
	// Clipped to n within the last, short block.
	if got := ChainKProof(97, 98, 10, 4); got != 98 {
		t.Fatalf("ChainKProof = %d, want 98", got)
	}
	// kScore at or beyond n.
	if got := ChainKProof(98, 98, 10, 4); got != 98 {
		t.Fatalf("ChainKProof = %d, want 98", got)
	}
}

// Property: buddy-rounded prefixes still verify, for random shapes.
func TestChainKProofRoundTripProperty(t *testing.T) {
	h := chainHasher()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		rho := 1 + r.Intn(20)
		group := []int{1, 2, 4, 16}[r.Intn(4)]
		kScore := 1 + r.Intn(n)
		kProof := ChainKProof(kScore, n, rho, group)
		if kProof < kScore || kProof > n {
			return false
		}
		leaves := chainLeaves(n)
		ds := ChainDigests(h, leaves, rho)
		proof, err := ChainProvePrefix(h, leaves, ds, rho, kProof)
		if err != nil {
			return false
		}
		got, err := ChainRootFromPrefix(h, kProof, mht.Leaves(leaves), n, rho, proof)
		if err != nil {
			return false
		}
		return bytes.Equal(got, ds[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
