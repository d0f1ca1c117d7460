package mht

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// coveredByCap counts the digests of the uncut proof for want that sit at
// depth ≤ d — the ones a cut at depth d leaves to the cap. It walks the
// canonical shape on its own, not through proofSize.
func coveredByCap(off, m int, want []int, depth, d int) int {
	var inside []int
	for _, w := range want {
		if w >= off && w < off+m {
			inside = append(inside, w)
		}
	}
	if len(inside) == 0 {
		if depth <= d {
			return 1
		}
		return 0
	}
	if m == 1 {
		return 0
	}
	k := 1
	for k*2 < m {
		k *= 2
	}
	return coveredByCap(off, k, inside, depth+1, d) + coveredByCap(off+k, m-k, inside, depth+1, d)
}

// verifyCut recomputes the root of tree from the leaves at want and a proof
// cut at depth d, the top taken from c.
func verifyCut(h Hasher, leaves [][]byte, want []int, proof Proof, c *Cap, d int) ([]byte, error) {
	return RootFromCappedProof(h, len(leaves), want, func(_ []byte, j int) []byte { return leaves[want[j]] }, proof, c, d)
}

func checkCappedProof(t *testing.T, h Hasher, r *rand.Rand, leaves [][]byte, want []int, d int) {
	t.Helper()
	n := len(leaves)
	tree := NewTree(h, n, Leaves(leaves))
	root := tree.Root()
	frontier := tree.AppendFrontier(nil, d)
	if len(frontier) != FrontierSize(n, d)*h.Size() {
		t.Fatalf("n=%d d=%d: frontier of %d bytes, FrontierSize says %d digests", n, d, len(frontier), FrontierSize(n, d))
	}
	c, err := NewCap(h, n, d, frontier, root)
	if err != nil {
		t.Fatalf("n=%d d=%d: honest frontier refused: %v", n, d, err)
	}
	if n > 0 {
		bad := bytes.Clone(frontier)
		bad[r.Intn(len(bad))] ^= 1 << r.Intn(8)
		if _, err := NewCap(h, n, d, bad, root); !errors.Is(err, ErrCapRoot) {
			t.Fatalf("n=%d d=%d: a flipped frontier byte gave %v, want ErrCapRoot", n, d, err)
		}
	}

	full, err := tree.Prove(want)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := tree.ProveCapped(want, d)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	if n > 0 {
		covered = coveredByCap(0, n, want, 0, d)
	}
	if got, wantSize := len(cut.Digests), ProofSize(n, want)-covered; got != wantSize || got != CappedProofSize(n, want, d) {
		t.Fatalf("n=%d d=%d |want|=%d: cut proof has %d digests, want %d − %d covered by the cap (CappedProofSize %d)",
			n, d, len(want), got, ProofSize(n, want), covered, CappedProofSize(n, want, d))
	}

	// The cut proof verifies against the cap exactly when the uncut one
	// verifies against the root: for the honest leaves, and for a forged one.
	agree := func(leaves [][]byte, what string) {
		fullRoot, ferr := verifyCut(h, leaves, want, full, nil, 0)
		cutRoot, cerr := verifyCut(h, leaves, want, cut, c, d)
		fullOK := ferr == nil && bytes.Equal(fullRoot, root)
		cutOK := cerr == nil && bytes.Equal(cutRoot, root)
		if fullOK != cutOK {
			t.Fatalf("n=%d d=%d %s: uncut proof verifies %v, cut proof %v (%v)", n, d, what, fullOK, cutOK, cerr)
		}
	}
	agree(leaves, "honest leaves")
	if len(want) > 0 {
		forged := slices.Clone(leaves)
		w := want[r.Intn(len(want))]
		forged[w] = append(bytes.Clone(leaves[w]), 0x5a)
		agree(forged, "a forged leaf")
	}
	if got, err := verifyCut(h, leaves, want, cut, c, d); err != nil || !bytes.Equal(got, root) {
		t.Fatalf("n=%d d=%d: honest cut proof: %v", n, d, err)
	}

	refused := func(proof Proof, what string) {
		t.Helper()
		if got, err := verifyCut(h, leaves, want, proof, c, d); err == nil && bytes.Equal(got, root) {
			t.Fatalf("n=%d d=%d: %s verified", n, d, what)
		}
	}
	// Any one flipped digest is refused (a sample, so a large proof costs
	// no more than a few rebuilds).
	for _, i := range r.Perm(len(cut.Digests))[:min(len(cut.Digests), 16)] {
		bad := Proof{Digests: slices.Clone(cut.Digests)}
		bad.Digests[i] = bytes.Clone(bad.Digests[i])
		bad.Digests[i][r.Intn(h.Size())] ^= 1 << r.Intn(8)
		refused(bad, "a flipped digest")
	}
	// So is a proof cut one level too deep or too shallow — unless the two
	// cuts are the same proof.
	for _, other := range []int{d - 1, d + 1} {
		if other < 0 || other > MaxCapDepth {
			continue
		}
		p, err := tree.ProveCapped(want, other)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(p.Digests, cut.Digests, bytes.Equal) {
			refused(p, "a proof cut at the wrong depth")
		}
	}
	// A cut deeper than the cap held is refused before any hashing.
	if d < MaxCapDepth {
		if _, err := verifyCut(h, leaves, want, cut, c, d+1); !errors.Is(err, ErrCapDepth) {
			t.Fatalf("n=%d d=%d: a cut below the cap gave %v, want ErrCapDepth", n, d, err)
		}
	}
}

func TestCappedProofShapes(t *testing.T) {
	h := testHasher()
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 5, 8, 255, 256, 257, 600, 1479} {
		for _, d := range []int{1, 2, 8, 12} {
			leaves := randomLeaves(r, n)
			for range 4 {
				checkCappedProof(t, h, r, leaves, randomWant(r, n), d)
			}
		}
	}
}

// TestCapMismatchNamesTheWrongLeaf: one wrong revealed leaf of a cut proof
// is narrowed to the revealed leaves under its depth-d node — the wrong one
// among them, none from another branch — and an uncut proof narrows nothing.
func TestCapMismatchNamesTheWrongLeaf(t *testing.T) {
	h := testHasher()
	leaves := leavesN(100)
	tree := NewTree(h, len(leaves), Leaves(leaves))
	const d = 4 // leaves 48–55 share one depth-4 node
	c, err := NewCap(h, len(leaves), d, tree.AppendFrontier(nil, d), tree.Root())
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 50, 51, 90}
	proof, err := tree.ProveCapped(want, d)
	if err != nil {
		t.Fatal(err)
	}
	forged := slices.Clone(leaves)
	forged[50] = []byte("forged")
	leaf := func(_ []byte, j int) []byte { return forged[want[j]] }
	if root, err := RootFromCappedProof(h, len(leaves), want, leaf, proof, c, d); err != nil || bytes.Equal(root, tree.Root()) {
		t.Fatalf("a forged leaf rebuilt to %x, %v", root, err)
	}
	if got := CapMismatch(h, len(leaves), want, leaf, proof, c, d); !slices.Equal(got, []int{50, 51}) {
		t.Fatalf("CapMismatch named %v, want [50 51] (the revealed leaves of the forged leaf's depth-%d subtree)", got, d)
	}
	uncut, err := tree.Prove(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := CapMismatch(h, len(leaves), want, leaf, uncut, nil, 0); got != nil {
		t.Fatalf("an uncut proof named %v", got)
	}
}

// TestFrontierSize pins the frontier of small trees against a count of the
// nodes at depth min(d, leaf depth).
func TestFrontierSize(t *testing.T) {
	var count func(m, depth, d int) int
	count = func(m, depth, d int) int {
		if depth == d || m == 1 {
			return 1
		}
		k := splitPoint(m)
		return count(k, depth+1, d) + count(m-k, depth+1, d)
	}
	for n := 1; n <= 300; n++ {
		for d := 1; d <= 10; d++ {
			if got, want := FrontierSize(n, d), count(n, 0, d); got != want {
				t.Fatalf("FrontierSize(%d, %d) = %d, want %d", n, d, got, want)
			}
		}
	}
}

// FuzzCappedProof checks cut proofs against uncut ones over random trees
// of up to 5 000 leaves, random sorted want sets and cuts up to depth 12:
// the cut proof carries exactly the digests the cap does not, verifies
// against a verified cap exactly when the uncut proof verifies against the
// root, and refuses any flipped digest and a cut one level off.
func FuzzCappedProof(f *testing.F) {
	f.Add(int64(1), uint16(600), uint8(8))
	f.Add(int64(2), uint16(1), uint8(1))
	f.Add(int64(3), uint16(256), uint8(12))
	f.Add(int64(4), uint16(4999), uint8(3))
	f.Add(int64(5), uint16(7), uint8(9))
	h := testHasher()
	f.Fuzz(func(t *testing.T, seed int64, size uint16, depth uint8) {
		n := 1 + int(size)%5000
		d := 1 + int(depth)%12
		r := rand.New(rand.NewSource(seed))
		leaves := leavesN(n)
		checkCappedProof(t, h, r, leaves, randomWant(r, n), d)
	})
}
