package mht

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"authtext/internal/sig"
)

// randomLeaves returns n leaves of mixed lengths, including ones past the
// hasher's stack-buffer limit.
func randomLeaves(r *rand.Rand, n int) [][]byte {
	leaves := make([][]byte, n)
	for i := range leaves {
		size := 1 + r.Intn(24)
		if r.Intn(16) == 0 {
			size = 60 + r.Intn(80)
		}
		leaves[i] = make([]byte, size)
		r.Read(leaves[i])
	}
	return leaves
}

// randomWant returns a random strictly ascending subset of [0, n).
func randomWant(r *rand.Rand, n int) []int {
	if n == 0 {
		return nil
	}
	var k int
	switch r.Intn(4) {
	case 0:
		k = r.Intn(2) // empty or a single leaf
	case 1:
		k = n // every leaf
	default:
		k = 1 + r.Intn(1+n/4)
	}
	if k > n {
		k = n
	}
	want := r.Perm(n)[:k]
	sort.Ints(want)
	return want
}

// checkTreeAgainstLeaves is the tentpole's contract: a materialised tree
// answers Root and Prove byte-for-byte like the functions that hash the
// leaves on every call, and its proofs recompute its root.
func checkTreeAgainstLeaves(t testing.TB, h Hasher, leaves [][]byte, want []int) {
	t.Helper()
	n := len(leaves)
	tree := NewTree(h, n, Leaves(leaves))
	root := Root(h, leaves)
	if !bytes.Equal(tree.Root(), root) {
		t.Fatalf("n=%d: tree root %x, Root %x", n, tree.Root(), root)
	}
	ref, refErr := Prove(h, leaves, want)
	got, gotErr := tree.Prove(want)
	if (refErr == nil) != (gotErr == nil) {
		t.Fatalf("n=%d want=%v: Prove err %v, Tree.Prove err %v", n, want, refErr, gotErr)
	}
	if refErr != nil {
		return
	}
	if len(got.Digests) != len(ref.Digests) || len(got.Digests) != ProofSize(n, want) {
		t.Fatalf("n=%d want=%v: %d digests, reference %d, ProofSize %d",
			n, want, len(got.Digests), len(ref.Digests), ProofSize(n, want))
	}
	for i := range ref.Digests {
		if !bytes.Equal(got.Digests[i], ref.Digests[i]) {
			t.Fatalf("n=%d want=%v: digest %d differs", n, want, i)
		}
	}
	if (got.Digests == nil) != (ref.Digests == nil) {
		t.Fatalf("n=%d want=%v: nil-ness of Digests differs", n, want)
	}
	// Round trip through both verifier entry points.
	data := make(map[int][]byte, len(want))
	for _, p := range want {
		data[p] = leaves[p]
	}
	back, err := RootFromProof(h, n, data, got)
	if err != nil || !bytes.Equal(back, root) {
		t.Fatalf("n=%d want=%v: RootFromProof = %x, %v; want %x", n, want, back, err, root)
	}
	back, err = RootFromProofFunc(h, n, want,
		func(_ []byte, j int) []byte { return leaves[want[j]] }, got)
	if err != nil || !bytes.Equal(back, root) {
		t.Fatalf("n=%d want=%v: RootFromProofFunc = %x, %v; want %x", n, want, back, err, root)
	}
}

func TestTreeMatchesLeafHashing(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129,
		255, 256, 257, 1000, 1023, 1024, 1025, 3000}
	for _, hashSize := range []int{16, 32} {
		h := NewHasher(sig.MustHasher(hashSize))
		r := rand.New(rand.NewSource(int64(hashSize)))
		for _, n := range sizes {
			leaves := randomLeaves(r, n)
			for rep := 0; rep < 6; rep++ {
				checkTreeAgainstLeaves(t, h, leaves, randomWant(r, n))
			}
		}
		for rep := 0; rep < 150; rep++ {
			n := r.Intn(400)
			checkTreeAgainstLeaves(t, h, randomLeaves(r, n), randomWant(r, n))
		}
	}
}

// TestProveIntoSharesOneArena: hundreds of proofs, from trees of every
// size, taken into one arena are each exactly what Prove returns — also the
// early ones, after the arena has grown past them many times — and never
// reach the trees or each other.
func TestProveIntoSharesOneArena(t *testing.T) {
	h := testHasher()
	r := rand.New(rand.NewSource(11))
	type taken struct {
		tree *Tree
		want []int
		got  [][]byte
	}
	var (
		arena  ProofArena
		proofs []taken
	)
	for i := 0; i < 400; i++ {
		n := r.Intn(300)
		if i%50 == 0 {
			n = 5000 // a proof larger than the arena's first chunks
		}
		tree := NewTree(h, n, Leaves(randomLeaves(r, n)))
		want := randomWant(r, n)
		got, err := tree.ProveInto(&arena, want)
		if err != nil {
			t.Fatal(err)
		}
		proofs = append(proofs, taken{tree, want, got})
	}
	for i, p := range proofs {
		ref, err := p.tree.Prove(p.want)
		if err != nil {
			t.Fatal(err)
		}
		if (p.got == nil) != (ref.Digests == nil) || len(p.got) != len(ref.Digests) {
			t.Fatalf("proof %d: %d digests (nil=%v), Prove returns %d (nil=%v)",
				i, len(p.got), p.got == nil, len(ref.Digests), ref.Digests == nil)
		}
		for j := range p.got {
			if !bytes.Equal(p.got[j], ref.Digests[j]) {
				t.Fatalf("proof %d: digest %d differs from Prove's", i, j)
			}
			if cap(p.got[j]) != len(p.got[j]) {
				t.Fatalf("proof %d: digest %d can be appended into its neighbour", i, j)
			}
		}
		if cap(p.got) != len(p.got) {
			t.Fatalf("proof %d can be appended into the next proof", i)
		}
		// Scribbling on a proof reaches neither its tree nor any other proof.
		for _, d := range p.got {
			for k := range d {
				d[k] ^= 0xFF
			}
		}
	}
	for i, p := range proofs {
		ref, _ := p.tree.Prove(p.want)
		for j := range p.got {
			for k := range p.got[j] {
				p.got[j][k] ^= 0xFF
			}
			if !bytes.Equal(p.got[j], ref.Digests[j]) {
				t.Fatalf("proof %d: digest %d shares memory with a tree or another proof", i, j)
			}
		}
	}
	if _, err := proofs[1].tree.ProveInto(&arena, []int{-1}); err == nil {
		t.Fatal("ProveInto accepted a bad position")
	}
}

func TestTreeProveRejectsBadWant(t *testing.T) {
	h := testHasher()
	tree := NewTree(h, 8, Leaves(leavesN(8)))
	for _, want := range [][]int{{-1}, {8}, {3, 3}, {5, 2}} {
		if _, err := tree.Prove(want); err == nil {
			t.Errorf("want %v accepted", want)
		}
	}
	if _, err := NewTree(h, 0, nil).Prove([]int{0}); err == nil {
		t.Error("position in an empty tree accepted")
	}
}

// A proof and a root handed out must not alias the tree: scribbling on
// them may not change what the next caller gets.
func TestTreeOutputsDoNotAliasTree(t *testing.T) {
	h := testHasher()
	tree := NewTree(h, 9, Leaves(leavesN(9)))
	root := tree.Root()
	p1, err := tree.Prove([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range p1.Digests {
		for i := range d {
			d[i] ^= 0xff
		}
	}
	for i := range root {
		root[i] ^= 0xff
	}
	checkTreeAgainstLeaves(t, h, leavesN(9), []int{4})
	p2, _ := tree.Prove([]int{4})
	if bytes.Equal(p1.Digests[0], p2.Digests[0]) || bytes.Equal(root, tree.Root()) {
		t.Fatal("caller's scribble reached the tree")
	}
}

// The stack-buffer hasher must produce exactly the digests of the
// streaming construction it replaced, across the buffer boundary.
func TestHasherMatchesStreamingConstruction(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, hashSize := range []int{8, 16, 20, 32} {
		base := sig.MustHasher(hashSize)
		h := NewHasher(base)
		for n := 0; n <= 200; n++ {
			data := make([]byte, n)
			r.Read(data)
			if got, want := h.Leaf(data), base.SumConcat([]byte{leafPrefix}, data); !bytes.Equal(got, want) {
				t.Fatalf("hash %d, leaf of %d bytes: %x, want %x", hashSize, n, got, want)
			}
		}
		l, rr := h.Leaf([]byte("l")), h.Leaf([]byte("r"))
		if got, want := h.Node(l, rr), base.SumConcat([]byte{nodePrefix}, l, rr); !bytes.Equal(got, want) {
			t.Fatalf("hash %d: node %x, want %x", hashSize, got, want)
		}
	}
}

// Hashing a tree over fixed-width leaves allocates a constant amount,
// whatever the leaf count: digests live on the stack or in one arena.
func TestTreeWalkAllocationsDoNotScale(t *testing.T) {
	h := testHasher()
	leaf := func(buf []byte, i int) []byte { return append(buf, byte(i), byte(i>>8), 1, 2) }
	want := []int{3, 4, 700}
	for _, n := range []int{1000, 4000} {
		n := n
		proof, err := ProveFunc(h, n, leaf, want)
		if err != nil {
			t.Fatal(err)
		}
		cases := map[string]func(){
			"RootFunc":  func() { RootFunc(h, n, leaf) },
			"ProveFunc": func() { ProveFunc(h, n, leaf, want) },
			"RootFromProofFunc": func() {
				RootFromProofFunc(h, n, want, func(buf []byte, j int) []byte { return leaf(buf, want[j]) }, proof)
			},
		}
		for name, fn := range cases {
			if allocs := testing.AllocsPerRun(10, fn); allocs > 6 {
				t.Errorf("%s over %d leaves: %.0f allocations", name, n, allocs)
			}
		}
	}
}

func FuzzTreeMatchesLeafHashing(f *testing.F) {
	f.Add(int64(1), uint16(0))
	f.Add(int64(2), uint16(1))
	f.Add(int64(3), uint16(64))
	f.Add(int64(4), uint16(65))
	f.Add(int64(5), uint16(1000))
	h := testHasher()
	f.Fuzz(func(t *testing.T, seed int64, size uint16) {
		n := int(size) % 2100
		r := rand.New(rand.NewSource(seed))
		checkTreeAgainstLeaves(t, h, randomLeaves(r, n), randomWant(r, n))
	})
}

func BenchmarkTreeProve(b *testing.B) {
	h := testHasher()
	for _, n := range []int{1024, 1 << 17} {
		tree := NewTree(h, n, Leaves(leavesN(n)))
		want := []int{n / 7, n / 3, n/3 + 1, n - 2}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tree.Prove(want); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
