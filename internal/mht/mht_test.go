package mht

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"authtext/internal/sig"
)

func testHasher() Hasher { return NewHasher(sig.MustHasher(16)) }

func leavesN(n int) [][]byte {
	leaves := make([][]byte, n)
	for i := range leaves {
		b := make([]byte, 4)
		binary.BigEndian.PutUint32(b, uint32(i*7+1))
		leaves[i] = b
	}
	return leaves
}

func TestRootEmptyAndSingle(t *testing.T) {
	h := testHasher()
	if len(Root(h, nil)) != 16 {
		t.Fatal("empty root wrong size")
	}
	one := Root(h, [][]byte{[]byte("m1")})
	if !bytes.Equal(one, h.Leaf([]byte("m1"))) {
		t.Fatal("single-leaf root != leaf digest")
	}
}

// TestFigure3Structure checks the 4-leaf tree of Fig 3:
// root = node(node(leaf m1, leaf m2), node(leaf m3, leaf m4)).
func TestFigure3Structure(t *testing.T) {
	h := testHasher()
	m := [][]byte{[]byte("m1"), []byte("m2"), []byte("m3"), []byte("m4")}
	n1, n2, n3, n4 := h.Leaf(m[0]), h.Leaf(m[1]), h.Leaf(m[2]), h.Leaf(m[3])
	n12 := h.Node(n1, n2)
	n34 := h.Node(n3, n4)
	want := h.Node(n12, n34)
	if !bytes.Equal(Root(h, m), want) {
		t.Fatal("root does not match hand-built Fig 3 tree")
	}

	// VO for m1 contains N2 and N3,4 (§2.2).
	proof, err := Prove(h, m, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(proof.Digests) != 2 {
		t.Fatalf("proof for m1 has %d digests, want 2", len(proof.Digests))
	}
	if !bytes.Equal(proof.Digests[0], n2) || !bytes.Equal(proof.Digests[1], n34) {
		t.Fatal("proof digests are not [N2, N3,4]")
	}
	root, err := RootFromProof(h, 4, map[int][]byte{0: m[0]}, proof)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(root, want) {
		t.Fatal("recomputed root mismatch")
	}
}

func TestSplitPoint(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 2, 5: 4, 6: 4, 7: 4, 8: 4, 9: 8, 127: 64, 128: 64, 129: 128}
	for n, want := range cases {
		if got := splitPoint(n); got != want {
			t.Errorf("splitPoint(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestProveVerifyAllSizesAllSingles(t *testing.T) {
	h := testHasher()
	for n := 1; n <= 33; n++ {
		leaves := leavesN(n)
		root := Root(h, leaves)
		for i := 0; i < n; i++ {
			proof, err := Prove(h, leaves, []int{i})
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			got, err := RootFromProof(h, n, map[int][]byte{i: leaves[i]}, proof)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if !bytes.Equal(got, root) {
				t.Fatalf("n=%d i=%d: root mismatch", n, i)
			}
		}
	}
}

func TestProveVerifyPrefixes(t *testing.T) {
	h := testHasher()
	for _, n := range []int{1, 2, 3, 5, 8, 13, 64, 100, 257} {
		leaves := leavesN(n)
		root := Root(h, leaves)
		for _, k := range []int{1, 2, n / 2, n - 1, n} {
			if k < 1 || k > n {
				continue
			}
			want := make([]int, k)
			wantData := make(map[int][]byte, k)
			for i := 0; i < k; i++ {
				want[i] = i
				wantData[i] = leaves[i]
			}
			proof, err := Prove(h, leaves, want)
			if err != nil {
				t.Fatal(err)
			}
			if got := ProofSize(n, want); got != len(proof.Digests) {
				t.Fatalf("n=%d k=%d: ProofSize=%d, actual=%d", n, k, got, len(proof.Digests))
			}
			got, err := RootFromProof(h, n, wantData, proof)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, root) {
				t.Fatalf("n=%d k=%d: root mismatch", n, k)
			}
		}
	}
}

func TestTamperedLeafFailsVerification(t *testing.T) {
	h := testHasher()
	leaves := leavesN(10)
	root := Root(h, leaves)
	proof, err := Prove(h, leaves, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RootFromProof(h, 10, map[int][]byte{3: []byte("evil")}, proof)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, root) {
		t.Fatal("tampered leaf produced the correct root")
	}
}

func TestTamperedDigestFailsVerification(t *testing.T) {
	h := testHasher()
	leaves := leavesN(10)
	root := Root(h, leaves)
	proof, err := Prove(h, leaves, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	proof.Digests[0] = h.H.Sum([]byte("evil"))
	got, err := RootFromProof(h, 10, map[int][]byte{3: leaves[3]}, proof)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, root) {
		t.Fatal("tampered digest produced the correct root")
	}
}

func TestWrongPositionFailsVerification(t *testing.T) {
	h := testHasher()
	leaves := leavesN(8)
	root := Root(h, leaves)
	proof, err := Prove(h, leaves, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	// Claim the same leaf sits at position 3.
	got, err := RootFromProof(h, 8, map[int][]byte{3: leaves[2]}, proof)
	if err == nil && bytes.Equal(got, root) {
		t.Fatal("relocated leaf verified")
	}
}

func TestProofShapeErrors(t *testing.T) {
	h := testHasher()
	leaves := leavesN(8)
	proof, err := Prove(h, leaves, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	// Too few digests.
	short := Proof{Digests: proof.Digests[:len(proof.Digests)-1]}
	if _, err := RootFromProof(h, 8, map[int][]byte{2: leaves[2]}, short); err == nil {
		t.Fatal("short proof accepted")
	}
	// Too many digests.
	long := Proof{Digests: append(append([][]byte{}, proof.Digests...), h.Empty())}
	if _, err := RootFromProof(h, 8, map[int][]byte{2: leaves[2]}, long); err == nil {
		t.Fatal("long proof accepted")
	}
	// Out-of-range position.
	if _, err := RootFromProof(h, 8, map[int][]byte{9: leaves[2]}, proof); err == nil {
		t.Fatal("out-of-range position accepted")
	}
	// Wrong digest width.
	bad := Proof{Digests: [][]byte{[]byte("short")}}
	if _, err := RootFromProof(h, 8, map[int][]byte{2: leaves[2]}, bad); err == nil {
		t.Fatal("narrow digest accepted")
	}
}

func TestProveRejectsBadWant(t *testing.T) {
	h := testHasher()
	leaves := leavesN(4)
	if _, err := Prove(h, leaves, []int{-1}); err == nil {
		t.Fatal("negative position accepted")
	}
	if _, err := Prove(h, leaves, []int{5}); err == nil {
		t.Fatal("out-of-range position accepted")
	}
	if _, err := Prove(h, leaves, []int{2, 2}); err == nil {
		t.Fatal("duplicate positions accepted")
	}
	if _, err := Prove(h, leaves, []int{3, 1}); err == nil {
		t.Fatal("descending positions accepted")
	}
}

// Property: for random sizes and random subsets, Prove → RootFromProof
// reproduces the root computed from all leaves.
func TestProofRoundTripProperty(t *testing.T) {
	h := testHasher()
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		leaves := make([][]byte, n)
		for i := range leaves {
			b := make([]byte, 8)
			r.Read(b)
			leaves[i] = b
		}
		root := Root(h, leaves)
		k := 1 + r.Intn(n)
		positions := r.Perm(n)[:k]
		sort.Ints(positions)
		wantData := make(map[int][]byte, k)
		for _, p := range positions {
			wantData[p] = leaves[p]
		}
		proof, err := Prove(h, leaves, positions)
		if err != nil {
			return false
		}
		got, err := RootFromProof(h, n, wantData, proof)
		if err != nil {
			return false
		}
		return bytes.Equal(got, root)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyGroupSizePaperValues(t *testing.T) {
	// §3.3.2: |h| = 16, |leaf| = 8 → g = 2, groups of 4.
	if got := BuddyGroupSize(8, 16); got != 4 {
		t.Fatalf("BuddyGroupSize(8,16) = %d, want 4", got)
	}
	// 4-byte doc-id leaves → g = 4, groups of 16.
	if got := BuddyGroupSize(4, 16); got != 16 {
		t.Fatalf("BuddyGroupSize(4,16) = %d, want 16", got)
	}
	if got := BuddyGroupSize(32, 16); got != 1 {
		t.Fatalf("BuddyGroupSize(32,16) = %d, want 1", got)
	}
	if got := BuddyGroupSize(0, 16); got != 1 {
		t.Fatalf("BuddyGroupSize(0,16) = %d, want 1", got)
	}
}

func TestExpandBuddies(t *testing.T) {
	got := ExpandBuddies([]int{1, 6}, 4, 10)
	want := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Clipping at n.
	got = ExpandBuddies([]int{9}, 4, 10)
	want = []int{8, 9}
	if len(got) != 2 || got[0] != 8 || got[1] != 9 {
		t.Fatalf("got %v, want %v", got, want)
	}
	// Group size 1: identity.
	got = ExpandBuddies([]int{2, 5}, 1, 10)
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("group 1: got %v", got)
	}
}

func TestRoundUpPrefix(t *testing.T) {
	cases := []struct{ k, g, n, want int }{
		{0, 4, 10, 0},
		{1, 4, 10, 4},
		{4, 4, 10, 4},
		{5, 4, 10, 8},
		{9, 4, 10, 10},
		{3, 1, 10, 3},
		{12, 4, 10, 10},
	}
	for _, c := range cases {
		if got := RoundUpPrefix(c.k, c.g, c.n); got != c.want {
			t.Errorf("RoundUpPrefix(%d,%d,%d) = %d, want %d", c.k, c.g, c.n, got, c.want)
		}
	}
}

// Property: buddy expansion always contains the original positions and is
// sorted, deduplicated and within range.
func TestExpandBuddiesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		group := []int{1, 2, 4, 8, 16}[r.Intn(5)]
		k := 1 + r.Intn(n)
		want := r.Perm(n)[:k]
		sort.Ints(want)
		got := ExpandBuddies(want, group, n)
		seen := map[int]bool{}
		for i, p := range got {
			if p < 0 || p >= n {
				return false
			}
			if i > 0 && got[i-1] >= p {
				return false
			}
			seen[p] = true
		}
		for _, w := range want {
			if !seen[w] {
				return false
			}
		}
		// Appending into a reused buffer gives the same positions after
		// whatever the buffer held.
		appended := AppendBuddies([]int{-7, -3}, want, group, n)
		if len(appended) != 2+len(got) || appended[0] != -7 || appended[1] != -3 {
			return false
		}
		for i, p := range got {
			if appended[2+i] != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRoot1024(b *testing.B) {
	h := testHasher()
	leaves := leavesN(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Root(h, leaves)
	}
}

func BenchmarkProvePrefix(b *testing.B) {
	h := testHasher()
	leaves := leavesN(1024)
	want := make([]int, 32)
	for i := range want {
		want[i] = i
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Prove(h, leaves, want); err != nil {
			b.Fatal(err)
		}
	}
}
