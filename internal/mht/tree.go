package mht

// Tree is a materialised Merkle tree: every subtree digest of the canonical
// splitPoint shape, computed once and immutable afterwards. Proving from
// it copies stored digests and hashes nothing, so the cost of a proof is
// proportional to the proof, not to the leaf count — what a tree that is
// proved from query after query needs (the collection-level trees, and the
// document trees TRA proves from once per encountered document). A Tree is
// safe for concurrent use.
//
// Nodes are stored flat in pre-order: the subtree over m leaves occupies
// 2m−1 consecutive digest slots, its root first, then the left subtree
// (splitPoint(m) leaves), then the right one. Memory is (2n−1)·Size bytes.
type Tree struct {
	size  int
	n     int
	nodes []byte
}

// NewTree hashes the n leaves leaf yields into a materialised tree.
func NewTree(h Hasher, n int, leaf LeafFunc) *Tree {
	t := &Tree{size: h.Size(), n: n}
	if n == 0 {
		t.nodes = h.Empty()
		return t
	}
	t.nodes = make([]byte, (2*n-1)*t.size)
	w := &walker{h: h, leaf: leaf}
	w.fill(t.nodes, 0, n)
	return t
}

// fill writes the subtree over leaves [off, off+m) into nodes, which is
// exactly its 2m−1 slots.
func (w *walker) fill(nodes []byte, off, m int) {
	sz := w.h.Size()
	if m == 1 {
		w.h.leafInto(nodes, w.leaf(w.buf[:0], off))
		return
	}
	k := splitPoint(m)
	left, right := nodes[sz:2*k*sz], nodes[2*k*sz:]
	w.fill(left, off, k)
	w.fill(right, off+k, m-k)
	w.h.nodeInto(nodes[:sz], left[:sz], right[:sz])
}

// Root returns a copy of the root digest (the empty-tree digest for n = 0).
func (t *Tree) Root() []byte { return append([]byte(nil), t.nodes[:t.size]...) }

// Len returns the number of leaves.
func (t *Tree) Len() int { return t.n }

// Bytes returns the memory the stored digests occupy.
func (t *Tree) Bytes() int { return len(t.nodes) }

// Prove returns the same proof as Prove over the tree's leaves, by copying
// stored digests. want must be sorted ascending, duplicate-free, and within
// [0, n).
func (t *Tree) Prove(want []int) (Proof, error) { return t.ProveCapped(want, 0) }

// ProveInto is Prove appending into an arena the caller shares between
// proofs — from any number of trees of one digest size — instead of sizing
// and allocating per proof. The returned digests alias the arena.
func (t *Tree) ProveInto(a *ProofArena, want []int) ([][]byte, error) {
	if err := checkWant(want, t.n); err != nil {
		return nil, err
	}
	return t.proveInto(a, want, -1), nil
}

// proveInto takes a proof cut cut levels below the root (−1: uncut) from a.
func (t *Tree) proveInto(a *ProofArena, want []int, cut int) [][]byte {
	if t.n == 0 {
		return nil
	}
	a.begin()
	t.prove(t.nodes, 0, t.n, want, a, cut)
	return a.proof()
}

// prove mirrors walker.prove over the stored nodes of the subtree covering
// leaves [off, off+m), cut levels above the cut: a subtree holding no
// wanted leaf is the verifier's cap's to supply while cut ≥ 0.
func (t *Tree) prove(nodes []byte, off, m int, want []int, out *ProofArena, cut int) {
	if len(want) == 0 {
		if cut < 0 {
			copy(out.next(t.size), nodes[:t.size])
		}
		return
	}
	if m == 1 {
		return
	}
	k := splitPoint(m)
	l, r := partition(want, off+k)
	t.prove(nodes[t.size:2*k*t.size], off, k, l, out, cut-1)
	t.prove(nodes[2*k*t.size:], off+k, m-k, r, out, cut-1)
}
