package mht

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
)

// A proof cap is the top of a tree that a verifier already holds. A proof
// cut at depth d leaves out every subtree digest that covers no wanted leaf
// and sits at depth ≤ d (the root is depth 0); the verifier takes each one
// from its cap instead, and still compares the root it recomputes against
// the signed one. A cut at depth 0 is the uncut proof: no cap, the protocol
// as it always was.
//
// The cap travels as the tree's frontier: the nodes at depth min(d, leaf
// depth), in pre-order — the nodes at depth d, and every leaf shallower
// than that. A verifier rebuilds every level above the frontier and checks
// the top against the signed root before it trusts any of it (NewCap).

// MaxCapDepth bounds the depth of a cap, and of a cut: 2^16 frontier digests
// per tree.
const MaxCapDepth = 16

var (
	// ErrCapShape indicates a frontier of the wrong length for its tree.
	ErrCapShape = errors.New("mht: cap frontier shape mismatch")
	// ErrCapRoot indicates a frontier that does not hash to the signed root.
	ErrCapRoot = errors.New("mht: cap does not hash to the signed root")
	// ErrCapDepth indicates a proof cut deeper than the cap the verifier
	// holds, or a cap of another tree.
	ErrCapDepth = errors.New("mht: proof cut below the cap held")
)

// Cap is the verified top of one tree: every node at depth ≤ Depth, and
// every leaf above it, stored flat in pre-order like a Tree's nodes — the
// subtree over m leaves with r levels to go occupies capSlots(m, r) slots,
// its root first. A Cap is immutable and safe for concurrent use.
type Cap struct {
	n, depth, size int
	nodes          []byte
}

// frontierSize returns the number of frontier nodes of the subtree over
// m ≥ 1 leaves, r levels down. Only the right spine is walked: each left
// subtree is perfect, with 2^min(height, levels left) frontier nodes.
func frontierSize(m, r int) int {
	total := 0
	for ; r > 0 && m > 1; r-- {
		k := splitPoint(m)
		total += 1 << min(bits.Len(uint(k))-1, r-1)
		m -= k
	}
	return total + 1
}

// capSlots returns the nodes of the subtree over m ≥ 1 leaves at most r
// levels deep: a full binary tree over its frontier.
func capSlots(m, r int) int { return 2*frontierSize(m, r) - 1 }

// FrontierSize returns the number of digests in the depth-d frontier of an
// n-leaf tree.
func FrontierSize(n, d int) int {
	if n == 0 {
		return 0
	}
	return frontierSize(n, d)
}

// AppendFrontier appends the tree's depth-d frontier (FrontierSize(n, d)
// digests, pre-order) to dst.
func (t *Tree) AppendFrontier(dst []byte, d int) []byte {
	if t.n == 0 {
		return dst
	}
	return t.frontier(dst, t.nodes, t.n, d)
}

func (t *Tree) frontier(dst, nodes []byte, m, r int) []byte {
	if r == 0 || m == 1 {
		return append(dst, nodes[:t.size]...)
	}
	k := splitPoint(m)
	dst = t.frontier(dst, nodes[t.size:2*k*t.size], k, r-1)
	return t.frontier(dst, nodes[2*k*t.size:], m-k, r-1)
}

// NewCap rebuilds the top d levels of an n-leaf tree from its frontier and
// returns them as a cap, provided they hash to root. It copies nothing from
// frontier.
func NewCap(h Hasher, n, d int, frontier, root []byte) (*Cap, error) {
	if d < 1 || d > MaxCapDepth {
		return nil, fmt.Errorf("mht: cap depth %d outside [1,%d]", d, MaxCapDepth)
	}
	if n < 0 {
		return nil, fmt.Errorf("mht: negative tree size %d", n)
	}
	sz := h.Size()
	c := &Cap{n: n, depth: d, size: sz}
	if n == 0 {
		if len(frontier) != 0 {
			return nil, ErrCapShape
		}
		c.nodes = h.Empty()
	} else {
		if len(frontier) != FrontierSize(n, d)*sz {
			return nil, ErrCapShape
		}
		c.nodes = make([]byte, capSlots(n, d)*sz)
		c.fill(h, c.nodes, n, d, &frontier)
	}
	if !bytes.Equal(c.nodes[:sz], root) {
		return nil, ErrCapRoot
	}
	return c, nil
}

// fill writes the subtree over m leaves, r levels deep, into nodes (exactly
// its capSlots(m, r) slots), taking its frontier from the front of rest.
func (c *Cap) fill(h Hasher, nodes []byte, m, r int, rest *[]byte) {
	sz := c.size
	if r == 0 || m == 1 {
		copy(nodes[:sz], *rest)
		*rest = (*rest)[sz:]
		return
	}
	k := splitPoint(m)
	left, right := c.children(nodes, k, r)
	c.fill(h, left, k, r-1, rest)
	c.fill(h, right, m-k, r-1, rest)
	h.nodeInto(nodes[:sz], left[:sz], right[:sz])
}

// children splits the slots of a subtree r > 0 levels deep whose left
// subtree has k leaves.
func (c *Cap) children(nodes []byte, k, r int) (left, right []byte) {
	split := c.size + capSlots(k, r-1)*c.size
	return nodes[c.size:split], nodes[split:]
}

// capView is the part of a cap a proof walk is at: the slots of the current
// subtree (nil once the walk is below the cut, or with no cap at all), the
// cap's levels left under it, and the cut's; miss, when set, collects the
// deepest node that rebuilds differently (CapMismatch).
type capView struct {
	nodes  []byte
	r, cut int
	miss   *capMiss
}

// capMiss is the deepest differing node a walk has met so far: the revealed
// positions under it, and the cut levels left below it (fewer is deeper).
type capMiss struct {
	positions []int
	cut       int
}

// viewOf starts a walk at the root of c for a proof cut at depth d.
func viewOf(c *Cap, d int) capView {
	if d == 0 {
		return capView{}
	}
	return capView{nodes: c.nodes, r: c.depth, cut: d}
}

// descend returns the views of the children of a subtree inside the cap
// whose left subtree has k leaves.
func (v capView) descend(c *Cap, k int) (left, right capView) {
	if v.cut == 0 {
		return capView{}, capView{}
	}
	l, r := c.children(v.nodes, k, v.r)
	return capView{l, v.r - 1, v.cut - 1, v.miss}, capView{r, v.r - 1, v.cut - 1, v.miss}
}

// ProveCapped is Prove cut at depth d: every subtree digest that covers no
// wanted leaf and sits at depth ≤ d is left to the verifier's cap. d = 0 is
// Prove.
func (t *Tree) ProveCapped(want []int, d int) (Proof, error) {
	if err := checkWant(want, t.n); err != nil {
		return Proof{}, err
	}
	if d < 0 || d > MaxCapDepth {
		return Proof{}, fmt.Errorf("mht: cut depth %d outside [0,%d]", d, MaxCapDepth)
	}
	out := newProofArena(t.size, CappedProofSize(t.n, want, d))
	return Proof{Digests: t.proveInto(&out, want, cutLevels(d))}, nil
}

// cutLevels is the number of levels below the root a cut at depth d leaves
// to the cap: −1 for no cut at all.
func cutLevels(d int) int {
	if d == 0 {
		return -1
	}
	return d
}

// CappedProofSize is ProofSize for a proof cut at depth d.
func CappedProofSize(n int, want []int, d int) int {
	if n == 0 {
		return 0
	}
	return proofSize(0, n, want, cutLevels(d))
}

// RootFromCappedProof is RootFromProofFunc for a proof cut at depth d:
// every subtree without a revealed leaf at depth ≤ d is read from c, which
// must top the same n-leaf tree at least d levels deep. d = 0 ignores c and
// is RootFromProofFunc.
func RootFromCappedProof(h Hasher, n int, positions []int, leaf LeafFunc, proof Proof, c *Cap, d int) ([]byte, error) {
	if !c.tops(h, n, d) {
		return nil, ErrCapDepth
	}
	return rootFromProof(h, n, positions, leaf, proof, c, d, nil)
}

// tops reports whether c can supply the top of an n-leaf tree hashed by h
// for a proof cut at depth d (any c for d = 0).
func (c *Cap) tops(h Hasher, n, d int) bool {
	return d == 0 || d > 0 && c != nil && c.n == n && c.size == h.Size() && d <= c.depth
}

// CapMismatch re-walks a proof cut at depth d whose root disagreed with the
// signed one, comparing every node it rebuilds inside the cap with the cap's
// own, which was checked against the signed root. It returns the revealed
// positions under the deepest node that differs: the leaves (or the proof
// digests under them) one of which is wrong. nil for an uncut proof or one
// that does not rebuild at all.
func CapMismatch(h Hasher, n int, positions []int, leaf LeafFunc, proof Proof, c *Cap, d int) []int {
	if d == 0 || !c.tops(h, n, d) {
		return nil
	}
	var miss capMiss
	if _, err := rootFromProof(h, n, positions, leaf, proof, c, d, &miss); err != nil {
		return nil
	}
	return miss.positions
}
