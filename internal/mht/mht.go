package mht

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"authtext/internal/sig"
)

// Domain-separation prefixes for leaf and interior node hashes.
const (
	leafPrefix  = 0x00
	nodePrefix  = 0x01
	emptyPrefix = 0x02
)

// maxStackInput is the longest hash input assembled in a stack buffer: the
// prefix byte plus two full-width digests. Every interior node fits, and
// so does every leaf of up to 64 bytes — all the fixed-width encodings
// and nearly every dictionary name.
const maxStackInput = 1 + 2*sha256.Size

// Hasher computes leaf and node digests for a tree.
type Hasher struct {
	H sig.Hasher
}

// NewHasher wraps a sig.Hasher for tree hashing.
func NewHasher(h sig.Hasher) Hasher { return Hasher{H: h} }

// Size returns the digest size in bytes.
func (h Hasher) Size() int { return h.H.Size() }

// Leaf returns the digest of a leaf carrying data.
func (h Hasher) Leaf(data []byte) []byte {
	out := make([]byte, h.Size())
	h.leafInto(out, data)
	return out
}

// Node returns the digest of an internal node with children l and r.
func (h Hasher) Node(l, r []byte) []byte {
	out := make([]byte, h.Size())
	h.nodeInto(out, l, r)
	return out
}

// Empty returns the digest of the empty tree.
func (h Hasher) Empty() []byte {
	return h.H.Sum([]byte{emptyPrefix})
}

// leafInto writes the leaf digest of data into dst (Size bytes).
func (h Hasher) leafInto(dst, data []byte) { h.sumInto(dst, leafPrefix, data, nil) }

// nodeInto writes the digest of the node over children l and r into dst
// (Size bytes). dst may alias l or r.
func (h Hasher) nodeInto(dst, l, r []byte) { h.sumInto(dst, nodePrefix, l, r) }

// sumInto writes the truncated SHA-256 of prefix | a | b into dst. An
// input that fits the stack buffer — every node, nearly every leaf — is
// hashed without touching the heap.
func (h Hasher) sumInto(dst []byte, prefix byte, a, b []byte) {
	var stack [maxStackInput]byte
	buf := stack[:0]
	if n := 1 + len(a) + len(b); n > len(stack) {
		buf = make([]byte, 0, n)
	}
	buf = append(buf, prefix)
	buf = append(buf, a...)
	buf = append(buf, b...)
	sum := sha256.Sum256(buf)
	copy(dst, sum[:h.Size()])
}

// splitPoint returns the size of the left subtree for n > 1 leaves:
// the largest power of two strictly less than n.
func splitPoint(n int) int {
	return 1 << (bits.Len(uint(n-1)) - 1)
}

// LeafFunc yields the data of leaf i on demand, so a tree over encoded
// records never needs its leaves materialised as a [][]byte. It may build
// the encoding by appending to buf (empty, with a small capacity) or
// return memory it already holds; the tree code only reads the result,
// and only until the next call.
type LeafFunc func(buf []byte, i int) []byte

// Leaves adapts leaf values that already exist as slices to a LeafFunc.
func Leaves(leaves [][]byte) LeafFunc {
	return func(_ []byte, i int) []byte { return leaves[i] }
}

// walker hashes subtrees over on-demand leaves. Digests of interior nodes
// live in the recursion's stack frames; the only heap state is the walker
// itself (its scratch buffer is handed to the caller-supplied LeafFunc).
type walker struct {
	h    Hasher
	leaf LeafFunc
	buf  [maxStackInput]byte
}

// rootInto writes the digest of the subtree over leaves [off, off+m),
// m ≥ 1, into dst.
func (w *walker) rootInto(dst []byte, off, m int) {
	if m == 1 {
		w.h.leafInto(dst, w.leaf(w.buf[:0], off))
		return
	}
	k := splitPoint(m)
	var l, r [sha256.Size]byte
	sz := w.h.Size()
	w.rootInto(l[:sz], off, k)
	w.rootInto(r[:sz], off+k, m-k)
	w.h.nodeInto(dst, l[:sz], r[:sz])
}

// Root computes the root digest over leaves (data values, in order).
func Root(h Hasher, leaves [][]byte) []byte {
	return RootFunc(h, len(leaves), Leaves(leaves))
}

// RootFunc computes the root digest over the n leaves leaf yields.
func RootFunc(h Hasher, n int, leaf LeafFunc) []byte {
	if n == 0 {
		return h.Empty()
	}
	w := &walker{h: h, leaf: leaf}
	out := make([]byte, h.Size())
	w.rootInto(out, 0, n)
	return out
}

// Proof carries the complementary digests for a multi-leaf proof, in the
// canonical pre-order traversal order used by Prove and RootFromProof.
type Proof struct {
	Digests [][]byte
}

// ProofArena collects proof digests in shared backing arrays. One arena can
// take the digests of any number of proofs (Tree.ProveInto), so a query that
// assembles hundreds of small proofs allocates once per growth step instead
// of twice per proof. Proofs already handed out never move: when a chunk is
// full it is left to them and one twice as large is started. The zero value
// is ready to use; an arena is not safe for concurrent use.
type ProofArena struct {
	bytes   []byte
	digests [][]byte
	mark    int // where the proof being taken starts in digests
}

// arenaMinDigests is the capacity, in digests, of a growing arena's first
// chunk.
const arenaMinDigests = 64

// newProofArena sizes an arena for exactly count digests of size bytes;
// the proof then taken from it keeps a nil Digests slice when count is 0.
func newProofArena(size, count int) ProofArena {
	if count == 0 {
		return ProofArena{}
	}
	return ProofArena{bytes: make([]byte, 0, count*size), digests: make([][]byte, 0, count)}
}

// begin starts a new proof.
func (a *ProofArena) begin() { a.mark = len(a.digests) }

// next appends one digest slot of size bytes to the current proof and
// returns it for the caller to fill.
func (a *ProofArena) next(size int) []byte {
	if cap(a.bytes)-len(a.bytes) < size {
		a.bytes = make([]byte, 0, max(2*cap(a.bytes), arenaMinDigests*size))
	}
	if len(a.digests) == cap(a.digests) {
		// Only the unfinished proof moves to the new chunk.
		current := a.digests[a.mark:]
		a.digests = make([][]byte, len(current), max(2*cap(a.digests), len(current)+arenaMinDigests))
		copy(a.digests, current)
		a.mark = 0
	}
	lo := len(a.bytes)
	hi := lo + size
	a.bytes = a.bytes[:hi]
	d := a.bytes[lo:hi:hi]
	a.digests = append(a.digests, d)
	return d
}

// proof returns the current proof's digests (nil when there are none),
// capped so that later appends cannot reach them.
func (a *ProofArena) proof() [][]byte {
	if len(a.digests) == a.mark {
		return nil
	}
	return a.digests[a.mark:len(a.digests):len(a.digests)]
}

// Prove produces the complementary digests needed to recompute the root
// from the leaves at the given positions. want must be sorted ascending,
// duplicate-free, and within [0, len(leaves)).
func Prove(h Hasher, leaves [][]byte, want []int) (Proof, error) {
	return ProveFunc(h, len(leaves), Leaves(leaves), want)
}

// ProveFunc is Prove over the n leaves leaf yields. It hashes every
// subtree that holds no wanted leaf — O(n) work — so it suits trees that
// are proved from once (one chain block); trees proved from query after
// query — the collection-level ones, a document's term vector — are
// materialised as a Tree instead.
func ProveFunc(h Hasher, n int, leaf LeafFunc, want []int) (Proof, error) {
	if err := checkWant(want, n); err != nil {
		return Proof{}, err
	}
	if n == 0 {
		return Proof{}, nil
	}
	w := &walker{h: h, leaf: leaf}
	out := newProofArena(h.Size(), ProofSize(n, want))
	w.prove(0, n, want, &out)
	return Proof{Digests: out.proof()}, nil
}

// prove covers leaves [off, off+m); want holds absolute positions
// restricted to this range by the caller.
func (w *walker) prove(off, m int, want []int, out *ProofArena) {
	if len(want) == 0 {
		w.rootInto(out.next(w.h.Size()), off, m)
		return
	}
	if m == 1 {
		return // leaf is supplied by the verifier; nothing to add
	}
	k := splitPoint(m)
	l, r := partition(want, off+k)
	w.prove(off, k, l, out)
	w.prove(off+k, m-k, r, out)
}

// PrefixPositions returns the positions 0 … k−1: the want set of a
// revealed list prefix.
func PrefixPositions(k int) []int {
	want := make([]int, k)
	for i := range want {
		want[i] = i
	}
	return want
}

// partition splits a sorted position slice at the absolute position mid.
func partition(want []int, mid int) (left, right []int) {
	i := 0
	for i < len(want) && want[i] < mid {
		i++
	}
	return want[:i], want[i:]
}

func checkWant(want []int, n int) error {
	for i, w := range want {
		if w < 0 || w >= n {
			return fmt.Errorf("mht: want position %d outside [0,%d)", w, n)
		}
		if i > 0 && want[i-1] >= w {
			return errors.New("mht: want positions not strictly ascending")
		}
	}
	return nil
}

// ErrProofShape indicates a malformed proof (wrong digest count for the
// claimed tree size and leaf positions).
var ErrProofShape = errors.New("mht: proof shape mismatch")

// RootFromProof recomputes the root of an n-leaf tree given the data of the
// leaves at positions `want` (position → leaf data) and the complementary
// digests produced by Prove for exactly that position set. It returns the
// recomputed root; the caller compares it against the signed root.
func RootFromProof(h Hasher, n int, want map[int][]byte, proof Proof) ([]byte, error) {
	positions := make([]int, 0, len(want))
	for pos := range want {
		positions = append(positions, pos)
	}
	sort.Ints(positions)
	return RootFromProofFunc(h, n, positions,
		func(_ []byte, j int) []byte { return want[positions[j]] }, proof)
}

// RootFromProofFunc is RootFromProof for revealed leaves held in the
// caller's own representation: positions lists their tree positions
// (strictly ascending, within [0, n)) and leaf(buf, j) yields the data of
// the leaf at positions[j].
func RootFromProofFunc(h Hasher, n int, positions []int, leaf LeafFunc, proof Proof) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("mht: negative tree size %d", n)
	}
	if n == 0 {
		if len(positions) != 0 || len(proof.Digests) != 0 {
			return nil, ErrProofShape
		}
		return h.Empty(), nil
	}
	if err := checkWant(positions, n); err != nil {
		return nil, err
	}
	w := &walker{h: h, leaf: leaf}
	rest := proof.Digests
	root := make([]byte, h.Size())
	if err := w.rebuild(root, 0, n, positions, 0, &rest); err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, ErrProofShape
	}
	return root, nil
}

// rebuild writes the digest of the subtree over leaves [off, off+m) into
// dst. positions holds the revealed positions inside that range, the
// first of which is the j0-th revealed leaf overall; rest is the unread
// tail of the proof's digests.
func (w *walker) rebuild(dst []byte, off, m int, positions []int, j0 int, rest *[][]byte) error {
	if len(positions) == 0 {
		if len(*rest) == 0 || len((*rest)[0]) != w.h.Size() {
			return ErrProofShape
		}
		copy(dst, (*rest)[0])
		*rest = (*rest)[1:]
		return nil
	}
	if m == 1 {
		w.h.leafInto(dst, w.leaf(w.buf[:0], j0))
		return nil
	}
	k := splitPoint(m)
	lp, rp := partition(positions, off+k)
	var l, r [sha256.Size]byte
	sz := w.h.Size()
	if err := w.rebuild(l[:sz], off, k, lp, j0, rest); err != nil {
		return err
	}
	if err := w.rebuild(r[:sz], off+k, m-k, rp, j0+len(lp), rest); err != nil {
		return err
	}
	w.h.nodeInto(dst, l[:sz], r[:sz])
	return nil
}

// ProofSize returns the number of complementary digests Prove would emit for
// an n-leaf tree and the given sorted want positions, without hashing.
func ProofSize(n int, want []int) int {
	if n == 0 || len(want) == 0 {
		if n == 0 {
			return 0
		}
		return 1
	}
	return proofSize(0, n, want)
}

func proofSize(off, size int, want []int) int {
	if len(want) == 0 {
		return 1
	}
	if size == 1 {
		return 0
	}
	k := splitPoint(size)
	l, r := partition(want, off+k)
	return proofSize(off, k, l) + proofSize(off+k, size-k, r)
}
