package core

import (
	"sort"

	"authtext/internal/mht"
	"authtext/internal/sig"
)

// CapTree names one collection-level tree whose root a manifest signs: the
// trees a proof cap tops (docs/PROTOCOL.md "Proof caps"). The dictionary
// trees are CapDict + kind − 1.
type CapTree int

// The collection-level trees.
const (
	CapDocHash CapTree = iota
	CapNameDict
	CapAuthority
	CapDict
	CapDocRoot = CapDict + 4
)

// CapTrees lists the trees m signs a root for, in the order their frontiers
// travel in a cap: the document-hash tree, each built kind's dictionary tree
// (dictionary mode) by ascending kind, the name-dictionary tree (vocabulary
// proofs), the authority tree (boost), the document-root tree (when the
// manifest commits one; last, so a cap without it keeps its encoding).
func CapTrees(m *Manifest) []CapTree {
	trees := []CapTree{CapDocHash}
	if m.DictMode {
		for _, kind := range m.Variants.Resolve().Kinds() {
			trees = append(trees, CapDict+CapTree(kind-1))
		}
	}
	if m.VocabProofsEnabled {
		trees = append(trees, CapNameDict)
	}
	if m.Boosted {
		trees = append(trees, CapAuthority)
	}
	if len(m.DocRootTreeRoot) != 0 {
		trees = append(trees, CapDocRoot)
	}
	return trees
}

// shape returns the leaf count and the signed root of tree t under m.
func (t CapTree) shape(m *Manifest) (n int, root []byte) {
	switch t {
	case CapDocHash:
		return int(m.N), m.DocHashRoot
	case CapNameDict:
		return int(m.M), m.NameDictRoot
	case CapAuthority:
		return int(m.N), m.AuthorityRoot
	case CapDocRoot:
		return int(m.N), m.DocRootTreeRoot
	}
	return int(m.M), m.DictRoots[t-CapDict]
}

// Cap is the verified top of one generation's collection-level trees, as a
// client holds it: every node of every tree CapTrees lists down to Depth,
// each tree checked against the root the manifest of Generation signs. An
// answer cut at a depth no deeper than Depth takes those nodes from here
// instead of carrying them.
//
// On the wire a cap is one byte of depth d ∈ [1, mht.MaxCapDepth], then the
// depth-d frontier of each tree in CapTrees order (mht.FrontierSize digests
// each, pre-order), and nothing else.
type Cap struct {
	Depth      int
	Generation uint64
	trees      [CapDocRoot + 1]*mht.Cap
}

// VerifyCap checks an encoded cap against m, a manifest whose signature the
// caller has verified: every tree's frontier must rebuild to the root m
// signs. A cap that does not is CodeBadCap.
func VerifyCap(m *Manifest, b []byte) (*Cap, error) {
	if len(b) == 0 {
		return nil, vErr(CodeBadCap, "empty cap")
	}
	d := int(b[0])
	if d < 1 || d > mht.MaxCapDepth {
		return nil, vErr(CodeBadCap, "cap depth %d outside [1,%d]", d, mht.MaxCapDepth)
	}
	if err := m.Validate(); err != nil {
		return nil, vErr(CodeMalformedVO, "manifest: %v", err)
	}
	hasher := mht.NewHasher(sig.MustHasher(int(m.HashSize)))
	c := &Cap{Depth: d, Generation: m.Generation}
	rest := b[1:]
	for _, t := range CapTrees(m) {
		n, root := t.shape(m)
		size := mht.FrontierSize(n, d) * int(m.HashSize)
		if size > len(rest) {
			return nil, vErr(CodeBadCap, "cap ends inside tree %d's frontier", t)
		}
		tc, err := mht.NewCap(hasher, n, d, rest[:size], root)
		if err != nil {
			return nil, vErr(CodeBadCap, "tree %d: %v", t, err)
		}
		c.trees[t], rest = tc, rest[size:]
	}
	if len(rest) != 0 {
		return nil, vErr(CodeBadCap, "%d bytes after the last frontier", len(rest))
	}
	return c, nil
}

// cut is how one answer's collection-tree proofs were cut: at depth d, the
// top taken from c (nil when d is 0).
type cut struct {
	c *Cap
	d int
}

// root recomputes the root of collection tree t, n leaves, from the
// revealed leaves and the answer's digests.
func (k cut) root(h mht.Hasher, t CapTree, n int, want map[int][]byte, digests [][]byte) ([]byte, error) {
	positions, leaf := revealed(want)
	return mht.RootFromCappedProof(h, n, positions, leaf, mht.Proof{Digests: digests}, k.tree(t), k.d)
}

// mismatch narrows a root that root recomputed wrongly to the revealed
// leaves under the deepest node of the cap that the answer rebuilds
// differently (mht.CapMismatch); nil for an uncut answer.
func (k cut) mismatch(h mht.Hasher, t CapTree, n int, want map[int][]byte, digests [][]byte) []int {
	positions, leaf := revealed(want)
	return mht.CapMismatch(h, n, positions, leaf, mht.Proof{Digests: digests}, k.tree(t), k.d)
}

// tree returns the cap's top of tree t (nil uncut).
func (k cut) tree(t CapTree) *mht.Cap {
	if k.c == nil {
		return nil
	}
	return k.c.trees[t]
}

// revealed sorts the positions of want and returns them with the leaf
// function over them.
func revealed(want map[int][]byte) ([]int, mht.LeafFunc) {
	positions := make([]int, 0, len(want))
	for pos := range want {
		positions = append(positions, pos)
	}
	sort.Ints(positions)
	return positions, func(_ []byte, j int) []byte { return want[positions[j]] }
}
