package core

import (
	"errors"
	"fmt"

	"authtext/internal/mht"
)

// Chain-MHT (§3.3.2, Fig 9): an inverted list is stored as blocks of ρ
// entries. Each block embeds a Merkle tree over its leaves; moving from the
// last block forward, the digest of block j+1 is appended as an extra leaf
// of block j's tree, and the digest of the first block is signed. Any j
// leading blocks verify against the signature given only the digest that
// covers the (j+1)-st block — the engine never touches the tail of the
// list.

// ErrChain indicates a malformed chain proof.
var ErrChain = errors.New("core: malformed chain proof")

// ChainRho returns ρ, the number of list entries per chain block: each
// block reserves 4 bytes for the successor's address and hashSize bytes for
// its digest, and stores 8-byte ⟨d, f⟩ entries in the remainder
// (docs/ARCHITECTURE.md, "Departures from the paper", documents the
// deviation from the paper's id-only ρ = 251).
func ChainRho(blockSize, hashSize int) int {
	rho := (blockSize - 4 - hashSize) / 8
	if rho < 1 {
		rho = 1
	}
	return rho
}

// ChainBlocks returns the number of blocks for an n-entry list.
func ChainBlocks(n, rho int) int {
	if n == 0 {
		return 0
	}
	return (n + rho - 1) / rho
}

// blockTreeLeaves returns the leaves of block j's embedded tree: the
// encodings of its entries, plus the digest of block j+1 (when present) as
// a trailing leaf.
func blockTreeLeaves(leaves [][]byte, j, rho int, next []byte) [][]byte {
	lo := j * rho
	hi := lo + rho
	if hi > len(leaves) {
		hi = len(leaves)
	}
	tree := make([][]byte, 0, hi-lo+1)
	tree = append(tree, leaves[lo:hi]...)
	if next != nil {
		tree = append(tree, next)
	}
	return tree
}

// ChainBlockTree describes the tree embedded in one chain block: the m
// list leaves leaf yields from position lo on, followed by next — the
// successor block's digest, nil for the last block — as a trailing leaf.
func ChainBlockTree(leaf mht.LeafFunc, lo, m int, next []byte) (size int, leaves mht.LeafFunc) {
	size = m
	if next != nil {
		size++
	}
	return size, func(buf []byte, i int) []byte {
		if i == m {
			return next
		}
		return leaf(buf, lo+i)
	}
}

// ChainDigests computes the per-block digests back to front; the result's
// element 0 is the digest the owner signs, and element j is the digest
// stored in the header of block j−1.
func ChainDigests(h mht.Hasher, leaves [][]byte, rho int) [][]byte {
	return chainDigests(h, len(leaves), mht.Leaves(leaves), rho)
}

func chainDigests(h mht.Hasher, n int, leaf mht.LeafFunc, rho int) [][]byte {
	nb := ChainBlocks(n, rho)
	if nb == 0 {
		return nil
	}
	digests := make([][]byte, nb)
	for j := nb - 1; j >= 0; j-- {
		var next []byte
		if j < nb-1 {
			next = digests[j+1]
		}
		hi := (j + 1) * rho
		if hi > n {
			hi = n
		}
		size, tree := ChainBlockTree(leaf, j*rho, hi-j*rho, next)
		digests[j] = mht.RootFunc(h, size, tree)
	}
	return digests
}

// ChainProvePrefix produces the digests a VO needs so that a client holding
// the first kProof leaf encodings can recompute the signed head digest:
// the multiproof of the partially consumed block (whose tree also covers
// the successor digest), and nothing else — full blocks rebuild from data
// alone. digests must be the full ChainDigests output (the owner stores
// digest j+1 inside block j, so the prover has them without extra I/O).
func ChainProvePrefix(h mht.Hasher, leaves [][]byte, digests [][]byte, rho, kProof int) (mht.Proof, error) {
	n := len(leaves)
	if kProof < 0 || kProof > n {
		return mht.Proof{}, fmt.Errorf("core: chain prefix %d outside [0,%d]", kProof, n)
	}
	if kProof == n {
		return mht.Proof{}, nil
	}
	nb := ChainBlocks(n, rho)
	j := kProof / rho
	var next []byte
	if j < nb-1 {
		next = digests[j+1]
	}
	tree := blockTreeLeaves(leaves, j, rho, next)
	return mht.Prove(h, tree, mht.PrefixPositions(kProof%rho))
}

// ChainRootFromPrefix recomputes the signed head digest from the first
// kProof revealed leaves of an n-entry list (leaf yields their encodings),
// using the proof from ChainProvePrefix. It is the client-side counterpart.
func ChainRootFromPrefix(h mht.Hasher, kProof int, leaf mht.LeafFunc, n, rho int, proof mht.Proof) ([]byte, error) {
	if kProof < 0 || kProof > n || n < 1 {
		return nil, ErrChain
	}
	if kProof == n {
		// Whole list revealed: recompute the chain from scratch.
		if len(proof.Digests) != 0 {
			return nil, ErrChain
		}
		return chainDigests(h, n, leaf, rho)[0], nil
	}

	// Rebuild the digest of the partially consumed block j from its
	// revealed leaves and the complementary digests.
	j := kProof / rho
	treeSize := rho
	if (j+1)*rho >= n {
		treeSize = n - j*rho // last block: no successor-digest leaf
	} else {
		treeSize++
	}
	next, err := mht.RootFromProofFunc(h, treeSize, mht.PrefixPositions(kProof%rho),
		func(buf []byte, i int) []byte { return leaf(buf, j*rho+i) }, proof)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrChain, err)
	}
	// Chain upward through the fully revealed blocks.
	for jj := j - 1; jj >= 0; jj-- {
		size, tree := ChainBlockTree(leaf, jj*rho, rho, next)
		next = mht.RootFunc(h, size, tree)
	}
	return next, nil
}

// ChainKProof rounds the revealed prefix kScore up to a buddy-group
// boundary inside the partially consumed block (§3.3.2's buddy inclusion,
// applied block-locally): the extra leaves live in a block the server has
// already fetched, so they are free to include and displace digests from
// the VO.
func ChainKProof(kScore, n, rho, group int) int {
	if kScore >= n {
		return n
	}
	j := kScore / rho
	rem := kScore % rho
	blockLen := rho
	if (j+1)*rho > n {
		blockLen = n - j*rho
	}
	rounded := mht.RoundUpPrefix(rem, group, blockLen)
	return j*rho + rounded
}
