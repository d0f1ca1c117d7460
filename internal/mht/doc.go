// Package mht implements the Merkle hash tree of §2.2 (Fig 3) together
// with the pieces the authentication schemes of §3.3 need on top of the
// textbook construction:
//
//   - multi-leaf proofs ("complementary digests") for an arbitrary set of
//     leaf positions, as used by the term-MHTs and document-MHTs;
//   - buddy-inclusion grouping (§3.3.2), which replaces digests near the
//     requested leaves with the cheaper underlying leaf data.
//
// Trees come in two forms with identical digests and proofs. A Tree is
// materialised — every subtree digest stored once — and proves by copying,
// in time proportional to the proof; it backs the structures a server
// proves from query after query — the collection-level trees and each
// document's term vector — and ProveInto lets the many small proofs of one
// answer share a ProofArena. Root, Prove and RootFromProof (and their …Func
// forms, which take leaves on demand through a LeafFunc instead of as a
// [][]byte) hash as they go, keeping digests on the stack and in one arena;
// they serve the trees that are touched once — the owner's build, a chain
// block, and everything a client recomputes.
//
// In the VO protocol, mht supplies the commitment scheme everything else
// hangs off: the owner builds a tree over each inverted list and each
// document's term vector and signs only the roots (recorded in the
// manifest), the server packs complementary digests and buddy leaves into
// the VO, and the client recombines them with the entries it was shown to
// reproduce the signed root — so revealing a list prefix proves both its
// contents and its completeness without shipping the rest of the list.
//
// The tree shape is canonical for a given leaf count n: an internal node
// over k leaves splits after the largest power of two strictly smaller
// than k (RFC 6962 style), so prover and verifier agree on the shape
// knowing only n. Leaf and internal hashes are domain-separated
// (0x00 / 0x01 prefixes); this hardening is documented as a deviation in
// docs/ARCHITECTURE.md, "Departures from the paper".
package mht
