// Package engine backs the core algorithms with the simulated block
// device: the owner-side build of all authentication structures (§3.3.1,
// §3.3.2), the store-backed list cursors and document records whose
// accesses produce the I/O costs of §4, and the server-side search that
// assembles verification objects.
//
// In the VO protocol, engine is the server's half of the bargain made
// concrete: Collection.Search runs TRA or TNRA against the on-"disk"
// layouts, then assembles the term proofs, document proofs, content
// digests and (under ChainMHT) chained block trees that core decided the
// client will need, and encodes them into the VO bytes that travel with
// every result. It also holds the owner-side artifacts the protocol
// starts from — the signed manifest and the signing keys — which the
// authtext facade exports to clients. The network layer (internal/httpapi,
// cmd/authserved) moves these same VO bytes unchanged; nothing in engine
// assumes the client is in-process.
//
// A built collection's inputs are immutable; the one thing that still
// changes is a lock-free cache of per-document trees, digests derived from
// those inputs (vectrees.go, docs/CONCURRENCY.md). Live deployments
// (internal/live) therefore never mutate an engine.Collection: they
// build a fresh one per publication generation — Config.Generation is
// signed into the manifest and stamped into every VO — and swap which
// collection serves.
package engine
