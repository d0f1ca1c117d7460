// Package sig provides the cryptographic primitives of the authentication
// framework: a truncated one-way hash (|h| = 128 bits by default, matching
// Table 1 of the paper) and digital signatures (RSA-1024 PKCS#1 v1.5,
// |sign| = 1024 bits by default).
//
// In the VO protocol, sig is where trust bottoms out. The owner signs the
// Merkle roots (or, in dictionary mode, the single dictionary root) and
// the collection manifest with the private key; the client needs nothing
// but the corresponding Verifier — shipped inside the ATCX export blob
// and over /v1/manifest — to check everything a server ever sends it. The
// Hasher is shared by both sides so digests recomputed during
// verification are bit-identical to the ones the owner committed to.
//
// Signer/Verifier are interfaces so that large-scale experiment builds can
// substitute a fast keyed-hash signer with identical signature sizes (the
// substitution is documented in docs/ARCHITECTURE.md, "Departures from the
// paper"). Only RSA-signed
// collections can serve remote clients: the keyed-hash signer has no
// public half to publish.
package sig
