// Package vo defines the verification object (VO) returned by the search
// engine alongside each query result (§3.3, §3.4), its binary wire format,
// and the per-category size accounting behind Table 2 and the VO-size
// panels of Figs 13–15.
//
// The VO is the protocol's transferable proof: everything a client needs —
// beyond the owner's published manifest and public key — to re-derive the
// signed Merkle roots and check that the answer is the true, complete,
// correctly ordered top-r. internal/engine fills it in on the server,
// Encode turns it into the opaque byte string that crosses the trust
// boundary (in-process, or base64-inside-JSON over HTTP via
// internal/httpapi), and Decode rebuilds it on the client for
// internal/core's Verify. Decode validates structure only; all security
// decisions are Verify's. A VO that fails to decode is treated as
// tampering by the facade, never trusted. VOs from live collections
// carry the publication generation that produced them (flagged optional
// field, so static collections' VO bytes are unchanged); Verify
// cross-checks it against the manifest (docs/UPDATES.md). A VO whose
// collection-tree proofs were cut at a client's proof cap records the
// depth the same way (docs/PROTOCOL.md "Proof caps"), and a TRA VO whose
// manifest commits the document-root tree carries one multiproof over it
// in place of its documents' signatures (flag bit 0x20).
//
// The wire format uses the entry sizes of Table 1 — 4-byte identifiers and
// frequencies, 16-byte digests, 128-byte signatures — so measured VO sizes
// are directly comparable with the paper's.
package vo
