// Package authtext is a Go implementation of "Authenticating the Query
// Results of Text Search Engines" (Pang & Mouratidis, PVLDB 1(1), 2008): a
// similarity-based text search engine over a frequency-ordered inverted
// index whose every answer carries a cryptographic proof of correctness.
//
// Three parties participate (§3.1):
//
//   - the data Owner indexes a document collection, builds Merkle-tree
//     authentication structures over the inverted lists and documents, and
//     signs their roots;
//   - the (untrusted) Server answers top-r similarity queries with adapted
//     threshold algorithms — TRA (threshold with random access) or TNRA
//     (threshold with no random access) — and returns a verification
//     object (VO) alongside each result;
//   - the Client recomputes the Merkle roots from the VO and checks the
//     result against the owner's signatures: the entries must be the true
//     top-r, in the right order, with the right scores, and no unseen
//     document may be able to outscore them.
//
// Quickstart (all three parties in one process):
//
//	owner, err := authtext.NewOwner(docs)             // build + sign
//	server := owner.Server()                          // hand to the host
//	client := owner.Client()                          // publish to users
//	res, err := server.Search("merkle trees", 10, authtext.TNRA, authtext.ChainMHT)
//	err = client.Verify("merkle trees", 10, res)      // nil ⇔ authentic
//
// Two authentication schemes are available per algorithm: plain per-list
// Merkle trees (MHT, §3.3.1) and chained per-block Merkle trees with buddy
// inclusion (ChainMHT, §3.3.2). TNRA+ChainMHT is the configuration the
// paper recommends (§4.5).
//
// # Serving over the network
//
// The protocol only becomes meaningful when the server really is a
// different machine. NewHTTPHandler (and the cmd/authserved daemon built
// on it) exposes a Server on a versioned JSON API, and RemoteClient is
// its verifying counterpart: it bootstraps from the owner's signed
// manifest — fetched from /v1/manifest or supplied out of band with
// WithClientExport — and locally verifies every answer it receives, so a
// compromised server or man-in-the-middle is detected by IsTampered
// rather than trusted transport:
//
//	rc, err := authtext.NewRemoteClient("http://search.example.com:8470")
//	res, err := rc.Search(ctx, "merkle trees", 10, authtext.TNRA, authtext.ChainMHT)
//	// err == nil ⇔ the response is the authentic top-10
//
// Every deployment shape — single or sharded, static, live owner or
// snapshot replica — is served by the same backend over one "generation
// source", so every handler constructor takes the same HandlerOption set
// and every remote client the same RemoteOption set. The wire format is
// defined in internal/httpapi and documented in docs/PROTOCOL.md.
//
// # Sharded collections
//
// Sharded is data, not a type. NewShardedOwner splits the corpus into k
// independently signed shards built in parallel and returns an Owner like
// any other: its Server fans every query out to all shards concurrently
// and merges the local top-r lists (SearchResult.PerShard carries each
// shard's answer), and its Client verifies every shard's VO and that the
// merged ranking is the true global top-r by deterministic recomputation.
// Tampering with any shard's answer, dropping a shard, or reordering the
// merge classifies as tampering. Each shard persists as one ordinary
// snapshot file (Owner.WriteSnapshotDir / OpenSnapshotFile); RemoteClient
// picks its endpoints from the export it verified. See docs/SHARDING.md.
//
// # Live collections and generations
//
// NewLiveOwner builds a collection that accepts updates after
// publication: every Update batch of additions and removals rebuilds a fresh
// immutable collection under the next signed generation — reusing every
// signature whose underlying structure the batch did not change — and
// atomically swaps the serving pointer, so concurrent searches always
// observe one whole generation. Clients follow generations forward only:
// Client.Advance (and RemoteClient automatically) accepts a newer signed
// manifest and rejects rollback with ErrStaleGeneration. Each generation
// persists as its own snapshot, published atomically and fsynced
// (LiveOwner.WriteSnapshotDir; a NewLiveShardedOwner one writes a directory
// per set generation), from which OpenLiveSnapshotDir serves a hot-swappable
// replica. The model, trust rules and measured costs are documented in
// docs/UPDATES.md.
package authtext
