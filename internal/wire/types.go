// Package wire implements the negotiated binary framing of the /v1
// protocol: length-prefixed, CRC-protected frames that carry search
// responses, sharded fan-out answers and manifest blobs
// with their []byte payloads verbatim — no base64, no JSON re-encoding.
// JSON remains the default representation (debuggability first); a client
// opts into frames per request with `Accept: application/x-authtext-frame-v3`
// and the server answers with the same Content-Type
// (docs/PROTOCOL.md "Binary framing" is the normative description).
//
// This file defines the response types shared by both representations.
// They live here — not in internal/httpapi — so the binary codecs and the
// JSON handler can use the identical structs without an import cycle;
// internal/httpapi aliases every one of them, so existing callers and the
// JSON golden fixtures are untouched.
//
// Like the JSON envelope, frames add no trust: every field is verified by
// the client against the owner's signed manifest, so transport-level
// integrity (the per-frame CRC) only distinguishes accidental corruption
// from a well-formed lie — and a verifying client rejects both.
package wire

// Hit is one verified result entry. Content is the full document body,
// base64-encoded in JSON and verbatim in a frame. A decoded Content
// aliases the response buffer and is capacity-capped: appending to it
// reallocates, never writing over the next field.
type Hit struct {
	DocID   int     `json:"doc_id"`
	Score   float64 `json:"score"`
	Content []byte  `json:"content"`
}

// SearchStats reports the server-side per-query costs (§4.1 of the paper).
// They are informational only — nothing in them is covered by the VO.
type SearchStats struct {
	QueryTerms     int     `json:"query_terms"`
	EntriesRead    int     `json:"entries_read"`
	EntriesPerTerm float64 `json:"entries_per_term"`
	PctListRead    float64 `json:"pct_list_read"`
	BlockReads     int64   `json:"block_reads"`
	RandomReads    int64   `json:"random_reads"`
	IOMillis       float64 `json:"io_millis"`
	VOBytes        int     `json:"vo_bytes"`
	ServerMillis   float64 `json:"server_millis"`
}

// SearchResponse is the answer to a search request. Query, R, Algo and
// Scheme echo the request after normalisation; a verifying client MUST
// check the result against the parameters it asked for, not the echo (a
// tampering server could rewrite both consistently).
type SearchResponse struct {
	Query  string `json:"query"`
	R      int    `json:"r"`
	Algo   string `json:"algo"`
	Scheme string `json:"scheme"`
	// Generation is the publication generation that answered (0/absent on
	// static collections). It is an untrusted hint — the VO carries the
	// authoritative stamp — that tells clients when to refresh their
	// manifest from /v1/manifest (docs/UPDATES.md).
	Generation uint64 `json:"generation,omitempty"`
	Hits       []Hit  `json:"hits"`
	// VO is the encoded verification object. Decoded, it aliases the
	// response buffer and is capacity-capped, like Hit.Content.
	VO    []byte      `json:"vo"`
	Stats SearchStats `json:"stats"`
}

// ManifestResponse carries the owner's verification material: Export is
// the self-contained blob (signed manifest + public key) that the
// verification client accepts. Format names the blob encoding so future
// versions can migrate.
type ManifestResponse struct {
	Format string `json:"format"`
	Export []byte `json:"export"`
	// Cap is the proof cap of Export's generation (core.Cap's layout),
	// present only when the request asked for one with ?cap= and the
	// deployment serves caps: the top levels of the collection-level trees,
	// which the client checks against the roots Export's manifest signs
	// (docs/PROTOCOL.md "Proof caps").
	Cap []byte `json:"cap,omitempty"`
}

// MergedHit is one entry of the claimed global ranking of a sharded
// response. It carries no content: the content (and the proof) of the hit
// lives in the cited shard's response, which the client verifies first.
type MergedHit struct {
	Shard    int     `json:"shard"`
	DocID    int     `json:"doc_id"`
	GlobalID int     `json:"global_id"`
	Score    float64 `json:"score"`
}

// ShardedSearchStats aggregates server-side fan-out costs (informational
// only, like SearchStats).
type ShardedSearchStats struct {
	Shards       int     `json:"shards"`
	EntriesRead  int     `json:"entries_read"`
	VOBytes      int     `json:"vo_bytes"`
	IOMillis     float64 `json:"io_millis"`
	ServerMillis float64 `json:"server_millis"`
}

// ShardedSearchResponse is the answer of a sharded deployment: every
// shard's individually authenticated SearchResponse plus the merged global
// top-r. A verifying client checks each shard response against its own
// manifest and recomputes the merge; the echoed parameters are as
// untrusted as in SearchResponse.
type ShardedSearchResponse struct {
	Query  string `json:"query"`
	R      int    `json:"r"`
	Algo   string `json:"algo"`
	Scheme string `json:"scheme"`
	// Generation is the shard-set generation that answered (0/absent on
	// static sets); an untrusted refresh hint like
	// SearchResponse.Generation.
	Generation uint64             `json:"generation,omitempty"`
	Shards     []SearchResponse   `json:"shards"`
	Merged     []MergedHit        `json:"merged"`
	Stats      ShardedSearchStats `json:"stats"`
}
