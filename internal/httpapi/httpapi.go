// Package httpapi defines the versioned wire format that puts the VO
// protocol on the network: JSON envelopes (with []byte fields carried as
// standard base64, per encoding/json) for search requests, results with
// their encoded verification objects, the signed-manifest bootstrap blob,
// and error reporting. The format is served by cmd/authserved and consumed
// by authtext.RemoteClient; docs/PROTOCOL.md is the normative description.
//
// The wire format is deliberately dumb: the VO stays the opaque binary
// encoding of internal/vo, and the manifest travels as the same ATCX
// export blob the owner publishes out of band. The security of the
// protocol therefore does not depend on this package — a client verifies
// everything it receives against the owner's public key, so a server (or
// proxy) that rewrites any field is detected by verification, not by
// transport checks.
package httpapi

import (
	"fmt"
	"strings"

	"authtext/internal/mht"
	"authtext/internal/wire"
)

// APIVersion is the protocol version, which prefixes every endpoint path.
const APIVersion = "v1"

// Endpoint paths (see docs/PROTOCOL.md; sharded endpoints in
// docs/SHARDING.md).
const (
	PathSearch   = "/v1/search"
	PathManifest = "/v1/manifest"
	PathHealthz  = "/v1/healthz"
	// PathMetrics serves the metric registry in the Prometheus text
	// exposition format when the handler is built with a registry
	// (docs/OBSERVABILITY.md); otherwise it answers 404.
	PathMetrics = "/v1/metrics"
	// Sharded endpoints, served only by sharded deployments (a
	// non-sharded server answers 404).
	PathShardSearch   = "/v1/shards/search"
	PathShardManifest = "/v1/shards/manifest"
	// PathAdminUpdate accepts document add/remove batches on live
	// deployments (docs/UPDATES.md); anything else answers 404. It is an
	// OWNER-side endpoint: expose it only on trusted networks.
	PathAdminUpdate = "/v1/admin/update"
)

// Canonical algorithm and scheme names on the wire (case-insensitive on
// input, always lower-case on output).
const (
	AlgoTRA    = "tra"
	AlgoTNRA   = "tnra"
	SchemeMHT  = "mht"
	SchemeCMHT = "cmht"
)

// Request limits enforced by the handler.
const (
	// DefaultR is the result size when a request omits r.
	DefaultR = 10
	// MaxR caps the per-query result size.
	MaxR = 1000
	// MaxQueryBytes caps the query string length.
	MaxQueryBytes = 8 << 10
	// MaxBodyBytes caps the POST body of a search request. It is sized so
	// that one maximum-length query fits however it is escaped: JSON
	// encoders write a byte as at most six (json.Marshal turns '<', '>',
	// '&', control bytes and invalid UTF-8 into \u escapes), so a
	// MaxQueryBytes query takes at most 48 KiB plus a few fields. The
	// query-length check, not body truncation, is what rejects a query
	// that is too long.
	MaxBodyBytes = 64 << 10
	// MaxUpdateDocs caps the documents added or removed in one update
	// batch.
	MaxUpdateDocs = 1024
	// MaxUpdateBodyBytes caps the POST body of an update request
	// (documents ride in it, so it is larger than MaxBodyBytes).
	MaxUpdateBodyBytes = 32 << 20
	// MaxCap caps the proof-cap depth a request may name (?cap= on the
	// manifest endpoint, SearchRequest.Cap): 2^16 frontier digests per tree.
	MaxCap = mht.MaxCapDepth
)

// Machine-readable error codes carried in ErrorBody.Code.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeSearchFailed     = "search_failed"
	CodeUpdateFailed     = "update_failed"
	CodeUnavailable      = "unavailable"
	CodeInternal         = "internal"
	// CodeFleetUnavailable: a fleet front end exhausted its replica
	// backends without obtaining a generation-consistent answer
	// (docs/FLEET.md).
	CodeFleetUnavailable = "fleet_unavailable"
	// CodeVariantNotBuilt: the query asks for an algorithm/scheme variant
	// the collection was not built with (status 422). The signed manifest
	// lists what was built; a client that sees this code for a listed
	// variant has caught the server lying.
	CodeVariantNotBuilt = "variant_not_built"
	// CodeBadCap: a proof-cap depth outside [0, MaxCap], or a nonzero one
	// on the sharded endpoints, which answer uncut (status 400).
	CodeBadCap = "bad_cap"
)

// GenerationHeader is the response header carrying the publication
// generation of the state that produced a response (decimal uint64,
// omitted on static deployments). It is an untrusted routing hint — the
// fleet front end uses it to refuse generation regressions during swaps —
// and is always cross-checked by clients against the signed generation
// inside the verified payload.
const GenerationHeader = "X-Authtext-Generation"

// DictionaryHeader is the request header in which a client names the
// collection dictionaries it holds: the hex SHA-256 of each, comma-separated,
// at most wire.MaxHeldDictionaries (later entries are ignored). A server
// answers with a frame that carries its generation's dictionary in full only
// when the header does not name it (docs/PROTOCOL.md "Binary framing").
const DictionaryHeader = "X-Authtext-Dictionary"

// HeldHeader is the request header in which a client summarises the
// bodies it holds: a wire.HeldSummary, 512 bytes in unpadded URL-safe
// base64. A server sends a hit whose content digest the summary contains as
// that digest instead of its body; a header that is not exactly one
// well-formed summary is ignored, and every body is sent
// (docs/PROTOCOL.md "Held bodies").
const HeldHeader = "X-Authtext-Held"

// SearchRequest asks for the top-R documents matching Query. Algo and
// Scheme select the query algorithm and authentication scheme; empty
// values default to TNRA + CMHT, the configuration the paper recommends.
// Cap asks for every collection-tree proof cut at that depth: the client
// holds the top Cap levels of those trees (docs/PROTOCOL.md "Proof caps");
// 0, the default, cuts nothing.
type SearchRequest struct {
	Query  string `json:"query"`
	R      int    `json:"r,omitempty"`
	Algo   string `json:"algo,omitempty"`
	Scheme string `json:"scheme,omitempty"`
	Cap    int    `json:"cap,omitempty"`
}

// Hit, SearchStats and SearchResponse (and the other response types
// below) are defined in internal/wire and aliased here: the JSON envelope
// and the binary framing serialise the identical structs, so the two
// representations can never drift. The JSON shape is unchanged.
type Hit = wire.Hit

// SearchStats reports the server-side per-query costs (§4.1 of the paper).
type SearchStats = wire.SearchStats

// SearchResponse is the answer to a SearchRequest.
type SearchResponse = wire.SearchResponse

// ManifestResponse carries the owner's verification material
// (authtext.NewClientFromExport accepts Export).
type ManifestResponse = wire.ManifestResponse

// FormatATCX is the single-collection manifest export format.
const FormatATCX = "atcx"

// FormatATSX is the sharded manifest export format served at
// /v1/shards/manifest.
const FormatATSX = "atsx"

// MergedHit is one entry of the claimed global ranking of a sharded
// response.
type MergedHit = wire.MergedHit

// ShardedSearchStats aggregates server-side fan-out costs.
type ShardedSearchStats = wire.ShardedSearchStats

// ShardedSearchResponse is the answer of a sharded deployment.
type ShardedSearchResponse = wire.ShardedSearchResponse

// Health is the healthz payload: liveness plus collection shape and
// aggregate serving counters. Shards is 0 for a single-collection server
// and the shard count for a sharded one (clients use it to pick the
// endpoint family).
type Health struct {
	Status    string `json:"status"`
	Documents int    `json:"documents"`
	Terms     int    `json:"terms"`
	Shards    int    `json:"shards,omitempty"`
	// Generation is the currently served publication generation (0/absent
	// on static deployments).
	Generation uint64 `json:"generation,omitempty"`
	// Variants names the algorithm/scheme variants the collection was built
	// with ("tnra-cmht", ...), absent when all four are. Untrusted like
	// every healthz field: clients read the set from the signed manifest.
	Variants      []string `json:"variants,omitempty"`
	UptimeMillis  int64    `json:"uptime_millis"`
	QueriesServed int64    `json:"queries_served"`
	QueriesFailed int64    `json:"queries_failed"`
	// Cache reports the server-side VO cache, absent when caching is
	// disabled (docs/PROTOCOL.md "Caching").
	Cache *CacheHealth `json:"cache,omitempty"`
}

// CacheHealth reports the server-side VO cache inside Health. Purely
// informational: the cache serves byte-identical responses whose integrity
// clients verify themselves, so nothing here participates in the protocol.
type CacheHealth struct {
	Entries       int64   `json:"entries"`
	Bytes         int64   `json:"bytes"`
	CapacityBytes int64   `json:"capacity_bytes"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	HitRate       float64 `json:"hit_rate"`
	Evictions     int64   `json:"evictions"`
	Invalidations int64   `json:"invalidations"`
}

// UpdateDocument is one document added by an update batch. Content is
// base64 on the wire, like Hit.Content.
type UpdateDocument struct {
	Content []byte `json:"content"`
}

// UpdateRequest is a POST to /v1/admin/update: one batch of additions
// and removals, applied atomically as a single generation change.
// Remove carries the document handles assigned when the documents were
// added (UpdateResponse.Added, or the owner's construction-time handles).
type UpdateRequest struct {
	Add    []UpdateDocument `json:"add,omitempty"`
	Remove []uint64         `json:"remove,omitempty"`
}

// Validate reports the first problem with the batch.
func (r *UpdateRequest) Validate() error {
	if len(r.Add) == 0 && len(r.Remove) == 0 {
		return fmt.Errorf("empty update batch")
	}
	if len(r.Add) > MaxUpdateDocs {
		return fmt.Errorf("%d added documents exceed the maximum of %d", len(r.Add), MaxUpdateDocs)
	}
	if len(r.Remove) > MaxUpdateDocs {
		return fmt.Errorf("%d removals exceed the maximum of %d", len(r.Remove), MaxUpdateDocs)
	}
	for i, d := range r.Add {
		if len(d.Content) == 0 {
			return fmt.Errorf("added document %d is empty", i)
		}
	}
	return nil
}

// UpdateResponse reports the accepted batch: the newly published
// generation, the handles assigned to the added documents (in request
// order), and the owner-side rebuild costs.
type UpdateResponse struct {
	Generation uint64 `json:"generation"`
	// Documents counts live documents; TombstonedSlots the removed-but-
	// still-indexed slots the generation carries. Compacted reports that
	// this rebuild dropped accumulated dead slots.
	Documents        int      `json:"documents"`
	TombstonedSlots  int      `json:"tombstoned_slots,omitempty"`
	Compacted        bool     `json:"compacted,omitempty"`
	Added            []uint64 `json:"added,omitempty"`
	Removed          int      `json:"removed"`
	SignaturesSigned int      `json:"signatures_signed"`
	// SignaturesReused is always 0: every generation signs what it
	// builds. It stays in the schema because clients of /v1/admin/update
	// (the bench load generator among them) read it.
	SignaturesReused int     `json:"signatures_reused"`
	ShardsReused     int     `json:"shards_reused,omitempty"`
	RebuildMillis    float64 `json:"rebuild_millis"`
}

// ErrorResponse is the envelope of every non-2xx answer.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is a machine-readable code plus a human-readable message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// StatusError is an error with an HTTP status and a wire code. Backends
// return it to control the handler's error mapping; any other error is
// reported as 500/internal.
type StatusError struct {
	Status  int
	Code    string
	Message string
}

// Error implements error.
func (e *StatusError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// NormalizeAlgo canonicalises an algorithm name ("" defaults to TNRA).
func NormalizeAlgo(s string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", AlgoTNRA:
		return AlgoTNRA, nil
	case AlgoTRA:
		return AlgoTRA, nil
	}
	return "", fmt.Errorf("unknown algorithm %q (want %q or %q)", s, AlgoTRA, AlgoTNRA)
}

// NormalizeScheme canonicalises a scheme name ("" defaults to CMHT).
func NormalizeScheme(s string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", SchemeCMHT:
		return SchemeCMHT, nil
	case SchemeMHT:
		return SchemeMHT, nil
	}
	return "", fmt.Errorf("unknown scheme %q (want %q or %q)", s, SchemeMHT, SchemeCMHT)
}

// Validate normalises the request in place and reports the first problem.
func (r *SearchRequest) Validate() error {
	r.Query = strings.TrimSpace(r.Query)
	if r.Query == "" {
		return fmt.Errorf("empty query")
	}
	if len(r.Query) > MaxQueryBytes {
		return fmt.Errorf("query exceeds %d bytes", MaxQueryBytes)
	}
	if r.R == 0 {
		r.R = DefaultR
	}
	if r.R < 1 || r.R > MaxR {
		return fmt.Errorf("r=%d out of range [1, %d]", r.R, MaxR)
	}
	var err error
	if r.Algo, err = NormalizeAlgo(r.Algo); err != nil {
		return err
	}
	if r.Scheme, err = NormalizeScheme(r.Scheme); err != nil {
		return err
	}
	return nil
}
