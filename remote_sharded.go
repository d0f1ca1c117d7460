package authtext

import (
	"context"
	"time"

	"authtext/internal/httpapi"
	"authtext/internal/wire"
)

// ShardedRemoteClient verifies fanned-out search results received over
// HTTP from an untrusted sharded authserved deployment, exactly as
// RemoteClient does for a single collection: it bootstraps the owner's
// signed shard-set manifest once (from /v1/shards/manifest, or injected
// out of band), then every answer — every shard's hits, contents, scores
// and VO, plus the merged global ranking — is verified locally before it
// is returned.
type ShardedRemoteClient struct {
	remoteConn[*ShardedClient]
}

// NewShardedRemoteClient prepares a client for the sharded deployment at
// baseURL. No network traffic happens until the first call.
func NewShardedRemoteClient(baseURL string, opts ...RemoteOption) (*ShardedRemoteClient, error) {
	rc := &ShardedRemoteClient{}
	err := rc.dial(baseURL, httpapi.PathShardManifest, httpapi.FormatATSX, NewShardedClientFromExport, opts)
	if err != nil {
		return nil, err
	}
	return rc, nil
}

// Shards returns the shard count after bootstrap (0 before).
func (rc *ShardedRemoteClient) Shards() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.client == nil {
		return 0
	}
	return rc.client.Shards()
}

// Search asks the sharded deployment for the global top-r and verifies
// the complete answer locally — every shard's VO against its pinned
// manifest, then the merged ranking by recomputation — using the
// parameters this client asked for, never the server's echo.
func (rc *ShardedRemoteClient) Search(ctx context.Context, query string, r int, algo Algorithm, scheme Scheme) (*ShardedResult, error) {
	if err := checkR(r); err != nil {
		return nil, err
	}
	sw, client, err := ask(ctx, &rc.remoteConn, httpapi.PathShardSearch,
		&httpapi.SearchRequest{Query: query, R: r, Algo: wireAlgo(algo), Scheme: wireScheme(scheme)},
		wire.DecodeShardedSearchResponse, func(sw *httpapi.ShardedSearchResponse) uint64 { return sw.Generation })
	if err != nil {
		return nil, err
	}

	res := &ShardedResult{
		PerShard:   make([]*SearchResult, len(sw.Shards)),
		Merged:     make([]ShardedHit, len(sw.Merged)),
		Generation: sw.Generation,
		Stats: ShardedStats{
			Shards:      sw.Stats.Shards,
			Algorithm:   algo,
			Scheme:      scheme,
			EntriesRead: sw.Stats.EntriesRead,
			VOBytes:     sw.Stats.VOBytes,
			IOTime:      StatsDuration(sw.Stats.IOMillis),
			// Wall is the server-reported fan-out time (informational, like
			// every stat on the wire).
			Wall: time.Duration(sw.Stats.ServerMillis * float64(time.Millisecond)),
		},
	}
	for i := range sw.Shards {
		res.PerShard[i] = resultFromWire(&sw.Shards[i], algo, scheme)
	}
	// Merged wire hits carry no content; deliver the (about to be
	// verified) content of the shard answer each one cites. A merged hit
	// citing a document its shard never returned fails verification, so
	// missing content here is fine — verification rejects first.
	for i, m := range sw.Merged {
		h := ShardedHit{Shard: m.Shard, DocID: m.DocID, GlobalID: m.GlobalID, Score: m.Score}
		if m.Shard >= 0 && m.Shard < len(res.PerShard) {
			for _, sh := range res.PerShard[m.Shard].Hits {
				if sh.DocID == m.DocID {
					h.Content = sh.Content
					break
				}
			}
		}
		res.Merged[i] = h
	}
	verifyStart := time.Now()
	err = client.Verify(query, r, res)
	rc.metrics.observeVerify(time.Since(verifyStart), err, client.verifier)
	if err != nil {
		return nil, err
	}
	return res, nil
}
