package authtext

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"authtext/internal/core"
	"authtext/internal/engine"
	"authtext/internal/textproc"
)

// The ranking oracle: verification proves an answer consistent with the
// owner's signatures, the oracle proves the ranking itself right, by
// comparing it with core.PSCAN — a scan of every posting of every query
// term — over the collections of the generation s serves.

// scanTopR ranks every live document of col that matches query, by
// brute force, best first.
func scanTopR(col *engine.Collection, query string) ([]core.ResultEntry, error) {
	idx := col.Index()
	q, err := core.BuildQuery(idx, textproc.Terms(query))
	if err != nil {
		return nil, err
	}
	all, err := core.PSCAN(q, &core.MemSource{Idx: idx})
	if err != nil {
		return nil, err
	}
	m, _ := col.Manifest()
	live := all[:0]
	for _, e := range all {
		if !m.IsTombstoned(uint32(e.Doc)) {
			live = append(live, e)
		}
	}
	return live, nil
}

// matchRanking checks hits against the brute-force ranking all, whose
// top r they must be. Documents that tie on score may legitimately swap
// places, so a position is compared by the true score of the document
// returned there; TRA reports exact scores, TNRA the lower bound that
// sufficed to fix the order (§3.4). trueScore keys the documents hits name.
func matchRanking(hits []Hit, all []core.ResultEntry, trueScore map[[2]int]float64, key func(Hit) [2]int, r int, algo Algorithm) error {
	want := all[:min(r, len(all))]
	if len(hits) != len(want) {
		return fmt.Errorf("%d hits, brute force finds %d", len(hits), len(want))
	}
	for k, h := range hits {
		ts, ok := trueScore[key(h)]
		if !ok || math.Abs(ts-want[k].Score) > 1e-9 {
			return fmt.Errorf("position %d holds doc %d (true score %v, live %v), brute force ranks score %v there",
				k, h.DocID, ts, ok, want[k].Score)
		}
		if h.Score > ts+1e-9 || (algo == TRA && math.Abs(h.Score-ts) > 1e-9) {
			return fmt.Errorf("doc %d reported score %v, true score %v", h.DocID, h.Score, ts)
		}
	}
	return nil
}

// CheckRankingForTest reports whether res, an answer to query at r under
// algo, ranks what a brute-force scan of the generation s serves ranks. A
// shard set is ranked shard by shard, and its merged ranking against the
// union of the shard scans. Tombstoned slots are never in a true ranking.
func (s *Server) CheckRankingForTest(query string, r int, algo Algorithm, res *SearchResult) error {
	if gen := s.v.generation(); res.Generation != gen {
		return fmt.Errorf("oracle: answer of generation %d checked against generation %d", res.Generation, gen)
	}
	cols := s.v.cols()
	if s.v.set != nil && len(res.PerShard) != len(cols) {
		return fmt.Errorf("oracle: %d shard answers from %d shards", len(res.PerShard), len(cols))
	}
	var merged []core.ResultEntry // every shard's scan; only the scores matter
	trueScore := map[[2]int]float64{}
	for i, col := range cols {
		all, err := scanTopR(col, query)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		shardScore := map[[2]int]float64{}
		for _, e := range all {
			shardScore[[2]int{0, int(e.Doc)}] = e.Score
			trueScore[[2]int{i, int(e.Doc)}] = e.Score
			merged = append(merged, core.ResultEntry{Score: e.Score})
		}
		if s.v.set == nil {
			return matchRanking(res.Hits, all, shardScore, func(h Hit) [2]int { return [2]int{0, h.DocID} }, r, algo)
		}
		if err := matchRanking(res.PerShard[i].Hits, all, shardScore, func(h Hit) [2]int { return [2]int{0, h.DocID} }, r, algo); err != nil {
			return fmt.Errorf("oracle: shard %d: %w", i, err)
		}
	}
	sort.SliceStable(merged, func(a, b int) bool { return merged[a].Score > merged[b].Score })
	if err := matchRanking(res.Hits, merged, trueScore, func(h Hit) [2]int { return [2]int{h.Shard, h.DocID} }, r, algo); err != nil {
		return fmt.Errorf("oracle: merged ranking: %w", err)
	}
	return nil
}

// TestRankingOracle: the oracle accepts an honest answer and rejects one
// whose top hit is swapped for a lower-ranked document, and one that
// returns a tombstoned document — bare and sharded.
func TestRankingOracle(t *testing.T) {
	const q, r = "merkle tree", 3
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprint(shards, " shards"), func(t *testing.T) {
			build := func(docs []Document, opts ...Option) (*LiveOwner, []DocHandle, error) {
				return NewLiveShardedOwner(docs, shards, opts...)
			}
			if shards == 0 {
				build = NewLiveOwner
			}
			owner, _, err := build(liveDocs(0, 24), WithFastSigner([]byte("oracle")))
			if err != nil {
				t.Fatal(err)
			}
			honest, err := owner.Server().Search(q, r, TRA, ChainMHT)
			if err != nil {
				t.Fatal(err)
			}
			if err := owner.Server().CheckRankingForTest(q, r, TRA, honest); err != nil {
				t.Fatalf("honest answer: %v", err)
			}
			top := honest.Hits[0]
			if err := owner.Server().CheckRankingForTest(q, r+4, TRA, honest); err == nil {
				t.Fatal("an answer too short for r passed")
			}

			// A lower-ranked match in place of the top hit.
			deep, err := owner.Server().Search(q, 1000, TRA, ChainMHT)
			if err != nil {
				t.Fatal(err)
			}
			worse := *honest
			worse.Hits = append([]Hit{deep.Hits[len(deep.Hits)-1]}, honest.Hits[1:]...)
			if deep.Hits[len(deep.Hits)-1].Score >= top.Score {
				t.Fatal("no lower-ranked match to substitute")
			}
			if err := owner.Server().CheckRankingForTest(q, r, TRA, &worse); err == nil {
				t.Fatal("a lower-ranked document substituted for the top hit passed")
			}

			// The top hit's document removed: the stale answer names a
			// tombstoned slot, whatever generation it claims. Handles list
			// the slots shard by shard.
			slot := top.DocID
			for _, col := range owner.Server().v.cols()[:top.Shard] {
				slot += col.Index().N
			}
			if _, err := owner.RemoveDocuments(owner.Handles()[slot]); err != nil {
				t.Fatal(err)
			}
			stale := *honest
			stale.Generation = owner.Generation()
			if err := owner.Server().CheckRankingForTest(q, r, TRA, &stale); err == nil {
				t.Fatal("an answer returning a tombstoned document passed")
			}
			fresh, err := owner.Server().Search(q, r, TRA, ChainMHT)
			if err != nil {
				t.Fatal(err)
			}
			if err := owner.Server().CheckRankingForTest(q, r, TRA, fresh); err != nil {
				t.Fatalf("honest answer after the removal: %v", err)
			}
			if err := owner.Server().CheckRankingForTest(q, r, TRA, honest); err == nil {
				t.Fatal("an answer of the previous generation passed")
			}
		})
	}
}
