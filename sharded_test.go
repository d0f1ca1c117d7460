package authtext

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"authtext/internal/index"
	"authtext/internal/shard"
)

func shardedTestDocs() []Document {
	texts := []string{
		"professional users require integrity assurance from paid content services",
		"a merkle hash tree authenticates messages by signing the root digest",
		"threshold algorithms pop the entry with the highest term score",
		"the verification object contains digests to recompute the signed root",
		"sorted access maintains lower and upper bounds for candidate documents",
		"signatures generated with the private key verify with the public key",
		"the frequency ordered inverted index stores impact entries",
		"an audit trail archives verification objects for every decision",
		"random access fetches term frequencies from the document record",
		"chains of block trees verify leading blocks with one stored signature",
		"buddy leaves are cheaper to transmit than covering digests",
		"the user recomputes every score and checks the excluded documents",
		"query processing costs are dominated by disk reads of list blocks",
		"altered rankings divert attention from certain documents",
		"spurious results with fake entries may discourage competitors",
		"a breached server may return incorrect results to its users",
	}
	docs := make([]Document, len(texts))
	for i, s := range texts {
		docs[i] = Document{Content: []byte(s)}
	}
	return docs
}

func buildShardedFixture(t *testing.T, shards int, opts ...Option) (*Server, *Client) {
	t.Helper()
	opts = append([]Option{WithFastSigner([]byte("sharded-test")), WithSingletonTerms()}, opts...)
	owner, err := NewShardedOwner(shardedTestDocs(), shards, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if owner.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", owner.Shards(), shards)
	}
	return owner.Server(), owner.Client()
}

const shardedQuery = "merkle tree signatures verify the root digest"

func TestShardedHonestSearchVerifies(t *testing.T) {
	server, client := buildShardedFixture(t, 4)
	for _, algo := range []Algorithm{TRA, TNRA} {
		for _, scheme := range []Scheme{MHT, ChainMHT} {
			res, err := server.Search(shardedQuery, 5, algo, scheme)
			if err != nil {
				t.Fatalf("%s-%s: %v", algo, scheme, err)
			}
			if len(res.PerShard) != 4 {
				t.Fatalf("%s-%s: %d shard responses", algo, scheme, len(res.PerShard))
			}
			if len(res.Hits) == 0 {
				t.Fatalf("%s-%s: empty merged ranking", algo, scheme)
			}
			if err := client.Verify(shardedQuery, 5, res); err != nil {
				t.Errorf("%s-%s: honest result rejected: %v", algo, scheme, err)
			}
			if err := server.CheckRankingForTest(shardedQuery, 5, algo, res); err != nil {
				t.Errorf("%s-%s: %v", algo, scheme, err)
			}
			// Merged hits must be globally ordered and carry content.
			for i := 1; i < len(res.Hits); i++ {
				if res.Hits[i].Score > res.Hits[i-1].Score {
					t.Errorf("%s-%s: merged ranking not sorted at %d", algo, scheme, i)
				}
			}
			for i, h := range res.Hits {
				if len(h.Content) == 0 {
					t.Errorf("%s-%s: merged hit %d has no content", algo, scheme, i)
				}
				if h.GlobalID < 0 || h.GlobalID >= len(shardedTestDocs()) {
					t.Errorf("%s-%s: merged hit %d global id %d out of range", algo, scheme, i, h.GlobalID)
				}
			}
		}
	}
}

// TestShardedTamperingDetected: what only an in-process answer can carry,
// merged hits with content of their own, classifies as tampering for both
// TRA and TNRA. Everything the wire can carry is the shape matrix's tamper
// table; structural lies (nil, missing or extra shard answers) are
// TestShapeMismatchClassified's.
func TestShardedTamperingDetected(t *testing.T) {
	server, client := buildShardedFixture(t, 4)
	for _, algo := range []Algorithm{TRA, TNRA} {
		t.Run(algo.String(), func(t *testing.T) {
			for name, mutate := range map[string]func(*SearchResult){
				"forged merged content": func(res *SearchResult) { res.Hits[0].Content = []byte("forged merged content") },
				"control":               func(*SearchResult) {},
			} {
				res, err := server.Search(shardedQuery, 5, algo, ChainMHT)
				if err != nil {
					t.Fatal(err)
				}
				mutate(res)
				if err := client.Verify(shardedQuery, 5, res); (name == "control") != (err == nil) || (err != nil && !IsTampered(err)) {
					t.Errorf("%s: verified as %v", name, err)
				}
			}
		})
	}
}

func TestShardedWrongShardCountRejected(t *testing.T) {
	server, _ := buildShardedFixture(t, 4)
	_, otherClient := buildShardedFixture(t, 2)
	res, err := server.Search(shardedQuery, 5, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	err = otherClient.Verify(shardedQuery, 5, res)
	if err == nil || !IsTampered(err) {
		t.Errorf("4-shard result accepted by 2-shard client: %v", err)
	}
}

func TestShardedExportRoundTrip(t *testing.T) {
	owner, err := NewShardedOwner(shardedTestDocs(), 3, WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	export, err := owner.Client().Export()
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClientFromExport(export)
	if err != nil {
		t.Fatal(err)
	}
	if client.Shards() != 3 {
		t.Fatalf("Shards() = %d", client.Shards())
	}
	server := owner.Server()
	res, err := server.Search(shardedQuery, 4, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Verify(shardedQuery, 4, res); err != nil {
		t.Errorf("export-derived client rejected honest result: %v", err)
	}

	// Any flipped byte must be rejected at parse time.
	for _, i := range []int{0, 6, len(export) / 2, len(export) - 1} {
		bad := append([]byte(nil), export...)
		bad[i] ^= 0x01
		if _, err := NewClientFromExport(bad); err == nil {
			t.Errorf("flipping export byte %d went undetected", i)
		}
	}
	if _, err := NewClientFromExport(export[:len(export)-3]); err == nil {
		t.Error("truncated export accepted")
	}
	if _, err := NewClientFromExport(append(append([]byte(nil), export...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestShardedSnapshotDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	owner, err := NewShardedOwner(shardedTestDocs(), 3,
		WithFastSigner([]byte("sharded-snap")), WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(dir, "shards")
	if err := owner.WriteSnapshotDir(snapDir); err != nil {
		t.Fatal(err)
	}
	if !isShardDir(snapDir) {
		t.Error("isShardDir = false for a shard set's snapshot directory")
	}
	if isShardDir(filepath.Join(dir, "nope")) {
		t.Error("isShardDir = true for a missing path")
	}
	if IsLiveSnapshotDir(snapDir) {
		t.Error("a static shard-set directory taken for a per-generation one")
	}

	server, client, err := OpenSnapshotFile(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	if server.Shards() != 3 {
		t.Fatalf("reopened server has %d shards", server.Shards())
	}
	for _, algo := range []Algorithm{TRA, TNRA} {
		res, err := server.Search(shardedQuery, 4, algo, ChainMHT)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := client.Verify(shardedQuery, 4, res); err != nil {
			t.Errorf("%s: snapshot-booted result rejected: %v", algo, err)
		}
		// Cross-check against a client from the ORIGINAL owner: the
		// snapshot channel is untrusted, the owner's export is the root.
		if err := owner.Client().Verify(shardedQuery, 4, res); err != nil {
			t.Errorf("%s: original client rejected snapshot-booted result: %v", algo, err)
		}
	}

	// Swapping two shard files must fail the open-time cross-check.
	a := filepath.Join(snapDir, shardSnapshotName(0))
	b := filepath.Join(snapDir, shardSnapshotName(1))
	tmp := filepath.Join(snapDir, "tmp")
	for _, mv := range [][2]string{{a, tmp}, {b, a}, {tmp, b}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := OpenSnapshotFile(snapDir); err == nil {
		t.Error("swapped shard files opened cleanly")
	}
}

// TestShardedSnapshotDirMissingShard: an otherwise intact shard-set
// directory with one shard file gone fails the open as a missing file.
func TestShardedSnapshotDirMissingShard(t *testing.T) {
	owner, err := NewShardedOwner(shardedTestDocs(), 3,
		WithFastSigner([]byte("sharded-snap")), WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := owner.WriteSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSnapshotFile(dir); err != nil {
		t.Fatal(err)
	}
	a := filepath.Join(dir, shardSnapshotName(0))
	if err := os.Rename(a, a+".bak"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSnapshotFile(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a directory missing a shard: open err %v, want a missing-file error", err)
	}
}

func TestShardedBuildErrors(t *testing.T) {
	if _, err := NewShardedOwner(nil, 2); err == nil {
		t.Error("empty collection accepted")
	}
	if _, err := NewShardedOwner(shardedTestDocs(), 0, WithSingletonTerms()); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewShardedOwner(shardedTestDocs(), len(shardedTestDocs())+1, WithSingletonTerms()); err == nil {
		t.Error("more shards than documents accepted")
	}
}

// TestShardPlacementByConstructor: the constructor fixes placement. A static
// set places document i on shard i mod k and its signed set manifest records
// round-robin.
func TestShardPlacementByConstructor(t *testing.T) {
	const k = 3
	static, err := NewShardedOwner(shardedTestDocs(), k, WithFastSigner([]byte("placement")), WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	if sm, _ := static.v.set.Manifest(); sm.Partitioner != shard.RoundRobin {
		t.Fatalf("static set manifest records %v", sm.Partitioner)
	}
	for s := 0; s < k; s++ {
		for _, g := range static.v.set.DocMap(s) {
			if int(g)%k != s {
				t.Fatalf("static set placed document %d on shard %d", g, s)
			}
		}
	}
}

// TestShardedPartitionHash: a live set places every document by content
// hash and its signed set manifest records that, so its placement survives
// updates.
func TestShardedPartitionHash(t *testing.T) {
	docs := shardedTestDocs()
	const k = 3
	live, _, err := NewLiveShardedOwner(docs, k, WithFastSigner([]byte("placement")), WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	checkHashPlaced(t, live, docs)
}

// checkHashPlaced fails unless owner's served set manifest records content
// hashing and its shard sizes are what hashing docs places.
func checkHashPlaced(t *testing.T, owner *LiveOwner, docs []Document) {
	t.Helper()
	sm, _ := owner.Server().v.set.Manifest()
	if sm.Partitioner != shard.HashContent {
		t.Fatalf("live set manifest records %v", sm.Partitioner)
	}
	want := make([]uint32, len(sm.ShardDocs))
	for _, d := range docs {
		want[shard.HashDoc(index.Document{Content: d.Content}, len(want))]++
	}
	for s := range want {
		if sm.ShardDocs[s] != want[s] {
			t.Fatalf("live shard sizes %v, content hashing places %v", sm.ShardDocs, want)
		}
	}
}

func TestShardedStatsAggregate(t *testing.T) {
	server, _ := buildShardedFixture(t, 4)
	res, err := server.Search(shardedQuery, 5, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Shards != 4 {
		t.Errorf("Stats.Shards = %d", st.Shards)
	}
	var voSum int
	for _, sr := range res.PerShard {
		voSum += len(sr.VO)
	}
	if st.VOBytes != voSum {
		t.Errorf("Stats.VOBytes = %d, per-shard sum %d", st.VOBytes, voSum)
	}
	if st.ServerTime <= 0 {
		t.Errorf("Stats.ServerTime = %v", st.ServerTime)
	}
}

// TestFanOutQueryTermsIsTheMaximum: each shard counts only the query terms
// in ITS dictionary, so the fan-out aggregate is the maximum over shards —
// not whichever shard the merge loop happened to visit last. "professional"
// occurs in document 0 alone (shard 0 of 2, round-robin); "documents" occurs
// in both shards.
func TestFanOutQueryTermsIsTheMaximum(t *testing.T) {
	server, client := buildShardedFixture(t, 2)
	const q = "professional documents"
	res, err := server.Search(q, 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Verify(q, 3, res); err != nil {
		t.Fatal(err)
	}
	if got := [2]int{res.PerShard[0].Stats.QueryTerms, res.PerShard[1].Stats.QueryTerms}; got != [2]int{2, 1} {
		t.Fatalf("per-shard QueryTerms = %v, want [2 1]: the fixture no longer splits the query", got)
	}
	if res.Stats.QueryTerms != 2 {
		t.Fatalf("fan-out QueryTerms = %d, want the maximum over shards, 2", res.Stats.QueryTerms)
	}
}

// TestOneShardEqualsBare states what two types never could: a 1-shard set
// and a bare collection over the same documents return the same hits — IDs,
// scores, content, and the shard labels a bare collection reports — for
// every algorithm and scheme.
func TestOneShardEqualsBare(t *testing.T) {
	opts := []Option{WithFastSigner([]byte("one-shard")), WithSingletonTerms()}
	bareOwner, err := NewOwner(shardedTestDocs(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	oneOwner, err := NewShardedOwner(shardedTestDocs(), 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if bareOwner.Shards() != 0 || oneOwner.Shards() != 1 {
		t.Fatalf("Shards() = %d and %d, want 0 and 1", bareOwner.Shards(), oneOwner.Shards())
	}
	for _, q := range []string{shardedQuery, "merkle digest", "professional documents", "no such words"} {
		for _, algo := range []Algorithm{TRA, TNRA} {
			for _, scheme := range []Scheme{MHT, ChainMHT} {
				bare, err := bareOwner.Server().Search(q, 5, algo, scheme)
				if err != nil {
					t.Fatal(err)
				}
				one, err := oneOwner.Server().Search(q, 5, algo, scheme)
				if err != nil {
					t.Fatal(err)
				}
				if err := bareOwner.Client().Verify(q, 5, bare); err != nil {
					t.Fatalf("%s-%s %q: bare: %v", algo, scheme, q, err)
				}
				if err := oneOwner.Client().Verify(q, 5, one); err != nil {
					t.Fatalf("%s-%s %q: one shard: %v", algo, scheme, q, err)
				}
				if !reflect.DeepEqual(bare.Hits, one.Hits) || !reflect.DeepEqual(bare.Hits, one.PerShard[0].Hits) {
					t.Fatalf("%s-%s %q: hits differ\nbare      %+v\none shard %+v", algo, scheme, q, bare.Hits, one.Hits)
				}
				if !bytes.Equal(bare.VO, one.PerShard[0].VO) {
					t.Fatalf("%s-%s %q: the one shard's VO is not the bare collection's", algo, scheme, q)
				}
			}
		}
	}
}

// TestShapeMismatchClassified: a result, a manifest or an export of the
// wrong shape for the client it is handed to is classified, never a panic.
// Result-shaped lies — what a server can send — are tampering; wrong-format
// LOCAL input is a plain error.
func TestShapeMismatchClassified(t *testing.T) {
	bareOwner, err := NewOwner(shardedTestDocs(), WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	setOwner, err := NewShardedOwner(shardedTestDocs(), 2, WithSingletonTerms())
	if err != nil {
		t.Fatal(err)
	}
	const r = 4
	search := func(o *Owner) *SearchResult {
		t.Helper()
		res, err := o.Server().Search(shardedQuery, r, TNRA, ChainMHT)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Client().Verify(shardedQuery, r, res); err != nil {
			t.Fatalf("honest result rejected: %v", err)
		}
		return res
	}
	atcx, err := bareOwner.Client().Export()
	if err != nil {
		t.Fatal(err)
	}
	atsx, err := setOwner.Client().Export()
	if err != nil {
		t.Fatal(err)
	}

	lies := []struct {
		name   string
		client *Client
		result func() *SearchResult
	}{
		{"bare client, shard answers attached", bareOwner.Client(), func() *SearchResult {
			res := search(bareOwner)
			res.PerShard = search(setOwner).PerShard
			return res
		}},
		{"bare client, a shard set's answer", bareOwner.Client(), func() *SearchResult { return search(setOwner) }},
		{"set client, a bare answer", setOwner.Client(), func() *SearchResult { return search(bareOwner) }},
		{"set client, too few shard answers", setOwner.Client(), func() *SearchResult {
			res := search(setOwner)
			res.PerShard = res.PerShard[:1]
			return res
		}},
		{"set client, too many shard answers", setOwner.Client(), func() *SearchResult {
			res := search(setOwner)
			res.PerShard = append(res.PerShard, res.PerShard[0])
			return res
		}},
		{"set client, a nil shard answer", setOwner.Client(), func() *SearchResult {
			res := search(setOwner)
			res.PerShard[1] = nil
			return res
		}},
		{"set client, a shard answer that is itself a fan-out", setOwner.Client(), func() *SearchResult {
			res := search(setOwner)
			nested := *res.PerShard[0]
			nested.PerShard = res.PerShard
			res.PerShard[0] = &nested
			return res
		}},
		{"set client, hit cites shard k", setOwner.Client(), func() *SearchResult {
			res := search(setOwner)
			res.Hits[0].Shard = 2
			return res
		}},
		{"set client, hit cites shard -1", setOwner.Client(), func() *SearchResult {
			res := search(setOwner)
			res.Hits[0].Shard = -1
			return res
		}},
		{"set client, hit global id wraps 32 bits", setOwner.Client(), func() *SearchResult {
			res := search(setOwner)
			res.Hits[0].GlobalID += 1 << 32
			return res
		}},
	}
	for _, lie := range lies {
		if err := lie.client.Verify(shardedQuery, r, lie.result()); !IsTampered(err) {
			t.Errorf("%s: classified as %v, want tampering", lie.name, err)
		}
	}

	// Wrong-format local input: a plain error, and the client is left usable.
	manifest, sig := bareOwner.v.col.Manifest()
	mistakes := map[string]error{
		"Advance on a set client":                 setOwner.Client().Advance(manifest.Encode(), sig),
		"ATCX to a set client's AdvanceExport":    setOwner.Client().AdvanceExport(atcx),
		"ATSX to a bare client's AdvanceExport":   bareOwner.Client().AdvanceExport(atsx),
		"garbage to a set client's AdvanceExport": setOwner.Client().AdvanceExport([]byte("ATZZ")),
	}
	for _, served := range []struct {
		name   string
		owner  *Owner
		export []byte
	}{
		{"WithClientExport(ATCX) at a sharded server", setOwner, atcx},
		{"WithClientExport(ATSX) at a bare server", bareOwner, atsx},
	} {
		handler, err := served.owner.HTTPHandler()
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(handler)
		defer ts.Close()
		rc, err := NewRemoteClient(ts.URL, WithClientExport(served.export))
		if err != nil {
			t.Fatal(err)
		}
		_, mistakes[served.name] = rc.Search(context.Background(), shardedQuery, r, TNRA, ChainMHT)
	}
	for name, err := range mistakes {
		if err == nil || IsTampered(err) {
			t.Errorf("%s: %v, want a plain error", name, err)
		}
	}
}
