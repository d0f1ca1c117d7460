package authtext

import "testing"

func TestWithAuthorityEndToEnd(t *testing.T) {
	docs := newsDocs()
	scores := make([]float64, len(docs))
	for i := range scores {
		scores[i] = float64(i) / float64(len(docs)-1)
	}
	o, err := NewOwner(docs, WithAuthority(scores, 2.0), WithFastSigner([]byte("boost")))
	if err != nil {
		t.Fatal(err)
	}
	server, client := o.Server(), o.Client()
	for _, q := range []string{"patent examiner", "search results", "integrity"} {
		for _, algo := range []Algorithm{TRA, TNRA} {
			for _, scheme := range []Scheme{MHT, ChainMHT} {
				res, err := server.Search(q, 3, algo, scheme)
				if err != nil {
					t.Fatalf("%v-%v: %v", algo, scheme, err)
				}
				if err := client.Verify(q, 3, res); err != nil {
					t.Fatalf("%v-%v %q: %v", algo, scheme, q, err)
				}
			}
		}
	}
}

func TestWithPageRankEndToEnd(t *testing.T) {
	docs := newsDocs()
	links := make([][]int, len(docs))
	for i := 1; i < len(docs); i++ {
		links[i] = []int{0, i / 2}
	}
	o, err := NewOwner(docs, WithPageRank(links, 1.5), WithFastSigner([]byte("pr")))
	if err != nil {
		t.Fatal(err)
	}
	server, client := o.Server(), o.Client()
	res, err := server.Search("patent examiner portal", 3, TNRA, ChainMHT)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Verify("patent examiner portal", 3, res); err != nil {
		t.Fatal(err)
	}
	// Tampered hit score must be rejected.
	if len(res.Hits) > 0 {
		res.Hits[0].Score += 0.1
		if err := client.Verify("patent examiner portal", 3, res); err == nil {
			t.Fatal("tampered boosted score accepted")
		}
	}
}

func TestBoostOptionValidation(t *testing.T) {
	docs := newsDocs()
	if _, err := NewOwner(docs, WithAuthority([]float64{1}, 1)); err == nil {
		t.Fatal("mismatched authority length accepted")
	}
	if _, err := NewOwner(docs,
		WithAuthority(make([]float64, len(docs)), 1),
		WithPageRank(make([][]int, len(docs)), 1)); err == nil {
		t.Fatal("conflicting boost options accepted")
	}
	if _, err := NewOwner(docs, WithPageRank(make([][]int, 3), 1)); err == nil {
		t.Fatal("mismatched link-list length accepted")
	}
}

// TestLiveAuthorityBoostEndToEnd lifts the old "static collections only"
// caveat: a live collection built with WithAuthority serves verifiable
// boosted answers for every algorithm/scheme pair, keeps doing so across
// updates (UpdateWithAuthority scores the newcomers), and still rejects
// tampered scores and misuse.
func TestLiveAuthorityBoostEndToEnd(t *testing.T) {
	docs := liveDocs(0, 20)
	scores := make([]float64, len(docs))
	for i := range scores {
		scores[i] = float64(i) / float64(len(docs)-1)
	}
	owner, handles, err := NewLiveOwner(docs, WithAuthority(scores, 2.0), WithFastSigner([]byte("live-boost")))
	if err != nil {
		t.Fatal(err)
	}
	client := owner.Client()
	for _, algo := range []Algorithm{TRA, TNRA} {
		for _, scheme := range []Scheme{MHT, ChainMHT} {
			liveSearchVerify(t, owner.Server(), client, algo, scheme)
		}
	}

	// Updates on a boosted collection: newcomers carry their own scores,
	// removals tombstone as usual, and the next generation still verifies.
	if _, _, err := owner.UpdateWithAuthority(liveDocs(20, 2), []float64{0.9, 0.1}, []DocHandle{handles[0]}); err != nil {
		t.Fatal(err)
	}
	if err := client.Advance(owner.ManifestUpdate()); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{TRA, TNRA} {
		liveSearchVerify(t, owner.Server(), client, algo, ChainMHT)
	}

	// A plain Update (no scores) works too: newcomers default to zero
	// authority.
	if _, _, err := owner.Update(liveDocs(22, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := client.Advance(owner.ManifestUpdate()); err != nil {
		t.Fatal(err)
	}
	res := liveSearchVerify(t, owner.Server(), client, TNRA, MHT)

	// A tampered boosted score must still be rejected.
	if len(res.Hits) > 0 {
		res.Hits[0].Score += 0.1
		if err := client.Verify(liveQuery, 3, res); err == nil {
			t.Fatal("tampered boosted live score accepted")
		}
	}

	// Authority scores on an unboosted collection are rejected.
	plain, _, err := NewLiveOwner(liveDocs(0, 8), WithFastSigner([]byte("plain")))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plain.UpdateWithAuthority(liveDocs(8, 1), []float64{0.5}, nil); err == nil {
		t.Fatal("authority scores accepted on an unboosted live collection")
	}
}

// TestLiveShardedAuthorityBoost covers the sharded half of the same lift:
// boosted live sharded sets build, update, and verify.
func TestLiveShardedAuthorityBoost(t *testing.T) {
	docs := liveDocs(0, 24)
	scores := make([]float64, len(docs))
	for i := range scores {
		scores[i] = 1 - float64(i)/float64(len(docs))
	}
	owner, handles, err := NewLiveShardedOwner(docs, 3, WithAuthority(scores, 1.5), WithFastSigner([]byte("shard-boost")))
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		res, err := owner.Server().Search(liveQuery, 3, TNRA, ChainMHT)
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.Client().Verify(liveQuery, 3, res); err != nil {
			t.Fatalf("boosted sharded live answer failed verification: %v", err)
		}
	}
	check()
	if _, _, err := owner.UpdateWithAuthority(liveDocs(24, 2), []float64{0.8, 0.2}, handles[:1]); err != nil {
		t.Fatal(err)
	}
	check()
}
