// Livefeed: authenticated search over a corpus that changes while it is
// being served — the generation model of docs/UPDATES.md.
//
// A breaking-news feed publishes articles, corrects one, and retracts
// another. Every update batch becomes a new signed generation, published
// atomically; the engine re-pins its server to serve it. The subscriber's client follows
// the generations forward — and proves that it cannot be rolled back: a
// replayed answer from before the retraction (still showing the retracted
// article) and a re-presented older manifest are both rejected as
// tampering (errors.Is(err, authtext.ErrStaleGeneration)).
package main

import (
	"errors"
	"fmt"
	"log"

	"authtext"
)

func doc(s string) authtext.Document { return authtext.Document{Content: []byte(s)} }

func main() {
	articles := []authtext.Document{
		doc("markets rally as the central bank signals steady interest rates"),
		doc("storm warnings close the harbor and the old bridge before the weekend"),
		doc("the city council approves funding for the new harbor bridge"),
		doc("researchers publish results on verified search over signed indexes"),
		doc("the harbor bridge design faces criticism over projected costs"),
		doc("central bank researchers model interest rate scenarios for markets"),
	}

	// Generation 1: the feed goes live.
	owner, handles, err := authtext.NewLiveOwner(articles)
	if err != nil {
		log.Fatal(err)
	}
	server := owner.Server()
	client := owner.Client()
	fmt.Printf("published generation %d with %d articles\n", owner.Generation(), len(handles))

	query, r := "harbor bridge funding", 3
	res, err := server.Search(query, r, authtext.TNRA, authtext.ChainMHT)
	if err != nil {
		log.Fatal(err)
	}
	if err := client.Verify(query, r, res); err != nil {
		log.Fatalf("generation 1 answer failed verification: %v", err)
	}
	fmt.Printf("  verified %d hits at generation %d\n", len(res.Hits), res.Generation)
	stale := res // the pre-retraction answer, kept for the replay attack below
	gen1Manifest, gen1Sig := owner.ManifestUpdate()

	// Generation 2: one correction (replace) and one retraction (remove),
	// one atomic batch, published under one freshly signed manifest.
	corrected := doc("the city council approves REVISED funding for the new harbor bridge")
	_, rep, err := owner.Update([]authtext.Document{corrected}, []authtext.DocHandle{handles[2], handles[4]})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published generation %d: +%d/−%d articles, %d signed, rebuilt in %.0f ms\n",
		rep.Generation, rep.Added, rep.Removed, rep.SignaturesSigned, rep.RebuildMillis)

	// The subscriber advances — forward only — with the owner's signed
	// manifest and verifies a fresh answer.
	if err := client.Advance(owner.ManifestUpdate()); err != nil {
		log.Fatal(err)
	}
	// A server is pinned to the generation current when it was taken; the
	// engine takes a fresh one to serve generation 2.
	server = owner.Server()
	res2, err := server.Search(query, r, authtext.TNRA, authtext.ChainMHT)
	if err != nil {
		log.Fatal(err)
	}
	if err := client.Verify(query, r, res2); err != nil {
		log.Fatalf("generation 2 answer failed verification: %v", err)
	}
	fmt.Printf("  verified %d hits at generation %d (retracted article gone)\n", len(res2.Hits), res2.Generation)

	// Attack 1: replay the pre-retraction answer. The VO pins generation
	// 1; the client holds generation 2.
	err = client.Verify(query, r, stale)
	if !errors.Is(err, authtext.ErrStaleGeneration) || !authtext.IsTampered(err) {
		log.Fatalf("stale replay was not rejected as rollback: %v", err)
	}
	fmt.Println("  replayed generation-1 answer rejected: ", err)

	// Attack 2: re-present the (validly signed!) generation-1 manifest to
	// roll the client's view back. Same verdict: generations only move
	// forward.
	err = client.Advance(gen1Manifest, gen1Sig)
	if !errors.Is(err, authtext.ErrStaleGeneration) || !authtext.IsTampered(err) {
		log.Fatalf("manifest rollback was not rejected: %v", err)
	}
	fmt.Println("  generation-1 manifest rollback rejected:", err)
	fmt.Println("livefeed: all generations verified, all rollbacks rejected")
}
