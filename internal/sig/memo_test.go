package sig

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Soundness of the verified-signature memo: it may only ever SKIP a check
// whose outcome is already known to be success. Every test below counts the
// calls that reach the real verifier, so "rejected" is told apart from
// "rejected without looking".

// countingVerifier counts the checks that reach the wrapped verifier.
type countingVerifier struct {
	Verifier
	calls atomic.Int64
}

func (c *countingVerifier) Verify(msg, sigBytes []byte) error {
	c.calls.Add(1)
	return c.Verifier.Verify(msg, sigBytes)
}

// memoFixture returns a memo of the given capacity over a counting RSA
// verifier, plus the signer to make honest pairs with.
func memoFixture(t *testing.T, capacity int) (*MemoVerifier, *countingVerifier, Signer) {
	t.Helper()
	signer, err := NewRSASigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingVerifier{Verifier: signer.Verifier()}
	return newMemoVerifier(inner, capacity), inner, signer
}

func mustSign(t *testing.T, s Signer, msg []byte) []byte {
	t.Helper()
	out, err := s.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMemoSkipsOnlyWhatAlreadyVerified(t *testing.T) {
	memo, inner, signer := memoFixture(t, memoCapacity)
	msgA, msgB := []byte("doc-root 7"), []byte("doc-root 8")
	sigA, sigB := mustSign(t, signer, msgA), mustSign(t, signer, msgB)

	// A failed verification is never recorded: it fails again, and is
	// looked at again.
	forged := append([]byte(nil), sigA...)
	forged[len(forged)/2] ^= 0x01
	for i := 1; i <= 2; i++ {
		if err := memo.Verify(msgA, forged); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("forged signature, attempt %d: %v", i, err)
		}
		if got := inner.calls.Load(); got != int64(i) {
			t.Fatalf("forged signature, attempt %d: %d real checks", i, got)
		}
	}

	// The honest pair verifies once for real, then from the memo.
	for i := 0; i < 3; i++ {
		if err := memo.Verify(msgA, sigA); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.calls.Load(); got != 3 {
		t.Fatalf("honest pair verified 3 times: %d real checks, want 2 forged + 1", got)
	}
	if verified, hits := memo.TakeCounts(); verified != 1 || hits != 2 {
		t.Fatalf("counts verified=%d hits=%d, want 1 and 2", verified, hits)
	}
	if verified, hits := memo.TakeCounts(); verified != 0 || hits != 0 {
		t.Fatalf("counts not reset by TakeCounts: %d, %d", verified, hits)
	}

	// With (msgA, sigA) and (msgB, sigB) both memoised, neither the same
	// message under a bit-flipped signature nor another message's valid
	// signature is accepted.
	if err := memo.Verify(msgB, sigB); err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2][]byte{
		"bit-flipped signature":     {msgA, forged},
		"another message's":         {msgA, sigB},
		"the other way round":       {msgB, sigA},
		"message extended":          {append(append([]byte(nil), msgA...), 0), sigA},
		"signature bytes as suffix": {append(append([]byte(nil), msgA...), sigA[:1]...), sigA[1:]},
	} {
		before := inner.calls.Load()
		if err := memo.Verify(pair[0], pair[1]); !errors.Is(err, ErrBadSignature) {
			t.Errorf("%s: accepted (%v)", name, err)
		}
		if inner.calls.Load() != before+1 {
			t.Errorf("%s: rejected without a real check", name)
		}
	}
	if got := memo.Size(); got != signer.Size() {
		t.Fatalf("Size %d, want %d", got, signer.Size())
	}
}

func TestMemoizeSharesAnExistingMemo(t *testing.T) {
	memo, inner, _ := memoFixture(t, memoCapacity)
	if Memoize(memo) != memo {
		t.Fatal("Memoize re-wrapped a memoising verifier")
	}
	if memo.Inner() != Verifier(inner) {
		t.Fatal("Inner does not return the wrapped verifier")
	}
	if fresh := Memoize(inner); fresh == memo || fresh.Inner() != Verifier(inner) {
		t.Fatal("Memoize of a plain verifier must build a fresh memo around it")
	}
}

// TestMemoRotationNeverTurnsAMissIntoAHit drives far more pairs than the memo
// holds through it. Eviction may cost a re-verification; it must never let a
// pair through that the key would reject, and the memo must stay bounded.
func TestMemoRotationNeverTurnsAMissIntoAHit(t *testing.T) {
	const capacity = 4
	// The keyed-hash signer keeps 200 signatures cheap; the memo does not
	// care what it wraps.
	signer, err := NewHMACSigner([]byte("memo-rotation"), 64)
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingVerifier{Verifier: signer.Verifier()}
	memo := newMemoVerifier(inner, capacity)

	msg := func(i int) []byte { return []byte(fmt.Sprintf("term-root %d", i)) }
	sigs := make([][]byte, 200)
	for i := range sigs {
		sigs[i] = mustSign(t, signer, msg(i))
	}
	for i := range sigs {
		if err := memo.Verify(msg(i), sigs[i]); err != nil {
			t.Fatal(err)
		}
		if n := len(memo.cur) + len(memo.old); n > 2*capacity {
			t.Fatalf("memo holds %d entries past a capacity of %d per generation", n, capacity)
		}
		// A pair nobody signed — this message under the previous one's
		// signature — is rejected however the memo has rotated.
		if i > 0 {
			if err := memo.Verify(msg(i), sigs[i-1]); !errors.Is(err, ErrBadSignature) {
				t.Fatalf("after %d rotations' worth of inserts: mismatched pair accepted (%v)", i, err)
			}
		}
	}
	// The oldest pair was evicted long ago: verifying it again is a real
	// check, not a stale hit and not a failure.
	before := inner.calls.Load()
	if err := memo.Verify(msg(0), sigs[0]); err != nil {
		t.Fatal(err)
	}
	if inner.calls.Load() != before+1 {
		t.Fatal("an evicted pair was answered from the memo")
	}
	// A pair in use is promoted on a hit in the old generation and survives
	// the rotations the others cause.
	before = inner.calls.Load()
	for i := 1; i < 40; i++ {
		if err := memo.Verify(msg(0), sigs[0]); err != nil {
			t.Fatal(err)
		}
		if err := memo.Verify(msg(i), sigs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.calls.Load() - before; got != 39 {
		t.Fatalf("%d real checks for 39 cold pairs interleaved with one hot pair", got)
	}
}

func TestMemoConcurrentVerify(t *testing.T) {
	memo, inner, signer := memoFixture(t, 8) // small: rotation races with lookups too
	const pairs = 24
	msgs, sigs := make([][]byte, pairs), make([][]byte, pairs)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("concurrent %d", i))
		sigs[i] = mustSign(t, signer, msgs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := range msgs {
					j := (i + g) % pairs
					if err := memo.Verify(msgs[j], sigs[j]); err != nil {
						t.Errorf("honest pair %d rejected: %v", j, err)
					}
					if err := memo.Verify(msgs[j], sigs[(j+1)%pairs]); !errors.Is(err, ErrBadSignature) {
						t.Errorf("mismatched pair %d accepted: %v", j, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	verified, hits := memo.TakeCounts()
	const honest = 8 * 20 * pairs
	if verified+hits != honest {
		t.Fatalf("verified %d + hits %d, want %d honest checks", verified, hits, honest)
	}
	// Every mismatched pair, and every honest pair that was not a hit,
	// reached the key.
	if got := inner.calls.Load(); got != int64(honest+verified) {
		t.Fatalf("%d real checks, want %d mismatched + %d verified", got, honest, verified)
	}
}
