package sig

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestHasherSizes(t *testing.T) {
	for _, size := range []int{8, 16, 20, 32} {
		h, err := NewHasher(size)
		if err != nil {
			t.Fatalf("NewHasher(%d): %v", size, err)
		}
		if got := len(h.Sum([]byte("hello"))); got != size {
			t.Errorf("size %d: digest length %d", size, got)
		}
	}
}

func TestHasherRejectsBadSizes(t *testing.T) {
	for _, size := range []int{-1, 0, 7, 33, 100} {
		if _, err := NewHasher(size); err == nil {
			t.Errorf("NewHasher(%d) succeeded, want error", size)
		}
	}
}

func TestMustHasherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustHasher(0) did not panic")
		}
	}()
	MustHasher(0)
}

func TestSumConcatMatchesSum(t *testing.T) {
	h := MustHasher(16)
	a, b, c := []byte("one"), []byte("two"), []byte("three")
	joined := append(append(append([]byte{}, a...), b...), c...)
	if !bytes.Equal(h.SumConcat(a, b, c), h.Sum(joined)) {
		t.Fatal("SumConcat differs from Sum of concatenation")
	}
}

func TestSumDeterministicAndDistinct(t *testing.T) {
	h := MustHasher(16)
	if !bytes.Equal(h.Sum([]byte("x")), h.Sum([]byte("x"))) {
		t.Fatal("hash not deterministic")
	}
	if bytes.Equal(h.Sum([]byte("x")), h.Sum([]byte("y"))) {
		t.Fatal("distinct inputs hash equal")
	}
}

func TestRSASignVerify(t *testing.T) {
	s, err := NewRSASigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 128 {
		t.Fatalf("RSA-1024 signature size = %d, want 128", s.Size())
	}
	msg := []byte("the query result is correct")
	sigBytes, err := s.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigBytes) != 128 {
		t.Fatalf("signature length %d, want 128", len(sigBytes))
	}
	v := s.Verifier()
	if err := v.Verify(msg, sigBytes); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	if err := v.Verify([]byte("tampered"), sigBytes); err == nil {
		t.Fatal("tampered message accepted")
	}
	bad := append([]byte{}, sigBytes...)
	bad[0] ^= 0xff
	if err := v.Verify(msg, bad); err == nil {
		t.Fatal("tampered signature accepted")
	}
}

func TestRSAMarshalRoundTrip(t *testing.T) {
	s, err := NewRSASigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("published key")
	sigBytes, err := s.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	der, err := s.Verifier().(*RSAVerifier).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ParseRSAVerifier(der)
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.Verify(msg, sigBytes); err != nil {
		t.Fatalf("round-tripped verifier rejected signature: %v", err)
	}
}

func TestParseRSAVerifierRejectsGarbage(t *testing.T) {
	if _, err := ParseRSAVerifier([]byte("not a key")); err == nil {
		t.Fatal("garbage key parsed")
	}
}

func TestRSARejectsTinyKeys(t *testing.T) {
	if _, err := NewRSASigner(256); err == nil {
		t.Fatal("256-bit RSA accepted")
	}
}

func TestHMACSignVerify(t *testing.T) {
	s, err := NewHMACSigner([]byte("secret"), 128)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 128 {
		t.Fatalf("size = %d, want 128", s.Size())
	}
	msg := []byte("fast path")
	sigBytes, err := s.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigBytes) != 128 {
		t.Fatalf("signature length %d, want 128", len(sigBytes))
	}
	v := s.Verifier()
	if err := v.Verify(msg, sigBytes); err != nil {
		t.Fatal(err)
	}
	if err := v.Verify([]byte("other"), sigBytes); err == nil {
		t.Fatal("tampered message accepted")
	}
}

func TestHMACRejectsBadConfig(t *testing.T) {
	if _, err := NewHMACSigner(nil, 128); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := NewHMACSigner([]byte("k"), 16); err == nil {
		t.Fatal("size below tag length accepted")
	}
}

func TestHMACSignaturePropertyDistinctMessages(t *testing.T) {
	s, err := NewHMACSigner([]byte("property"), 32)
	if err != nil {
		t.Fatal(err)
	}
	v := s.Verifier()
	f := func(a, b []byte) bool {
		sa, err := s.Sign(a)
		if err != nil {
			return false
		}
		if v.Verify(a, sa) != nil {
			return false
		}
		if bytes.Equal(a, b) {
			return true
		}
		return v.Verify(b, sa) != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSignDeterministic: both signers sign one message to the same bytes
// every time, so an owner that re-signs an unchanged message reproduces
// the signature a client already verified byte for byte.
func TestSignDeterministic(t *testing.T) {
	rsaSigner, err := NewRSASigner(1024)
	if err != nil {
		t.Fatal(err)
	}
	hmacSigner, err := NewHMACSigner([]byte("deterministic"), 128)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("an unchanged term list")
	for name, s := range map[string]Signer{"rsa": rsaSigner, "hmac": hmacSigner} {
		first, err := s.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		second, err := s.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: one message signed to two different signatures", name)
		}
	}
}
