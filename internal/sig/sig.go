package sig

import (
	"crypto"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
)

// DefaultHashSize is the digest size in bytes (128 bits, Table 1).
const DefaultHashSize = 16

// DefaultRSABits is the default RSA modulus size (1024 bits, Table 1).
const DefaultRSABits = 1024

// Hasher computes truncated SHA-256 digests of a fixed size.
// The zero value is not usable; construct with NewHasher.
type Hasher struct {
	size int
}

// NewHasher returns a Hasher producing size-byte digests.
// size must be in [8, 32]; the paper's default is 16 (128 bits).
func NewHasher(size int) (Hasher, error) {
	if size < 8 || size > sha256.Size {
		return Hasher{}, fmt.Errorf("sig: hash size %d outside [8,32]", size)
	}
	return Hasher{size: size}, nil
}

// MustHasher is NewHasher for statically known sizes; it panics on error.
func MustHasher(size int) Hasher {
	h, err := NewHasher(size)
	if err != nil {
		panic(err)
	}
	return h
}

// Size returns the digest size in bytes.
func (h Hasher) Size() int { return h.size }

// Sum returns the truncated SHA-256 digest of data.
func (h Hasher) Sum(data []byte) []byte {
	d := sha256.Sum256(data)
	out := make([]byte, h.size)
	copy(out, d[:])
	return out
}

// SumConcat hashes the concatenation of the given byte slices without
// materialising the concatenation.
func (h Hasher) SumConcat(parts ...[]byte) []byte {
	st := sha256.New()
	for _, p := range parts {
		st.Write(p)
	}
	d := st.Sum(nil)
	return d[:h.size]
}

// Signer produces signatures over messages. Sign must be safe for concurrent
// use: the owner's build signs from every core (engine.BuildCollection), and
// shard builds run side by side on one signer.
type Signer interface {
	// Sign returns a signature over msg.
	Sign(msg []byte) ([]byte, error)
	// Verifier returns the verification half of the key pair.
	Verifier() Verifier
	// Size returns the signature size in bytes.
	Size() int
}

// Verifier checks signatures produced by the corresponding Signer.
type Verifier interface {
	// Verify returns nil iff sigBytes is a valid signature over msg.
	Verify(msg, sigBytes []byte) error
	// Size returns the signature size in bytes.
	Size() int
}

// ErrBadSignature is returned when signature verification fails.
var ErrBadSignature = errors.New("sig: signature verification failed")

// ---------------------------------------------------------------------------
// RSA

// RSASigner signs with RSA PKCS#1 v1.5 over SHA-256.
type RSASigner struct {
	key *rsa.PrivateKey
}

// NewRSASigner generates a fresh RSA key of the given modulus size.
func NewRSASigner(bits int) (*RSASigner, error) {
	if bits < 512 {
		return nil, fmt.Errorf("sig: rsa modulus %d too small", bits)
	}
	key, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("sig: rsa keygen: %w", err)
	}
	return &RSASigner{key: key}, nil
}

// Sign implements Signer.
func (s *RSASigner) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	return rsa.SignPKCS1v15(rand.Reader, s.key, crypto.SHA256, digest[:])
}

// Verifier implements Signer.
func (s *RSASigner) Verifier() Verifier { return &RSAVerifier{pub: &s.key.PublicKey} }

// Size implements Signer.
func (s *RSASigner) Size() int { return s.key.Size() }

// RSAVerifier verifies RSA PKCS#1 v1.5 signatures.
type RSAVerifier struct {
	pub *rsa.PublicKey
}

// Verify implements Verifier.
func (v *RSAVerifier) Verify(msg, sigBytes []byte) error {
	digest := sha256.Sum256(msg)
	if err := rsa.VerifyPKCS1v15(v.pub, crypto.SHA256, digest[:], sigBytes); err != nil {
		return ErrBadSignature
	}
	return nil
}

// Size implements Verifier.
func (v *RSAVerifier) Size() int { return v.pub.Size() }

// Marshal encodes the public key in PKIX DER form, for publication.
func (v *RSAVerifier) Marshal() ([]byte, error) {
	return x509.MarshalPKIXPublicKey(v.pub)
}

// ParseRSAVerifier decodes a PKIX DER public key produced by Marshal.
func ParseRSAVerifier(der []byte) (*RSAVerifier, error) {
	pub, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("sig: parse public key: %w", err)
	}
	rpub, ok := pub.(*rsa.PublicKey)
	if !ok {
		return nil, errors.New("sig: public key is not RSA")
	}
	return &RSAVerifier{pub: rpub}, nil
}

// ---------------------------------------------------------------------------
// Keyed-hash mock signer (experiments only)

// HMACSigner is a fast Signer for large-scale experiment builds. It emits
// HMAC-SHA256 tags padded to an RSA-compatible size so that VO sizes match
// the RSA configuration byte-for-byte. It is a shared-key scheme and is NOT
// publicly verifiable: anyone holding the key (including the search engine
// in a real deployment) could forge signatures. Use only for benchmarking;
// the facade and the examples default to RSA.
type HMACSigner struct {
	key  []byte
	size int
}

// NewHMACSigner creates a keyed-hash signer whose signatures are size bytes
// (size >= 32; the tag is padded with zeros to size).
func NewHMACSigner(key []byte, size int) (*HMACSigner, error) {
	if size < sha256.Size {
		return nil, fmt.Errorf("sig: hmac signature size %d < %d", size, sha256.Size)
	}
	if len(key) == 0 {
		return nil, errors.New("sig: empty hmac key")
	}
	k := make([]byte, len(key))
	copy(k, key)
	return &HMACSigner{key: k, size: size}, nil
}

// Sign implements Signer.
func (s *HMACSigner) Sign(msg []byte) ([]byte, error) {
	mac := hmac.New(sha256.New, s.key)
	mac.Write(msg)
	out := make([]byte, s.size)
	copy(out, mac.Sum(nil))
	return out, nil
}

// Verifier implements Signer.
func (s *HMACSigner) Verifier() Verifier { return &hmacVerifier{s} }

// Size implements Signer.
func (s *HMACSigner) Size() int { return s.size }

type hmacVerifier struct{ s *HMACSigner }

func (v *hmacVerifier) Verify(msg, sigBytes []byte) error {
	want, _ := v.s.Sign(msg)
	if !hmac.Equal(want, sigBytes) {
		return ErrBadSignature
	}
	return nil
}

func (v *hmacVerifier) Size() int { return v.s.size }
