package shard

import (
	"encoding/binary"
	"errors"
	"fmt"

	"authtext/internal/binx"
	"authtext/internal/sig"
)

// SetManifest is the owner-published descriptor of a shard set: how many
// shards exist, how documents were assigned, and a digest pinning every
// shard's (individually signed) manifest and local→global document map.
// The owner signs the canonical encoding once; a client that verifies the
// signature knows the exact shard population, so a server cannot drop,
// duplicate, or substitute shards without detection.
type SetManifest struct {
	// K is the shard count.
	K uint32
	// Partitioner records the assignment policy (informational for
	// clients; the binding facts are the digests below).
	Partitioner Partitioner
	// GlobalN is the total document count across shards.
	GlobalN uint32
	// HashSize is the digest size used for the pinned digests (matches the
	// shards' manifest HashSize).
	HashSize uint8
	// ShardDocs is the per-shard document count n_i (Σ n_i = GlobalN).
	ShardDocs []uint32
	// ManifestDigests[i] = h(canonical encoding of shard i's manifest).
	ManifestDigests [][]byte
	// DocMapDigests[i] = h(EncodeDocMap(local→global map of shard i)).
	DocMapDigests [][]byte
	// Generation numbers the publication state of a live shard set
	// (docs/UPDATES.md): 0 for static sets, ≥ 1 for live ones. Signed
	// like every other field; shards rebuilt at set generation g carry
	// g in their own manifests, shards reused from an earlier generation
	// keep theirs — the binding facts stay the per-shard digests above.
	Generation uint64
}

// setManifestDomain domain-separates the signature from every other signed
// message in the system.
const setManifestDomain = "authtext/shardset/v1"

// Encode produces the canonical signed encoding of the set manifest.
func (m *SetManifest) Encode() []byte {
	b := make([]byte, 0, len(setManifestDomain)+16+int(m.K)*(4+2*int(m.HashSize)))
	b = append(b, setManifestDomain...)
	b = binary.BigEndian.AppendUint32(b, m.K)
	b = append(b, uint8(m.Partitioner))
	b = binary.BigEndian.AppendUint32(b, m.GlobalN)
	b = append(b, m.HashSize)
	for i := 0; i < int(m.K); i++ {
		b = binary.BigEndian.AppendUint32(b, m.ShardDocs[i])
		b = append(b, m.ManifestDigests[i]...)
		b = append(b, m.DocMapDigests[i]...)
	}
	// Trailing extension, mirroring core.Manifest: static sets
	// (generation 0) keep the original encoding byte for byte.
	if m.Generation != 0 {
		b = binary.BigEndian.AppendUint64(b, m.Generation)
	}
	return b
}

// Validate reports the first structural problem (nil for a well-formed
// manifest).
func (m *SetManifest) Validate() error {
	if m == nil {
		return errors.New("shard: nil set manifest")
	}
	if m.K < 1 {
		return errors.New("shard: set manifest has zero shards")
	}
	if !m.Partitioner.valid() {
		return fmt.Errorf("shard: set manifest has unknown partitioner %d", m.Partitioner)
	}
	if m.HashSize < 8 || m.HashSize > 32 {
		return fmt.Errorf("shard: set manifest hash size %d outside [8,32]", m.HashSize)
	}
	if len(m.ShardDocs) != int(m.K) || len(m.ManifestDigests) != int(m.K) || len(m.DocMapDigests) != int(m.K) {
		return errors.New("shard: set manifest table sizes disagree with shard count")
	}
	var total uint64
	for i := 0; i < int(m.K); i++ {
		if m.ShardDocs[i] == 0 {
			return fmt.Errorf("shard: set manifest shard %d is empty", i)
		}
		total += uint64(m.ShardDocs[i])
		if len(m.ManifestDigests[i]) != int(m.HashSize) || len(m.DocMapDigests[i]) != int(m.HashSize) {
			return fmt.Errorf("shard: set manifest digest %d has the wrong size", i)
		}
	}
	if total != uint64(m.GlobalN) {
		return fmt.Errorf("shard: set manifest shard sizes sum to %d, global count is %d", total, m.GlobalN)
	}
	return nil
}

// DecodeSetManifest parses a canonical encoding. The input is untrusted:
// counts are validated against the available bytes before allocation.
func DecodeSetManifest(b []byte) (*SetManifest, error) {
	r := binx.NewReader(b)
	if string(r.Take(len(setManifestDomain))) != setManifestDomain {
		return nil, errors.New("shard: not a set manifest")
	}
	m := &SetManifest{K: r.U32(), Partitioner: Partitioner(r.U8()), GlobalN: r.U32(), HashSize: r.U8()}
	k := r.Count(int(m.K), 4+2*int(m.HashSize))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("shard: set manifest: %w", err)
	}
	if k < 1 {
		return nil, errors.New("shard: set manifest has zero shards")
	}
	m.ShardDocs = make([]uint32, k)
	m.ManifestDigests = make([][]byte, k)
	m.DocMapDigests = make([][]byte, k)
	for i := 0; i < k; i++ {
		m.ShardDocs[i] = r.U32()
		m.ManifestDigests[i] = r.Copy(int(m.HashSize))
		m.DocMapDigests[i] = r.Copy(int(m.HashSize))
	}
	if r.Len() == 8 {
		if m.Generation = r.U64(); m.Generation == 0 {
			return nil, errors.New("shard: non-canonical zero generation field")
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("shard: set manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// VerifySetManifest checks the owner's signature over the set manifest.
func VerifySetManifest(m *SetManifest, sigBytes []byte, v sig.Verifier) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if err := v.Verify(m.Encode(), sigBytes); err != nil {
		return fmt.Errorf("shard: set manifest signature: %w", err)
	}
	return nil
}

// EncodeDocMap canonically encodes a local→global document-ID map (the
// digest of this encoding is pinned in the set manifest).
func EncodeDocMap(m []uint32) []byte {
	b := make([]byte, 0, 4+4*len(m))
	b = binary.BigEndian.AppendUint32(b, uint32(len(m)))
	for _, g := range m {
		b = binary.BigEndian.AppendUint32(b, g)
	}
	return b
}

// DecodeDocMap parses an EncodeDocMap encoding.
func DecodeDocMap(b []byte) ([]uint32, error) {
	r := binx.NewReader(b)
	out := make([]uint32, r.Count(int(r.U32()), 4))
	for i := range out {
		out[i] = r.U32()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("shard: doc map: %w", err)
	}
	return out, nil
}
