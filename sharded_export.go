package authtext

import (
	"encoding/binary"
	"errors"
	"fmt"

	"authtext/internal/core"
	"authtext/internal/shard"
	"authtext/internal/sig"
)

// Sharded client export format ("ATSX"): everything a user needs to verify
// fanned-out results, in one self-contained blob the owner publishes out
// of band — the signed set manifest, the public key, every shard's signed
// manifest and its local→global document map.
//
// Layout:
//
//	magic "ATSX" | u16 version
//	u32 len + set-manifest encoding | u32 len + set-manifest signature
//	u8 verifier kind | u32 len + verifier encoding
//	per shard: u32 len + shard manifest encoding | u32 len + shard
//	           manifest signature | u32 len + doc-map encoding
//
// Unlike ATCX this format uses sig.MarshalVerifier, so fast-signer (HMAC)
// sets export too — with the same caveat as snapshots: the HMAC "public"
// half is the shared key, benchmarking only.

const shardedExportMagic = "ATSX"

const shardedExportVersion = 1

// ExportClient serialises the sharded verification material for
// distribution to users.
func (o *ShardedOwner) ExportClient() ([]byte, error) { return exportSet(o.set) }

// ExportClient returns the same ATSX blob for a serving set — a
// snapshot-booted ShardedServer (which has no ShardedOwner) uses it to
// publish /v1/shards/manifest, guaranteed consistent with the shards it
// actually opened.
func (s *ShardedServer) ExportClient() ([]byte, error) { return exportSet(s.set) }

func exportSet(set *shard.Set) ([]byte, error) {
	kind, pub, err := sig.MarshalVerifier(set.Verifier())
	if err != nil {
		return nil, fmt.Errorf("authtext: %w", err)
	}
	sm, smSig := set.Manifest()
	out := []byte(shardedExportMagic)
	out = binary.BigEndian.AppendUint16(out, shardedExportVersion)
	out = appendChunk32(out, sm.Encode())
	out = appendChunk32(out, smSig)
	out = append(out, kind)
	out = appendChunk32(out, pub)
	for i := 0; i < set.K(); i++ {
		m, msig := set.Col(i).Manifest()
		out = appendChunk32(out, m.Encode())
		out = appendChunk32(out, msig)
		out = appendChunk32(out, shard.EncodeDocMap(set.DocMap(i)))
	}
	return out, nil
}

func appendChunk32(b, chunk []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(chunk)))
	return append(b, chunk...)
}

// shardedExport is the parsed, fully validated content of an ATSX blob.
type shardedExport struct {
	manifest    *shard.SetManifest
	manifestSig []byte
	verifier    sig.Verifier
	shardMans   []*core.Manifest
	shardSigs   [][]byte
	docMaps     [][]uint32
}

// parseShardedExport decodes and verifies an ATSX blob: the set-manifest
// signature, every shard manifest's signature, and every digest pinned by
// the set manifest. A tampered blob is rejected here rather than at first
// use.
func parseShardedExport(data []byte) (*shardedExport, error) {
	r := chunkReader{b: data}
	if !r.magic(shardedExportMagic) {
		return nil, errors.New("authtext: not a sharded client export")
	}
	if v := r.u16(); r.err == nil && v != shardedExportVersion {
		return nil, fmt.Errorf("authtext: sharded export version %d not supported (this build speaks %d)", v, shardedExportVersion)
	}
	smRaw := r.chunk()
	smSig := r.chunk()
	kind := r.u8()
	pub := r.chunk()
	if r.err != nil {
		return nil, fmt.Errorf("authtext: %w", r.err)
	}
	sm, err := shard.DecodeSetManifest(smRaw)
	if err != nil {
		return nil, fmt.Errorf("authtext: %w", err)
	}
	verifier, err := sig.ParseVerifier(kind, pub)
	if err != nil {
		return nil, fmt.Errorf("authtext: %w", err)
	}
	if err := shard.VerifySetManifest(sm, smSig, verifier); err != nil {
		return nil, fmt.Errorf("authtext: %w", err)
	}
	hasher, err := sig.NewHasher(int(sm.HashSize))
	if err != nil {
		return nil, fmt.Errorf("authtext: %w", err)
	}
	ex := &shardedExport{
		manifest:    sm,
		manifestSig: smSig,
		verifier:    verifier,
		shardMans:   make([]*core.Manifest, sm.K),
		shardSigs:   make([][]byte, sm.K),
		docMaps:     make([][]uint32, sm.K),
	}
	for i := 0; i < int(sm.K); i++ {
		mRaw := r.chunk()
		mSig := r.chunk()
		dmRaw := r.chunk()
		if r.err != nil {
			return nil, fmt.Errorf("authtext: sharded export shard %d: %w", i, r.err)
		}
		if string(hasher.Sum(mRaw)) != string(sm.ManifestDigests[i]) {
			return nil, fmt.Errorf("authtext: sharded export shard %d manifest does not match the set manifest", i)
		}
		if string(hasher.Sum(dmRaw)) != string(sm.DocMapDigests[i]) {
			return nil, fmt.Errorf("authtext: sharded export shard %d doc map does not match the set manifest", i)
		}
		m, err := core.DecodeManifest(mRaw)
		if err != nil {
			return nil, fmt.Errorf("authtext: sharded export shard %d: %w", i, err)
		}
		if err := core.VerifyManifest(m, mSig, verifier); err != nil {
			return nil, fmt.Errorf("authtext: sharded export shard %d: %w", i, err)
		}
		dm, err := shard.DecodeDocMap(dmRaw)
		if err != nil {
			return nil, fmt.Errorf("authtext: sharded export shard %d: %w", i, err)
		}
		if len(dm) != int(sm.ShardDocs[i]) {
			return nil, fmt.Errorf("authtext: sharded export shard %d doc map has %d entries for %d documents", i, len(dm), sm.ShardDocs[i])
		}
		ex.shardMans[i] = m
		ex.shardSigs[i] = append([]byte(nil), mSig...)
		ex.docMaps[i] = dm
	}
	if !r.empty() {
		return nil, errors.New("authtext: trailing bytes in sharded client export")
	}
	return ex, nil
}

// NewShardedClientFromExport reconstructs a ShardedClient from an
// ExportClient blob. All signatures and digests are checked before the
// client is returned.
func NewShardedClientFromExport(data []byte) (*ShardedClient, error) {
	ex, err := parseShardedExport(data)
	if err != nil {
		return nil, err
	}
	c := &ShardedClient{
		manifest:    ex.manifest,
		manifestSig: ex.manifestSig,
		verifier:    sig.Memoize(ex.verifier),
		shards:      make([]*Client, ex.manifest.K),
		docMaps:     ex.docMaps,
	}
	for i := range c.shards {
		// Verified by parseShardedExport.
		c.shards[i] = newClient(ex.shardMans[i], ex.shardSigs[i], c.verifier, true)
	}
	// Set manifest verified by parseShardedExport.
	c.checked = true
	c.maxGen = ex.manifest.Generation
	return c, nil
}

// chunkReader is a bounds-checked reader over an export blob.
type chunkReader struct {
	b   []byte
	off int
	err error
}

func (r *chunkReader) magic(m string) bool {
	if len(r.b) < len(m) || string(r.b[:len(m)]) != m {
		return false
	}
	r.off = len(m)
	return true
}

func (r *chunkReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) || r.off+n < r.off {
		r.err = errors.New("truncated export")
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *chunkReader) u8() uint8 {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (r *chunkReader) u16() uint16 {
	v := r.take(2)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint16(v)
}

func (r *chunkReader) chunk() []byte {
	v := r.take(4)
	if v == nil {
		return nil
	}
	n := int(binary.BigEndian.Uint32(v))
	c := r.take(n)
	if c == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, c)
	return out
}

func (r *chunkReader) empty() bool { return r.err == nil && r.off == len(r.b) }
