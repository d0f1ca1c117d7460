package authtext

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"authtext/internal/core"
	"authtext/internal/httpapi"
	"authtext/internal/shard"
	"authtext/internal/sig"
)

// Client export formats: everything a user needs to verify results, in one
// self-contained blob the owner can publish out of band (web page, package
// registry, smart card). The magic tells the two apart.
//
// "ATCX", a bare collection — the signed manifest and the RSA public key:
//
//	magic "ATCX" | u16 len + manifest bytes | u16 len + manifest
//	signature | u16 len + PKIX public key DER
//
// "ATSX", a shard set — the signed set manifest, the public key, every
// shard's signed manifest and its local→global document map:
//
//	magic "ATSX" | u16 version
//	u32 len + set-manifest encoding | u32 len + set-manifest signature
//	u8 verifier kind | u32 len + verifier encoding
//	per shard: u32 len + shard manifest encoding | u32 len + shard
//	           manifest signature | u32 len + doc-map encoding
//
// Unlike ATCX, ATSX uses sig.MarshalVerifier, so fast-signer (HMAC) sets
// export too — with the same caveat as snapshots: the HMAC "public" half is
// the shared key, benchmarking only.

const (
	exportMagic          = "ATCX"
	shardedExportMagic   = "ATSX"
	shardedExportVersion = 1
)

// exportFormat tells the two export formats apart by their magic.
func exportFormat(export []byte) string {
	switch {
	case bytes.HasPrefix(export, []byte(exportMagic)):
		return httpapi.FormatATCX
	case bytes.HasPrefix(export, []byte(shardedExportMagic)):
		return httpapi.FormatATSX
	}
	return "unknown"
}

// ExportClient serialises the verification material for distribution to
// users: ATCX for a bare collection (which requires the default RSA signer —
// the keyed-hash benchmark signer has no public half to export), ATSX for a
// shard set.
func (o *Owner) ExportClient() ([]byte, error) { return o.Client().Export() }

// ExportClient returns the same blob for a serving collection — a
// snapshot-booted Server (which has no Owner) uses it to publish the
// manifest endpoint, guaranteed consistent with what it actually opened.
func (s *Server) ExportClient() ([]byte, error) { return s.v.client().Export() }

// Export serialises this client's verification material — the same blob
// ExportClient produces.
func (c *Client) Export() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.set != nil {
		kind, pub, err := sig.MarshalVerifier(c.verifier.Inner())
		if err != nil {
			return nil, fmt.Errorf("authtext: %w", err)
		}
		out := []byte(shardedExportMagic)
		out = binary.BigEndian.AppendUint16(out, shardedExportVersion)
		out = appendChunk32(out, c.set.manifest.Encode())
		out = appendChunk32(out, c.manifestSig)
		out = append(out, kind)
		out = appendChunk32(out, pub)
		for i, sc := range c.set.shards {
			out = appendChunk32(out, sc.manifest.Encode())
			out = appendChunk32(out, sc.manifestSig)
			out = appendChunk32(out, shard.EncodeDocMap(c.set.docMaps[i]))
		}
		return out, nil
	}
	rsaVerifier, ok := c.verifier.Inner().(*sig.RSAVerifier)
	if !ok {
		return nil, errors.New("authtext: only RSA-signed collections can be exported")
	}
	der, err := rsaVerifier.Marshal()
	if err != nil {
		return nil, err
	}
	enc := c.manifest.Encode()
	out := make([]byte, 0, len(exportMagic)+6+len(enc)+len(c.manifestSig)+len(der))
	out = append(out, exportMagic...)
	out = appendChunk(out, enc)
	out = appendChunk(out, c.manifestSig)
	out = appendChunk(out, der)
	return out, nil
}

func appendChunk(b, chunk []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(chunk)))
	return append(b, chunk...)
}

func appendChunk32(b, chunk []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(chunk)))
	return append(b, chunk...)
}

// shardedExport is the content of an ATSX blob: what a shard set's client
// holds.
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
	smRaw := r.chunk(4)
	smSig := r.chunk(4)
	kind := r.u8()
	pub := r.chunk(4)
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
		mRaw := r.chunk(4)
		mSig := r.chunk(4)
		dmRaw := r.chunk(4)
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
		ex.shardSigs[i] = mSig
		ex.docMaps[i] = dm
	}
	if !r.empty() {
		return nil, errors.New("authtext: trailing bytes in sharded client export")
	}
	return ex, nil
}

// splitClientExport copies an ATCX blob's three chunks out: manifest
// encoding, manifest signature, PKIX public key DER.
func splitClientExport(data []byte) (manifestRaw, sigRaw, keyDER []byte, err error) {
	r := chunkReader{b: data}
	if !r.magic(exportMagic) {
		return nil, nil, nil, errors.New("authtext: not a client export")
	}
	manifestRaw, sigRaw, keyDER = r.chunk(2), r.chunk(2), r.chunk(2)
	if r.err != nil {
		return nil, nil, nil, fmt.Errorf("authtext: %w", r.err)
	}
	if !r.empty() {
		return nil, nil, nil, errors.New("authtext: trailing bytes in client export")
	}
	return manifestRaw, sigRaw, keyDER, nil
}

// NewClientFromExport reconstructs a Client from an ExportClient blob of
// either format. Every signature (and, for a shard set, every digest the set
// manifest pins) is checked against the embedded public key before the
// client is returned, so a tampered blob is rejected here rather than at
// first use.
func NewClientFromExport(data []byte) (*Client, error) {
	if exportFormat(data) == httpapi.FormatATSX {
		ex, err := parseShardedExport(data)
		if err != nil {
			return nil, err
		}
		return newSetClient(ex, true), nil
	}
	manifestRaw, sigRaw, keyDER, err := splitClientExport(data)
	if err != nil {
		return nil, err
	}
	manifest, err := core.DecodeManifest(manifestRaw)
	if err != nil {
		return nil, fmt.Errorf("authtext: %w", err)
	}
	verifier, err := sig.ParseRSAVerifier(keyDER)
	if err != nil {
		return nil, err
	}
	if err := core.VerifyManifest(manifest, sigRaw, verifier); err != nil {
		return nil, err
	}
	return newClient(manifest, sigRaw, verifier, true), nil
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

// chunk reads a length prefix of the given width in bytes (2 in ATCX, 4 in
// ATSX) and returns a copy of the chunk it announces.
func (r *chunkReader) chunk(width int) []byte {
	v := r.take(width)
	if v == nil {
		return nil
	}
	n := 0
	for _, b := range v { // big-endian
		n = n<<8 | int(b)
	}
	return append([]byte(nil), r.take(n)...)
}

func (r *chunkReader) empty() bool { return r.err == nil && r.off == len(r.b) }
