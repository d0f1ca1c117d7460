package authtext

import (
	"encoding/binary"
	"errors"
	"fmt"

	"authtext/internal/core"
	"authtext/internal/sig"
)

// Client export format: everything a user needs to verify results, in one
// self-contained blob the owner can publish out of band (web page, package
// registry, smart card): the signed manifest and the RSA public key.
//
// Layout: magic "ATCX" | u16 len + manifest bytes | u16 len + manifest
// signature | u16 len + PKIX public key DER.

const exportMagic = "ATCX"

// ExportClient serialises the verification material for distribution to
// users. It requires the default RSA signer (the keyed-hash benchmark
// signer has no public half to export).
func (o *Owner) ExportClient() ([]byte, error) {
	return o.Client().Export()
}

// Export serialises this client's verification material as an ATCX blob —
// the same format ExportClient produces. It lets a snapshot-booted server
// (which has a Client but no Owner) publish the manifest bootstrap
// endpoint. RSA-verified clients only.
func (c *Client) Export() ([]byte, error) {
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

// splitClientExport slices an ATCX blob into its three chunks: manifest
// encoding, manifest signature, PKIX public key DER.
func splitClientExport(data []byte) (manifestRaw, sigRaw, keyDER []byte, err error) {
	if len(data) < len(exportMagic) || string(data[:len(exportMagic)]) != exportMagic {
		return nil, nil, nil, errors.New("authtext: not a client export")
	}
	rest := data[len(exportMagic):]
	chunks := make([][]byte, 3)
	for i := range chunks {
		if len(rest) < 2 {
			return nil, nil, nil, errors.New("authtext: truncated client export")
		}
		n := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) < n {
			return nil, nil, nil, errors.New("authtext: truncated client export")
		}
		chunks[i] = rest[:n]
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, nil, nil, errors.New("authtext: trailing bytes in client export")
	}
	return chunks[0], chunks[1], chunks[2], nil
}

// NewClientFromExport reconstructs a Client from an ExportClient blob. The
// manifest signature is checked against the embedded public key before the
// client is returned, so a tampered blob is rejected here rather than at
// first use.
func NewClientFromExport(data []byte) (*Client, error) {
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
	sigCopy := append([]byte(nil), sigRaw...)
	if err := core.VerifyManifest(manifest, sigCopy, verifier); err != nil {
		return nil, err
	}
	return newClient(manifest, sigCopy, verifier, true), nil
}
