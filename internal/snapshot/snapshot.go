// Package snapshot persists a fully built authenticated collection to a
// versioned, section-based binary format, and reopens it without touching
// the signer — the owner builds and signs once, then any number of
// (untrusted) servers warm-start from the artifact (the publication model
// of §2 of the paper).
//
// Container layout (docs/SNAPSHOT.md has the full specification):
//
//	header:  magic "ATSN" | u16 version | u16 section count
//	section: u16 id | u16 reserved(0) | u32 crc32(payload) | u64 length | payload
//
// Sections appear exactly once each, in ascending id order, with nothing
// after the last. Every payload carries an IEEE CRC-32, so accidental
// corruption fails fast at open; deliberate tampering is the client's
// manifest signature check's problem, not ours — a snapshot that decodes
// cleanly but lies about its contents produces verification objects that
// clients reject.
//
// Decoding is hostile-input-safe: the format version is checked before
// anything else, every length field is checked against the bytes actually
// present, and every count inside a section is validated against the
// (signed) manifest before use.
package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"authtext/internal/binx"
	"authtext/internal/core"
	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/sig"
	"authtext/internal/store"
)

// Version is the current format version. Open rejects every other value.
const Version = 1

const magic = "ATSN"

// Section identifiers, in file order.
const (
	secManifest uint16 = 1 // manifest bytes + manifest signature
	secPubKey   uint16 = 2 // verifier kind + encoding
	secIndex    uint16 = 3 // inverted index (dictionary, lists, vectors, content)
	secStore    uint16 = 4 // device parameters + raw block contents
	secLayout   uint16 = 5 // extent tables
	secAuth     uint16 = 6 // per-list signatures, term roots, doc hashes, authority
	secStats    uint16 = 7 // space report + build statistics
)

var sectionOrder = []uint16{secManifest, secPubKey, secIndex, secStore, secLayout, secAuth, secStats}

// ErrVersion reports a well-formed header whose format version this build
// does not speak.
var ErrVersion = errors.New("snapshot: unsupported format version")

// Write serialises the collection. The output is deterministic for a given
// collection (section order is fixed and every codec is canonical).
func Write(w io.Writer, col *engine.Collection) error {
	st := col.ExportState()
	kind, pub, err := sig.MarshalVerifier(st.Verifier)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	// The index codec stores term names behind u16 lengths; refuse to emit
	// an artifact that could not be reopened rather than truncate silently.
	for t := 0; t < st.Index.M(); t++ {
		if name := st.Index.Name(index.TermID(t)); len(name) > 65535 {
			return fmt.Errorf("snapshot: term %d name is %d bytes, max 65535", t, len(name))
		}
	}

	manifest := appendSized32(nil, st.Manifest.Encode())
	manifest = appendSized32(manifest, st.ManifestSig)

	pubkey := append([]byte{kind}, appendSized32(nil, pub)...)

	idx := st.Index.AppendBinary(nil)

	dev := store.AppendParams(nil, st.StoreParams)
	dev = binary.BigEndian.AppendUint64(dev, uint64(len(st.DeviceData)))
	dev = append(dev, st.DeviceData...)

	layout := appendExtents(nil, st.Layout.Plain)
	layout = appendExtents(layout, st.Layout.ChainTRA)
	layout = appendExtents(layout, st.Layout.ChainTNRA)
	layout = appendExtents(layout, st.Layout.Doc)

	// Tables of a kind outside the variant set are nil, so they write
	// nothing: the extent tables come out empty and the term tables absent.
	var auth []byte
	if st.Manifest.DictMode {
		auth = append(auth, 0)
	} else {
		auth = append(auth, 1)
		for k := range st.TermSigs {
			for _, s := range st.TermSigs[k] {
				auth = appendSized32(auth, s)
			}
		}
	}
	for k := range st.TermRoots {
		for _, r := range st.TermRoots[k] {
			auth = append(auth, r...)
		}
	}
	for _, h := range st.DocHash {
		auth = append(auth, h...)
	}
	if st.Manifest.Boosted {
		for _, a := range st.Authority {
			auth = binary.BigEndian.AppendUint32(auth, math.Float32bits(a))
		}
	}

	stats := make([]byte, 0, 7*8+12)
	for _, v := range []int64{
		st.Space.ContentBytes, st.Space.PlainListBytes, st.Space.ChainTRABytes,
		st.Space.ChainTNRABytes, st.Space.DocRecordBytes, st.Space.TermSigBytes,
		st.Space.DeviceBytes,
	} {
		stats = binary.BigEndian.AppendUint64(stats, uint64(v))
	}
	stats = binary.BigEndian.AppendUint32(stats, uint32(st.Signatures))
	stats = binary.BigEndian.AppendUint64(stats, uint64(st.BuildTime.Nanoseconds()))

	payloads := [][]byte{manifest, pubkey, idx, dev, layout, auth, stats}

	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := make([]byte, 0, 8)
	hdr = append(hdr, magic...)
	hdr = binary.BigEndian.AppendUint16(hdr, Version)
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(payloads)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	for i, payload := range payloads {
		sh := make([]byte, 0, 16)
		sh = binary.BigEndian.AppendUint16(sh, sectionOrder[i])
		sh = binary.BigEndian.AppendUint16(sh, 0)
		sh = binary.BigEndian.AppendUint32(sh, crc32.ChecksumIEEE(payload))
		sh = binary.BigEndian.AppendUint64(sh, uint64(len(payload)))
		if _, err := bw.Write(sh); err != nil {
			return err
		}
		if _, err := bw.Write(payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Open reads a snapshot into one buffer and reconstructs the serving
// collection, which decodes in place: every structure but the manifest and
// public key aliases that buffer. Every section's CRC has matched before
// Open returns. The input is untrusted: a malformed or truncated snapshot
// errors out (never panics), and a decodable-but-tampered one produces a
// collection whose responses fail client verification.
func Open(r io.ReaderAt) (*engine.Collection, error) {
	b, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading: %w", err)
	}
	return parse(b)
}

// readAll reads r into one buffer: exactly its size when r reports one
// (Size, as *bytes.Reader and *io.SectionReader do, or Stat, as *os.File
// does), otherwise everything up to EOF.
func readAll(r io.ReaderAt) ([]byte, error) {
	size := int64(-1)
	switch s := r.(type) {
	case interface{ Size() int64 }:
		size = s.Size()
	case interface{ Stat() (os.FileInfo, error) }:
		info, err := s.Stat()
		if err != nil {
			return nil, err
		}
		size = info.Size()
	}
	if size < 0 {
		return io.ReadAll(io.NewSectionReader(r, 0, math.MaxInt64))
	}
	if uint64(size) > uint64(math.MaxInt) {
		return nil, fmt.Errorf("%d bytes exceeds the addressable size", size)
	}
	b := make([]byte, size)
	if n, err := r.ReadAt(b, 0); n < len(b) {
		return nil, err
	}
	return b, nil
}

// parse is the one container walker. It checks every section's CRC before
// decoding anything. The collection decodes in place — it aliases b, which
// must stay unmodified for as long as the collection is reachable — except
// for the manifest and public key, which are copied: the verification
// client built from them may outlive the collection.
func parse(b []byte) (*engine.Collection, error) {
	if len(b) < 8 {
		return nil, errors.New("snapshot: not a snapshot (shorter than its header)")
	}
	r := binx.NewReader(b)
	if string(r.Take(len(magic))) != magic {
		return nil, errors.New("snapshot: not a snapshot (bad magic)")
	}
	if v := r.U16(); v != Version {
		return nil, fmt.Errorf("%w: %d (this build speaks %d)", ErrVersion, v, Version)
	}
	if n := r.U16(); int(n) != len(sectionOrder) {
		return nil, fmt.Errorf("snapshot: %d sections, format v%d has %d", n, Version, len(sectionOrder))
	}
	payloads := make(map[uint16][]byte, len(sectionOrder))
	for _, wantID := range sectionOrder {
		if r.Len() < 16 {
			return nil, fmt.Errorf("snapshot: reading section header: truncated at %d", len(b)-r.Len())
		}
		id := r.U16()
		if id != wantID {
			return nil, fmt.Errorf("snapshot: section %d out of order (want %d)", id, wantID)
		}
		if r.U16() != 0 {
			return nil, fmt.Errorf("snapshot: section %d has non-zero reserved field", id)
		}
		want := r.U32()
		length := r.U64()
		if length > uint64(r.Len()) {
			return nil, fmt.Errorf("snapshot: section %d: truncated payload (declared %d bytes)", id, length)
		}
		payload := r.Take(int(length))
		if crc32.ChecksumIEEE(payload) != want {
			return nil, fmt.Errorf("snapshot: section %d fails its checksum (corrupted snapshot)", id)
		}
		payloads[id] = payload
	}
	if r.Len() != 0 {
		return nil, errors.New("snapshot: trailing bytes after last section")
	}
	return restore(payloads)
}

// restore decodes the section payloads into a serving collection.
func restore(payloads map[uint16][]byte) (*engine.Collection, error) {
	st := &engine.State{}

	// Manifest first: it is the (signed) source of truth every later
	// section is cross-checked against.
	mr := binx.NewReader(bytes.Clone(payloads[secManifest]))
	manifestRaw := sized32(&mr)
	st.ManifestSig = sized32(&mr)
	if err := done(&mr, "manifest section"); err != nil {
		return nil, err
	}
	manifest, err := core.DecodeManifest(manifestRaw)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	st.Manifest = manifest

	kr := binx.NewReader(bytes.Clone(payloads[secPubKey]))
	kind := kr.U8()
	pub := sized32(&kr)
	if err := done(&kr, "public-key section"); err != nil {
		return nil, err
	}
	st.Verifier, err = sig.ParseVerifier(kind, pub)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}

	st.Index, err = index.DecodeBinary(payloads[secIndex])
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}

	dr := binx.NewReader(payloads[secStore])
	params := dr.Take(store.ParamsEncodedSize)
	dataLen := dr.U64()
	if err := dr.Err(); err != nil {
		return nil, errors.New("snapshot: truncated store section")
	}
	st.StoreParams, err = store.DecodeParams(params)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if uint64(dr.Len()) != dataLen {
		return nil, errors.New("snapshot: store section length disagrees with device size")
	}
	st.DeviceData = dr.Take(dr.Len())

	lr := binx.NewReader(payloads[secLayout])
	st.Layout.Plain = extents(&lr)
	st.Layout.ChainTRA = extents(&lr)
	st.Layout.ChainTNRA = extents(&lr)
	st.Layout.Doc = extents(&lr)
	if err := done(&lr, "layout section"); err != nil {
		return nil, err
	}

	n, m, hashSize := int(manifest.N), int(manifest.M), int(manifest.HashSize)
	ar := binx.NewReader(payloads[secAuth])
	switch ar.U8() {
	case 0:
		if !manifest.DictMode {
			return nil, errors.New("snapshot: auth section lacks signatures outside dictionary mode")
		}
	case 1:
		if manifest.DictMode {
			return nil, errors.New("snapshot: auth section carries signatures in dictionary mode")
		}
		for _, kind := range manifest.Variants.Kinds() {
			st.TermSigs[kind-1] = sliceTable(&ar, m, -1)
		}
	default:
		return nil, errors.New("snapshot: bad signature-mode byte in auth section")
	}
	// Term tables follow the signed variant set: a kind that was not built
	// has none (so a table for one is trailing bytes).
	for _, kind := range manifest.Variants.Kinds() {
		st.TermRoots[kind-1] = sliceTable(&ar, m, hashSize)
	}
	st.DocHash = sliceTable(&ar, n, hashSize)
	if manifest.Boosted {
		// n comes from the untrusted manifest and must be backed by
		// payload bytes before it sizes anything.
		if n := ar.Count(n, 4); ar.Err() == nil {
			st.Authority = make([]float32, n)
			for d := range st.Authority {
				st.Authority[d] = ar.F32()
			}
		}
	}
	if err := done(&ar, "auth section"); err != nil {
		return nil, err
	}

	sr := binx.NewReader(payloads[secStats])
	space := [7]int64{}
	for i := range space {
		space[i] = int64(sr.U64())
	}
	st.Space = engine.SpaceReport{
		ContentBytes: space[0], PlainListBytes: space[1], ChainTRABytes: space[2],
		ChainTNRABytes: space[3], DocRecordBytes: space[4], TermSigBytes: space[5],
		DeviceBytes: space[6],
	}
	st.Signatures = int(sr.U32())
	st.BuildTime = time.Duration(sr.U64())
	if err := done(&sr, "stats section"); err != nil {
		return nil, err
	}

	col, err := engine.Restore(st)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	// Fail fast on a snapshot whose own sections disagree about identity.
	// This is a convenience, not the trust root: a forger can re-sign with
	// their own key, and only the client's out-of-band copy of the owner's
	// key catches that.
	if err := core.VerifyManifest(manifest, st.ManifestSig, st.Verifier); err != nil {
		return nil, fmt.Errorf("snapshot: embedded manifest signature: %w", err)
	}
	return col, nil
}

func appendSized32(b, v []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

func appendExtents(b []byte, exts []store.Extent) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(exts)))
	for _, e := range exts {
		b = binary.BigEndian.AppendUint64(b, uint64(e.Start))
		b = binary.BigEndian.AppendUint32(b, uint32(e.Blocks))
		b = binary.BigEndian.AppendUint64(b, uint64(e.Length))
	}
	return b
}

// The section decoders below read through a binx.Reader; the byte strings
// they return alias the payload, capacity-capped.

// sized32 reads a u32-length-prefixed byte string.
func sized32(r *binx.Reader) []byte { return r.Take(int(r.U32())) }

// sliceTable reads count entries: fixed width bytes each, or u32-prefixed
// when width < 0.
func sliceTable(r *binx.Reader, count, width int) [][]byte {
	perEntry := width
	if width < 0 {
		perEntry = 4 // the length prefix
	}
	count = r.Count(count, perEntry)
	if r.Err() != nil {
		return nil
	}
	out := make([][]byte, count)
	for i := range out {
		if width < 0 {
			out[i] = sized32(r)
		} else {
			out[i] = r.Take(width)
		}
	}
	return out
}

// extents reads a u32-count extent table.
func extents(r *binx.Reader) []store.Extent {
	const extSize = 8 + 4 + 8
	count := r.Count(int(r.U32()), extSize)
	if r.Err() != nil {
		return nil
	}
	out := make([]store.Extent, count)
	for i := range out {
		out[i] = store.Extent{
			Start:  store.Addr(r.U64()),
			Blocks: int32(r.U32()),
			Length: int64(r.U64()),
		}
	}
	return out
}

// done reports a section reader's first failure, or trailing bytes.
func done(r *binx.Reader, what string) error {
	if err := r.Done(); err != nil {
		return fmt.Errorf("snapshot: %s: %w", what, err)
	}
	return nil
}
