package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"authtext/internal/binx"
	"authtext/internal/core"
	"authtext/internal/corpus"
	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/mht"
	"authtext/internal/sig"
)

func buildCollection(t testing.TB, mutate func(*engine.Config)) *engine.Collection {
	t.Helper()
	signer, err := sig.NewHMACSigner([]byte("snapshot-test"), 128)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig(signer)
	if mutate != nil {
		mutate(&cfg)
	}
	col, err := engine.BuildCollection(corpus.Generate(corpus.Tiny()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func encode(t testing.TB, col *engine.Collection) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, col); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sectionRange locates a section's payload within a snapshot, returning its
// byte range and the offset of the CRC field in the section header.
func sectionRange(t testing.TB, snap []byte, id uint16) (payloadStart, payloadEnd, crcOff int) {
	t.Helper()
	off := 8
	for off < len(snap) {
		gotID := binary.BigEndian.Uint16(snap[off:])
		length := int(binary.BigEndian.Uint64(snap[off+8:]))
		if gotID == id {
			return off + 16, off + 16 + length, off + 4
		}
		off += 16 + length
	}
	t.Fatalf("section %d not found", id)
	return 0, 0, 0
}

// tamper flips one payload byte. With fixCRC the section checksum is
// recomputed, modelling an adversary who keeps the container consistent.
func tamper(t testing.TB, snap []byte, id uint16, payloadOff int, fixCRC bool) []byte {
	t.Helper()
	out := append([]byte(nil), snap...)
	start, end, crcOff := sectionRange(t, out, id)
	if start+payloadOff >= end {
		t.Fatalf("offset %d outside section %d payload", payloadOff, id)
	}
	out[start+payloadOff] ^= 0x40
	if fixCRC {
		binary.BigEndian.PutUint32(out[crcOff:], crc32.ChecksumIEEE(out[start:end]))
	}
	return out
}

func searchAndVerify(t *testing.T, col *engine.Collection, tokens []string, algo core.Algo, scheme core.Scheme) error {
	t.Helper()
	res, voBytes, _, err := col.Search(tokens, 5, algo, scheme)
	if err != nil {
		return err
	}
	_, err = col.VerifyResult(tokens, 5, res, voBytes)
	return err
}

func queryTokens(col *engine.Collection) []string {
	idx := col.Index()
	return []string{idx.Name(0), idx.Name(1)}
}

func TestRoundTripAllVariants(t *testing.T) {
	col := buildCollection(t, nil)
	snap := encode(t, col)
	reopened, err := Open(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}

	wantM, wantSig := col.Manifest()
	gotM, gotSig := reopened.Manifest()
	if !bytes.Equal(wantM.Encode(), gotM.Encode()) {
		t.Error("manifest bytes changed across the round trip")
	}
	if !bytes.Equal(wantSig, gotSig) {
		t.Error("manifest signature changed across the round trip")
	}

	tokens := queryTokens(col)
	for _, algo := range []core.Algo{core.AlgoTRA, core.AlgoTNRA} {
		for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
			if err := searchAndVerify(t, reopened, tokens, algo, scheme); err != nil {
				t.Errorf("%v-%v after reopen: %v", algo, scheme, err)
			}
			// Cross-check: the original collection accepts the reopened
			// server's answers (same manifest, same key).
			res, voBytes, _, err := reopened.Search(tokens, 5, algo, scheme)
			if err != nil {
				t.Fatalf("%v-%v: %v", algo, scheme, err)
			}
			if _, err := col.VerifyResult(tokens, 5, res, voBytes); err != nil {
				t.Errorf("%v-%v: original-build client rejected reopened server: %v", algo, scheme, err)
			}
		}
	}

	if col.Space() != reopened.Space() {
		t.Errorf("space report changed: %+v vs %+v", col.Space(), reopened.Space())
	}
	if col.BuildStats().Signatures != reopened.BuildStats().Signatures {
		t.Error("signature count changed")
	}
}

// TestOpenAllocatesOneCopy: Open reads the snapshot into one buffer and
// decodes in place, so it allocates the file plus what the decode builds
// (postings, tables of slice headers, Merkle trees). A second copy of the
// bulk — device data, document content, signature and hash tables — would
// put it at twice the file or more.
func TestOpenAllocatesOneCopy(t *testing.T) {
	snap := encode(t, buildCollection(t, nil))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	col, err := Open(bytes.NewReader(snap))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(col)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(snap))
	t.Logf("opening a %d-byte snapshot allocated %.2f× its size", len(snap), ratio)
	if ratio >= 1.5 {
		t.Fatalf("Open allocated %.2f× the snapshot size, want < 1.5×", ratio)
	}
}

// TestRoundTripVariantSubset: a snapshot lays out what its signed variant
// set built — the extent tables of the rest empty, their term tables absent,
// the format version unchanged — reopens to a collection
// that serves the set and refuses the rest, and re-serialises byte-for-byte.
// A term table for an unbuilt kind spliced in is refused at open.
func TestRoundTripVariantSubset(t *testing.T) {
	full := encode(t, buildCollection(t, nil))
	col := buildCollection(t, func(cfg *engine.Config) { cfg.Variants = core.VariantOf(core.KindTNRACMHT) })
	snap := encode(t, col)
	if len(snap) >= len(full) {
		t.Fatalf("TNRA-CMHT snapshot %d bytes, all four %d", len(snap), len(full))
	}
	// Layout: plain, chain-TRA, chain-TNRA, doc — counts 0, 0, M, 0.
	start, end, _ := sectionRange(t, snap, secLayout)
	lr := binx.NewReader(snap[start:end])
	for i, want := range []int{0, 0, col.Index().M(), 0} {
		if got := len(extents(&lr)); got != want {
			t.Fatalf("extent table %d has %d entries, want %d", i, got, want)
		}
	}
	if err := done(&lr, "layout"); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, reopened), snap) {
		t.Fatal("reopened subset snapshot re-serialises differently")
	}
	tokens := queryTokens(col)
	if err := searchAndVerify(t, reopened, tokens, core.AlgoTNRA, core.SchemeCMHT); err != nil {
		t.Fatal(err)
	}
	if err := searchAndVerify(t, reopened, tokens, core.AlgoTRA, core.SchemeCMHT); !errors.Is(err, core.ErrVariantNotBuilt) {
		t.Fatalf("TRA-CMHT from a TNRA-CMHT snapshot: %v", err)
	}
	if col.Space() != reopened.Space() || col.BuildStats().Signatures != col.Index().M()+1 {
		t.Fatalf("space %+v, %d signatures", reopened.Space(), col.BuildStats().Signatures)
	}

	// A second kind's roots appended to the auth section: trailing bytes.
	start, end, _ = sectionRange(t, snap, secAuth)
	spliced := append(append([]byte(nil), snap[start:end]...), make([]byte, col.Index().M()*16)...)
	if _, err := Open(bytes.NewReader(replaceSection(t, snap, secAuth, spliced))); err == nil {
		t.Fatal("a term-root table for an unbuilt kind was accepted")
	}
}

func TestRoundTripDictModeAndVocabProofs(t *testing.T) {
	col := buildCollection(t, func(cfg *engine.Config) {
		cfg.DictMode = true
		cfg.VocabProofs = true
	})
	snap := encode(t, col)
	reopened, err := Open(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	tokens := append(queryTokens(col), "zzzunknownterm")
	for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
		if err := searchAndVerify(t, reopened, tokens, core.AlgoTNRA, scheme); err != nil {
			t.Errorf("dict-mode TNRA-%v: %v", scheme, err)
		}
	}
}

// TestOpenRefusesStaleDictionaryRoots: a dictionary-mode snapshot whose
// signed dictionary roots hash the bare list roots — the leaf definition
// before leaves were bound to their term — would serve answers that every
// client rejects as tampered. Open refuses it with a plain error instead:
// at the manifest, which then lacked the leaf-definition byte, and at the
// rebuilt dictionary trees, should the byte be there over old roots.
func TestOpenRefusesStaleDictionaryRoots(t *testing.T) {
	signer, err := sig.NewHMACSigner([]byte("snapshot-test"), 128)
	if err != nil {
		t.Fatal(err)
	}
	col := buildCollection(t, func(cfg *engine.Config) { cfg.DictMode = true })
	snap := encode(t, col)
	if _, err := Open(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}

	st := col.ExportState()
	stale := *st.Manifest
	hasher := mht.NewHasher(sig.MustHasher(int(stale.HashSize)))
	for _, kind := range stale.Variants.Kinds() {
		stale.DictRoots[kind-1] = mht.Root(hasher, st.TermRoots[kind-1])
	}
	withByte := stale.Encode()
	at := len(withByte) - 1 // the leaf-definition byte, before any variant mask
	if stale.Variants != 0 {
		at--
	}
	asSigned := append(append([]byte(nil), withByte[:at]...), withByte[at+1:]...)
	for what, raw := range map[string][]byte{"as signed then": asSigned, "with the leaf byte": withByte} {
		sigBytes, err := signer.Sign(raw)
		if err != nil {
			t.Fatal(err)
		}
		payload := appendSized32(appendSized32(nil, raw), sigBytes)
		_, err = Open(bytes.NewReader(replaceSection(t, snap, secManifest, payload)))
		if err == nil || core.CodeOf(err) != core.VerifyOK || !strings.Contains(err.Error(), "dictionary") {
			t.Fatalf("%s: snapshot signed over the old dictionary leaves: open returned %v, want a plain dictionary error", what, err)
		}
	}
}

func TestRoundTripBoosted(t *testing.T) {
	col := buildCollection(t, func(cfg *engine.Config) {
		docs := corpus.Generate(corpus.Tiny())
		authority := make([]float64, len(docs))
		for i := range authority {
			authority[i] = float64(i) / float64(len(authority))
		}
		cfg.Authority = authority
		cfg.Beta = 1.5
	})
	snap := encode(t, col)
	reopened, err := Open(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if err := searchAndVerify(t, reopened, queryTokens(col), core.AlgoTNRA, core.SchemeCMHT); err != nil {
		t.Errorf("boosted TNRA-CMHT: %v", err)
	}
}

func TestWriteDeterministic(t *testing.T) {
	col := buildCollection(t, nil)
	if !bytes.Equal(encode(t, col), encode(t, col)) {
		t.Fatal("two writes of the same collection differ")
	}
}

func TestOpenRejectsBadMagic(t *testing.T) {
	snap := encode(t, buildCollection(t, nil))
	snap[0] ^= 0xff
	if _, err := Open(bytes.NewReader(snap)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestOpenRejectsUnknownVersion(t *testing.T) {
	snap := encode(t, buildCollection(t, nil))
	binary.BigEndian.PutUint16(snap[4:], Version+1)
	_, err := Open(bytes.NewReader(snap))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("version %d accepted (err = %v)", Version+1, err)
	}
}

func TestOpenRejectsTruncation(t *testing.T) {
	snap := encode(t, buildCollection(t, nil))
	for _, n := range []int{0, 3, 7, 8, 20, len(snap) / 4, len(snap) / 2, len(snap) - 1} {
		if _, err := Open(bytes.NewReader(snap[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

func TestOpenRejectsTrailingBytes(t *testing.T) {
	snap := encode(t, buildCollection(t, nil))
	if _, err := Open(bytes.NewReader(append(snap, 0))); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestOpenRejectsInflatedLength(t *testing.T) {
	snap := encode(t, buildCollection(t, nil))
	_, _, crcOff := sectionRange(t, snap, secIndex)
	// The length field sits 4 bytes after the CRC; inflate it wildly. The
	// walker must fail on missing bytes, not allocate or slice 2^60.
	binary.BigEndian.PutUint64(snap[crcOff+4:], 1<<60)
	if _, err := Open(bytes.NewReader(snap)); err == nil {
		t.Fatal("inflated section length accepted")
	}
}

// TestCRCDetectsCorruption flips one byte in every section without fixing
// the checksum: open must fail each time.
func TestCRCDetectsCorruption(t *testing.T) {
	snap := encode(t, buildCollection(t, nil))
	for _, id := range sectionOrder {
		bad := tamper(t, snap, id, 1, false)
		if _, err := Open(bytes.NewReader(bad)); err == nil {
			t.Errorf("flipped byte in section %d accepted", id)
		}
	}
}

// hmacSigSize is the signature width of the test signer, needed to walk
// the auth section (sized entries of 4+128 bytes each).
const hmacSigSize = 128

// TestConsistentTamperFailsVerification models the real adversary: a byte
// flip with the section CRC recomputed, so the container is internally
// consistent. A leaf of a collection-level tree no longer reproduces the
// manifest's root, so the snapshot is refused at open; a flipped per-list
// signature opens — but the served proofs then fail verification, because
// the root of trust is the manifest signature, not the snapshot channel.
func TestConsistentTamperFailsVerification(t *testing.T) {
	col := buildCollection(t, nil)
	snap := encode(t, col)
	idx := col.Index()
	m := idx.M()

	// Auth section layout (non-dict, unboosted): mode byte, 4·m sized
	// signatures, 4·m term roots, n doc hashes of hashSize bytes.
	hashSize := 16
	docHashOff := 1 + 4*m*(4+hmacSigSize) + 4*m*hashSize + (idx.N-1)*hashSize
	bad := tamper(t, snap, secAuth, docHashOff, true)
	if _, err := Open(bytes.NewReader(bad)); err == nil || core.CodeOf(err) != core.VerifyOK {
		t.Fatalf("snapshot with a tampered doc-hash leaf: open returned %v, want a plain error", err)
	}

	// Tamper inside term 0's TRA-MHT signature: the VO carries it and the
	// client's signature check fails.
	bad = tamper(t, snap, secAuth, 8, true)
	reopened, err := Open(bytes.NewReader(bad))
	if err != nil {
		t.Fatalf("sig-tampered snapshot failed to open: %v", err)
	}
	term0 := []string{idx.Name(0)}
	res, voBytes, _, err := reopened.Search(term0, 5, core.AlgoTRA, core.SchemeMHT)
	if err != nil {
		t.Fatalf("search on sig-tampered collection: %v", err)
	}
	if _, err := col.VerifyResult(term0, 5, res, voBytes); err == nil {
		t.Fatal("client accepted a result carrying a tampered signature")
	}
}

// TestConsistentContentTamperFailsVerification flips the final byte of the
// index section (the last document's raw content, CRC fixed): when that
// document is served, the delivered content no longer hashes to the
// committed doc-hash leaf.
func TestConsistentContentTamperFailsVerification(t *testing.T) {
	col := buildCollection(t, nil)
	snap := encode(t, col)
	idx := col.Index()
	last := idx.N - 1
	if len(idx.Content[last]) == 0 {
		t.Fatal("last document has no content to tamper with")
	}

	start, end, _ := sectionRange(t, snap, secIndex)
	bad := tamper(t, snap, secIndex, end-start-1, true)
	reopened, err := Open(bytes.NewReader(bad))
	if err != nil {
		t.Logf("content-tampered snapshot rejected at open: %v", err)
		return
	}
	// Query a term the last document contains with r = n, so the tampered
	// content is delivered as part of the result.
	vec := idx.DocVector(index.DocID(last))
	if len(vec) == 0 {
		t.Fatal("last document has no indexed terms")
	}
	tokens := []string{idx.Name(vec[0].Term)}
	res, voBytes, _, err := reopened.Search(tokens, idx.N, core.AlgoTNRA, core.SchemeCMHT)
	if err != nil {
		t.Fatalf("search on content-tampered collection: %v", err)
	}
	if _, err := col.VerifyResult(tokens, idx.N, res, voBytes); err == nil {
		t.Fatal("client accepted tampered document content")
	}
}

// replaceSection rebuilds the container with a new payload for one section
// (length and CRC fixed up), modelling an adversary who rewrites a section
// wholesale.
func replaceSection(t testing.TB, snap []byte, id uint16, payload []byte) []byte {
	t.Helper()
	start, end, _ := sectionRange(t, snap, id)
	hdrStart := start - 16
	out := append([]byte(nil), snap[:hdrStart]...)
	out = binary.BigEndian.AppendUint16(out, id)
	out = binary.BigEndian.AppendUint16(out, 0)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return append(out, snap[end:]...)
}

// TestOpenRejectsInflatedManifestCounts forges a CRC-consistent manifest
// claiming a huge boosted collection over small sections: every
// manifest-derived allocation must be bounded by real payload bytes, so
// Open errors promptly instead of attempting multi-gigabyte allocations.
func TestOpenRejectsInflatedManifestCounts(t *testing.T) {
	col := buildCollection(t, func(cfg *engine.Config) {
		docs := corpus.Generate(corpus.Tiny())
		authority := make([]float64, len(docs))
		for i := range authority {
			authority[i] = 0.5
		}
		cfg.Authority = authority
		cfg.Beta = 1.0
	})
	snap := encode(t, col)

	start, end, _ := sectionRange(t, snap, secManifest)
	payload := snap[start:end]
	rawLen := int(binary.BigEndian.Uint32(payload))
	raw := payload[4 : 4+rawLen]
	sig := payload[4+rawLen+4:]
	m, err := core.DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	m.N = 1<<31 - 1
	forged := appendSized32(nil, m.Encode())
	forged = appendSized32(forged, sig)

	bad := replaceSection(t, snap, secManifest, forged)
	if _, err := Open(bytes.NewReader(bad)); err == nil {
		t.Fatal("manifest claiming 2^31 documents over tiny sections accepted")
	}
}

// TestWriteRejectsOversizedTermName: the index codec stores names behind
// u16 lengths; Write must refuse rather than emit an unreopenable artifact.
func TestWriteRejectsOversizedTermName(t *testing.T) {
	signer, err := sig.NewHMACSigner([]byte("oversize"), 128)
	if err != nil {
		t.Fatal(err)
	}
	giant := strings.Repeat("a", 70000)
	docs := []index.Document{
		{Content: []byte("x"), Tokens: []string{giant, "shared"}},
		{Content: []byte("y"), Tokens: []string{giant, "shared"}},
	}
	col, err := engine.BuildCollection(docs, engine.DefaultConfig(signer))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, col); err == nil {
		t.Fatal("snapshot with a 70000-byte term name written without error")
	}
}

func TestOpenRejectsVerifierSwap(t *testing.T) {
	col := buildCollection(t, nil)
	snap := encode(t, col)
	// Replace the embedded HMAC key (flip a key byte, CRC fixed): the
	// embedded manifest signature no longer verifies under it.
	bad := tamper(t, snap, secPubKey, 10, true)
	if _, err := Open(bytes.NewReader(bad)); err == nil {
		t.Fatal("snapshot with mismatched verifier accepted")
	}
}
