package snapshot

import (
	"bytes"
	"encoding/binary"
	"testing"

	"authtext/internal/core"
	"authtext/internal/engine"
	"authtext/internal/index"
	"authtext/internal/sig"
)

// fuzzSeedSnapshot builds a deliberately small collection (so the seed
// corpus stays compact) over the given variant set and serialises it.
func fuzzSeedSnapshot(f *testing.F, variants core.VariantSet) []byte {
	f.Helper()
	signer, err := sig.NewHMACSigner([]byte("fuzz"), 128)
	if err != nil {
		f.Fatal(err)
	}
	texts := []string{
		"merkle tree authenticates the inverted index",
		"the inverted index stores impact entries by frequency",
		"clients verify the merkle tree root against the signature",
		"impact entries by frequency order the inverted lists",
	}
	docs := make([]index.Document, len(texts))
	for i, s := range texts {
		docs[i] = index.Document{Content: []byte(s)}
	}
	cfg := engine.DefaultConfig(signer)
	cfg.Variants = variants
	col, err := engine.BuildCollection(docs, cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, col); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzOpenSnapshot exercises the snapshot parser with arbitrary bytes. A
// snapshot may arrive over an untrusted channel, so Open is a security
// boundary: truncated, bit-flipped or length-inflated inputs must produce
// an error — never a panic, never an unbounded allocation. Anything it
// accepts must re-serialise and reopen (the format is canonical).
//
// The second leg runs the same walker on OpenMapped's schedule with every
// section deferred, so the decoders see bytes no CRC has vouched for: it
// must not panic either, and once the deferred checks have run it must
// reach Open's verdict and, on acceptance, the same collection.
func FuzzOpenSnapshot(f *testing.F) {
	valid := fuzzSeedSnapshot(f, 0)
	f.Add(valid)
	// A TNRA-CMHT-only build: empty extent tables, absent term tables.
	f.Add(fuzzSeedSnapshot(f, core.VariantOf(core.KindTNRACMHT)))
	for _, n := range []int{0, 3, 4, 7, 8, 24, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	inflated := append([]byte(nil), valid...)
	binary.BigEndian.PutUint64(inflated[8+8:], 1<<56) // first section length
	f.Add(inflated)
	f.Add([]byte("ATSN"))
	f.Add([]byte("ATSN\x00\x01\x00\x07"))

	f.Fuzz(func(t *testing.T, data []byte) {
		col, err := Open(bytes.NewReader(data))
		deferredCol, deferred, derr := parse(data, 0)
		if derr == nil {
			derr = checkSections(deferred)
		}
		if (err == nil) != (derr == nil) {
			t.Fatalf("verdicts differ: Open %v, every section deferred %v", err, derr)
		}
		if err != nil {
			return
		}
		// Accepted inputs must be fully self-consistent: re-serialise and
		// reopen without error.
		var buf bytes.Buffer
		if err := Write(&buf, col); err != nil {
			t.Fatalf("accepted snapshot failed to re-serialise: %v", err)
		}
		if _, err := Open(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-serialised snapshot failed to reopen: %v", err)
		}
		var dbuf bytes.Buffer
		if err := Write(&dbuf, deferredCol); err != nil || !bytes.Equal(dbuf.Bytes(), buf.Bytes()) {
			t.Fatalf("the deferred schedule decoded a different collection (%v)", err)
		}
	})
}
