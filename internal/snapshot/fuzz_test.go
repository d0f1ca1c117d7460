package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
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
// The second leg re-stamps every section's CRC over the fuzzed bytes before
// opening them, so the decoders see bytes no checksum has vouched for. A CRC
// is not a MAC, so structural safety must not rest on it: Open must not
// panic there either, and whatever it accepts must re-encode to exactly the
// bytes it opened — or, for a v1 input, which the writer re-encodes as v2,
// to a file that does.
func FuzzOpenSnapshot(f *testing.F) {
	valid := fuzzSeedSnapshot(f, 0)
	f.Add(valid)
	for _, golden := range []string{goldenSnapshotV2, goldenSnapshot} {
		raw, err := os.ReadFile(golden)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
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
		if col, err := Open(bytes.NewReader(data)); err == nil {
			// Accepted inputs must be fully self-consistent: re-serialise
			// and reopen without error.
			var buf bytes.Buffer
			if err := Write(&buf, col); err != nil {
				t.Fatalf("accepted snapshot failed to re-serialise: %v", err)
			}
			if _, err := Open(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("re-serialised snapshot failed to reopen: %v", err)
			}
		}
		stamped := restamp(data)
		col, err := Open(bytes.NewReader(stamped))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, col); err != nil {
			t.Fatalf("a re-stamped snapshot opened but does not re-encode: %v", err)
		}
		if binary.BigEndian.Uint16(stamped[4:]) == 1 {
			// The writer re-encodes a v1 input as v2, canonical in turn.
			stamped = bytes.Clone(buf.Bytes())
			if col, err = Open(bytes.NewReader(stamped)); err != nil {
				t.Fatalf("a v1 snapshot re-encoded as v2 does not reopen: %v", err)
			}
			buf.Reset()
			if err := Write(&buf, col); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(buf.Bytes(), stamped) {
			t.Fatal("a re-stamped snapshot opened but re-encodes to other bytes")
		}
	})
}

// restamp returns data with every section's CRC recomputed over the payload
// the section declares, for as many sections as the container walks.
func restamp(data []byte) []byte {
	out := bytes.Clone(data)
	for off := 8; off+16 <= len(out); {
		start := off + 16
		length := binary.BigEndian.Uint64(out[off+8:])
		if length > uint64(len(out)-start) {
			break
		}
		end := start + int(length)
		binary.BigEndian.PutUint32(out[off+4:], crc32.ChecksumIEEE(out[start:end]))
		off = end
	}
	return out
}
