package core

import (
	"os"
	"testing"

	"authtext/internal/sig"
)

func sampleManifest() *Manifest {
	root := make([]byte, 16)
	return &Manifest{
		N: 100, M: 50, AvgLen: 42.5, K1: 1.2, B: 0.75,
		BlockSize: 1024, HashSize: 16,
		DocHashRoot: root,
	}
}

func TestManifestEncodeDeterministic(t *testing.T) {
	m := sampleManifest()
	a, b := m.Encode(), m.Encode()
	if string(a) != string(b) {
		t.Fatal("manifest encoding not deterministic")
	}
}

func TestManifestEncodeBindsEveryField(t *testing.T) {
	base := sampleManifest().Encode()
	mutations := []func(*Manifest){
		func(m *Manifest) { m.N++ },
		func(m *Manifest) { m.M++ },
		func(m *Manifest) { m.AvgLen += 1 },
		func(m *Manifest) { m.K1 = 2.0 },
		func(m *Manifest) { m.B = 0.5 },
		func(m *Manifest) { m.BlockSize = 2048 },
		func(m *Manifest) { m.HashSize = 20 },
		func(m *Manifest) { m.DictMode = true },
		func(m *Manifest) { m.VocabProofsEnabled = true },
		func(m *Manifest) { m.DocHashRoot = append([]byte{1}, m.DocHashRoot[1:]...) },
		func(m *Manifest) { m.DictRoots[0] = make([]byte, 16) },
		func(m *Manifest) { m.NameDictRoot = make([]byte, 16) },
		func(m *Manifest) { m.Boosted = true },
		func(m *Manifest) { m.Beta = 3.5 },
		func(m *Manifest) { m.AMax = 0.25 },
		func(m *Manifest) { m.AuthorityRoot = make([]byte, 16) },
	}
	for i, mutate := range mutations {
		m := sampleManifest()
		mutate(m)
		if string(m.Encode()) == string(base) {
			t.Errorf("mutation %d not reflected in encoding", i)
		}
	}
}

func TestManifestValidate(t *testing.T) {
	if err := sampleManifest().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	bad := []func(*Manifest){
		func(m *Manifest) { m.N = 0 },
		func(m *Manifest) { m.M = 0 },
		func(m *Manifest) { m.HashSize = 4 },
		func(m *Manifest) { m.BlockSize = 16 },
		func(m *Manifest) { m.DocHashRoot = nil },
		func(m *Manifest) { m.DictMode = true }, // roots missing
		func(m *Manifest) { m.VocabProofsEnabled = true },
		func(m *Manifest) { m.Boosted = true }, // authority root missing
		func(m *Manifest) {
			m.Boosted = true
			m.AuthorityRoot = make([]byte, 16)
			m.Beta = -1
		},
		func(m *Manifest) {
			m.Boosted = true
			m.AuthorityRoot = make([]byte, 16)
			m.AMax = 2
		},
	}
	for i, mutate := range bad {
		m := sampleManifest()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// tombstonedManifest returns a generation-2 manifest with slots 0 and 3
// tombstoned out of N=100.
func tombstonedManifest() *Manifest {
	m := sampleManifest()
	m.Generation = 2
	bm := make([]byte, 13) // ceil(100/8)
	bm[0] = 0b_0000_1001   // slots 0 and 3
	m.Tombstones = bm
	m.Live = 98
	return m
}

func TestManifestTombstoneRoundTrip(t *testing.T) {
	m := tombstonedManifest()
	if err := m.Validate(); err != nil {
		t.Fatalf("valid tombstoned manifest rejected: %v", err)
	}
	got, err := DecodeManifest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 2 || got.Live != 98 || string(got.Tombstones) != string(m.Tombstones) {
		t.Fatalf("round trip lost tombstone state: %+v", got)
	}
	if !got.IsTombstoned(0) || !got.IsTombstoned(3) || got.IsTombstoned(1) || got.IsTombstoned(99) {
		t.Fatal("IsTombstoned wrong after round trip")
	}
	if got.IsTombstoned(100) || got.IsTombstoned(1<<20) {
		t.Fatal("out-of-range slot reported tombstoned")
	}
	if got.LiveDocs() != 98 {
		t.Fatalf("LiveDocs = %d, want 98", got.LiveDocs())
	}
	// The bitmap is inside the signed bytes: flipping a bit must change
	// the encoding.
	m2 := tombstonedManifest()
	m2.Tombstones[1] = 1
	m2.Live = 97
	if string(m2.Encode()) == string(m.Encode()) {
		t.Fatal("tombstone bitmap not bound by the encoding")
	}
}

// TestManifestZeroTombstoneEncodingUnchanged pins the compatibility
// contract: a manifest without tombstones — generation 0 especially —
// encodes byte-identically to the pre-tombstone layout (no flag bit, no
// trailing extension), so gen-0 golden fixtures and static snapshots are
// untouched by the feature.
func TestManifestZeroTombstoneEncodingUnchanged(t *testing.T) {
	m := sampleManifest()
	base := m.Encode()
	m.Tombstones = nil // explicit: no bitmap
	m.Live = 0
	if string(m.Encode()) != string(base) {
		t.Fatal("no-tombstone encoding changed")
	}
	if base[0]&8 != 0 {
		t.Fatal("flag bit 8 set without tombstones")
	}
	// A generation-carrying manifest without tombstones keeps the old
	// 8-byte trailing-generation layout.
	m.Generation = 5
	gen := m.Encode()
	if len(gen) != len(base)+8 {
		t.Fatalf("generation suffix is %d bytes, want 8", len(gen)-len(base))
	}
}

func TestManifestTombstoneValidate(t *testing.T) {
	bad := []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"generation 0", func(m *Manifest) { m.Generation = 0 }},
		{"bitmap too short", func(m *Manifest) { m.Tombstones = m.Tombstones[:12] }},
		{"bitmap too long", func(m *Manifest) { m.Tombstones = append(m.Tombstones, 0) }},
		{"trailing bits past N", func(m *Manifest) { m.Tombstones[12] |= 0x80 }},
		{"live count mismatch", func(m *Manifest) { m.Live = 99 }},
		{"all slots dead", func(m *Manifest) {
			for i := range m.Tombstones {
				m.Tombstones[i] = 0xff
			}
			m.Tombstones[12] = 0x0f
			m.Live = 0
		}},
		{"no dead bits but bitmap present", func(m *Manifest) {
			for i := range m.Tombstones {
				m.Tombstones[i] = 0
			}
			m.Live = 100
		}},
		{"live set without bitmap", func(m *Manifest) { m.Tombstones = nil }},
	}
	for _, tc := range bad {
		m := tombstonedManifest()
		tc.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Decoding rejects the same corruptions when they survive encoding.
	m := tombstonedManifest()
	enc := m.Encode()
	enc[len(enc)-1] ^= 0x80 // set a trailing bit past N
	if _, err := DecodeManifest(enc); err == nil {
		t.Error("decoder accepted trailing tombstone bits past N")
	}
}

func TestVerifyManifest(t *testing.T) {
	signer, err := sig.NewHMACSigner([]byte("manifest"), 64)
	if err != nil {
		t.Fatal(err)
	}
	m := sampleManifest()
	sb, err := signer.Sign(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyManifest(m, sb, signer.Verifier()); err != nil {
		t.Fatalf("valid manifest signature rejected: %v", err)
	}
	m.N++
	if err := VerifyManifest(m, sb, signer.Verifier()); err == nil {
		t.Fatal("tampered manifest accepted")
	}
}

func TestTermRootMessageBindsFields(t *testing.T) {
	root := make([]byte, 16)
	base := TermRootMessage(KindTRAMHT, "term", 7, 13, root)
	variants := [][]byte{
		TermRootMessage(KindTNRAMHT, "term", 7, 13, root),
		TermRootMessage(KindTRAMHT, "other", 7, 13, root),
		TermRootMessage(KindTRAMHT, "term", 8, 13, root),
		TermRootMessage(KindTRAMHT, "term", 7, 14, root),
		TermRootMessage(KindTRAMHT, "term", 7, 13, append([]byte{1}, root[1:]...)),
	}
	for i, v := range variants {
		if string(v) == string(base) {
			t.Errorf("variant %d collides with base message", i)
		}
	}
}

func TestDocRootMessageBindsFields(t *testing.T) {
	h := make([]byte, 16)
	r := make([]byte, 16)
	base := DocRootMessage(3, 9, h, r)
	variants := [][]byte{
		DocRootMessage(4, 9, h, r),
		DocRootMessage(3, 10, h, r),
		DocRootMessage(3, 9, append([]byte{1}, h[1:]...), r),
		DocRootMessage(3, 9, h, append([]byte{1}, r[1:]...)),
	}
	for i, v := range variants {
		if string(v) == string(base) {
			t.Errorf("variant %d collides with base message", i)
		}
	}
}

func TestKindForAndLeafSizes(t *testing.T) {
	cases := []struct {
		a    Algo
		s    Scheme
		kind StructureKind
		leaf int
	}{
		{AlgoTRA, SchemeMHT, KindTRAMHT, 4},
		{AlgoTRA, SchemeCMHT, KindTRACMHT, 4},
		{AlgoTNRA, SchemeMHT, KindTNRAMHT, 8},
		{AlgoTNRA, SchemeCMHT, KindTNRACMHT, 8},
	}
	for _, c := range cases {
		if got := KindFor(c.a, c.s); got != c.kind {
			t.Errorf("KindFor(%v,%v) = %v", c.a, c.s, got)
		}
		if got := c.kind.LeafSize(); got != c.leaf {
			t.Errorf("LeafSize(%v) = %d, want %d", c.kind, got, c.leaf)
		}
	}
}

func TestAlgoSchemeStrings(t *testing.T) {
	if AlgoTRA.String() != "TRA" || AlgoTNRA.String() != "TNRA" {
		t.Fatal("algo strings")
	}
	if SchemeMHT.String() != "MHT" || SchemeCMHT.String() != "CMHT" {
		t.Fatal("scheme strings")
	}
	if Algo(9).String() == "" || Scheme(9).String() == "" {
		t.Fatal("unknown values must still print")
	}
}

// TestManifestVariantsEncoding pins the variant-set extension: the full set
// is encoded by absence — byte-identical to a manifest that predates the
// field — and a subset is flag bit 0x10 plus one trailing mask byte, after
// the generation and tombstone extensions, inside the signed bytes.
func TestManifestVariantsEncoding(t *testing.T) {
	for name, base := range map[string]*Manifest{
		"static": sampleManifest(), "generation": func() *Manifest {
			m := sampleManifest()
			m.Generation = 3
			return m
		}(), "tombstoned": tombstonedManifest(),
	} {
		plain := base.Encode()
		if plain[flagsOffset]&0x10 != 0 {
			t.Fatalf("%s: flag 0x10 set for the full set", name)
		}
		m := *base
		m.Variants = VariantOf(KindTNRACMHT)
		enc := m.Encode()
		if len(enc) != len(plain)+1 || enc[len(enc)-1] != 0x08 || enc[flagsOffset] != plain[flagsOffset]|0x10 {
			t.Fatalf("%s: subset encoding %x, full %x", name, enc, plain)
		}
		got, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Variants != m.Variants || got.Generation != m.Generation || string(got.Tombstones) != string(m.Tombstones) ||
			!got.Serves(KindTNRACMHT) || got.Serves(KindTRACMHT) {
			t.Fatalf("%s: round trip %+v", name, got)
		}
		if string(got.Encode()) != string(enc) {
			t.Fatalf("%s: re-encoding differs", name)
		}
		m.Variants = VariantOf(KindTNRACMHT, KindTRAMHT)
		if string(m.Encode()) == string(enc) {
			t.Fatalf("%s: the mask is not bound by the encoding", name)
		}
	}
}

// flagsOffset is where Encode puts the flag byte: prefix, N, M, three
// float64s, block size, hash size.
const flagsOffset = len("authtext/manifest/v1") + 4 + 4 + 3*8 + 4 + 1

// TestManifestVariantsHostile: every non-canonical or malformed spelling of
// the variant set is refused by Validate or by the decoder.
func TestManifestVariantsHostile(t *testing.T) {
	for _, mask := range []VariantSet{AllVariants, 0x10, 0x1F, 0x80} {
		m := sampleManifest()
		m.Variants = mask
		if err := m.Validate(); err == nil {
			t.Errorf("Validate accepted mask %#x", uint8(mask))
		}
		if _, err := DecodeManifest(m.Encode()); err == nil {
			t.Errorf("decoder accepted mask %#x", uint8(mask))
		}
	}
	m := sampleManifest()
	m.DictMode = true
	for k := range m.DictRoots {
		m.DictRoots[k] = make([]byte, 16)
	}
	m.Variants = VariantOf(KindTNRACMHT)
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted a dictionary root for a variant not built")
	}
	m.DictRoots = [4][]byte{3: make([]byte, 16)}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate refused dictionary mode over one variant: %v", err)
	}

	for name, base := range map[string]*Manifest{"static": sampleManifest(), "tombstoned": tombstonedManifest()} {
		m := *base
		m.Variants = VariantOf(KindTNRACMHT)
		enc := m.Encode()
		zero := append([]byte(nil), enc...)
		zero[len(zero)-1] = 0
		flagOnly := enc[:len(enc)-1]
		byteOnly := append(append([]byte(nil), base.Encode()...), 0x08)
		for what, b := range map[string][]byte{"mask 0": zero, "flag without its byte": flagOnly, "byte without its flag": byteOnly} {
			if _, err := DecodeManifest(b); err == nil {
				t.Errorf("%s: decoder accepted %s", name, what)
			}
		}
	}
}

// TestManifestDictLeafByte pins how a dictionary-mode manifest names its leaf
// definition: one byte after the generation and tombstone extensions and
// before the variant mask. The same manifest without that byte — the layout
// signed over bare list roots — and one naming another definition are
// refused with plain errors. A decoder that predates the byte sees one byte
// more than the layout it knows (never the 8 of a generation) and refuses
// the manifest as trailing bytes.
func TestManifestDictLeafByte(t *testing.T) {
	for name, base := range map[string]*Manifest{
		"static": sampleManifest(), "generation": func() *Manifest {
			m := sampleManifest()
			m.Generation = 1
			return m
		}(), "tombstoned": tombstonedManifest(),
	} {
		for _, variants := range []VariantSet{0, VariantOf(KindTNRACMHT)} {
			m := *base
			m.DictMode, m.Variants = true, variants
			for _, kind := range m.Variants.Kinds() {
				m.DictRoots[kind-1] = make([]byte, 16)
			}
			enc := m.Encode()
			at := len(enc) - 1 // the leaf byte, before the mask if there is one
			if variants != 0 {
				at--
			}
			if enc[at] != dictLeafBound {
				t.Fatalf("%s/%v: byte %d is %#x, want the leaf byte", name, variants, at, enc[at])
			}
			got, err := DecodeManifest(enc)
			if err != nil || !got.DictMode || got.Variants != variants || got.Generation != m.Generation ||
				string(got.Encode()) != string(enc) {
				t.Fatalf("%s/%v: round trip %+v, %v", name, variants, got, err)
			}
			unbound := append(append([]byte(nil), enc[:at]...), enc[at+1:]...)
			other := append([]byte(nil), enc...)
			other[at] = dictLeafBound + 1
			for what, b := range map[string][]byte{"no leaf byte": unbound, "another leaf definition": other} {
				if _, err := DecodeManifest(b); err == nil || CodeOf(err) != VerifyOK {
					t.Errorf("%s/%v: %s decoded with %v, want a plain error", name, variants, what, err)
				}
			}
		}
	}
	// List mode carries no leaf byte: its encoding is the original layout.
	m := sampleManifest()
	plain := m.Encode()
	m.DictMode = true
	m.DictRoots = [4][]byte{make([]byte, 16), make([]byte, 16), make([]byte, 16), make([]byte, 16)}
	if got := len(m.Encode()) - len(plain); got != 4*16+1 {
		t.Fatalf("dictionary mode adds %d bytes, want four roots and the leaf byte", got)
	}
}

func TestParseVariantSet(t *testing.T) {
	for in, want := range map[string]VariantSet{
		"all": AllVariants, " ALL ": AllVariants, "tnra-cmht": 0x08,
		"tra-mht,TNRA-MHT": 0x05, " tra-cmht , tnra-cmht ": 0x0A,
	} {
		if got, err := ParseVariantSet(in); err != nil || got != want {
			t.Errorf("%q: %#x, %v; want %#x", in, uint8(got), err, uint8(want))
		}
	}
	for _, in := range []string{"", ",", "tnra", "tnra-cmht,", "tra-mht,tra-mht", "all,tra-mht"} {
		if _, err := ParseVariantSet(in); err == nil {
			t.Errorf("%q accepted", in)
		}
	}
	if s := VariantOf(KindTRACMHT, KindTNRACMHT).String(); s != "tra-cmht,tnra-cmht" {
		t.Errorf("String = %q", s)
	}
	if VariantSet(0).String() != "all" || AllVariants.String() != "all" {
		t.Error("the full set prints as all")
	}
}

// TestManifestVariantsGolden pins one subset manifest's canonical bytes —
// the signed encoding clients verify — against testdata. Regenerate with
// UPDATE_GOLDEN=1 only alongside a deliberate manifest format change; the
// all-four encoding is pinned by every pre-existing fixture staying as is.
func TestManifestVariantsGolden(t *testing.T) {
	const golden = "testdata/manifest-tnra-cmht.bin"
	m := sampleManifest()
	m.Generation = 7
	m.Variants = VariantOf(KindTNRACMHT)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, m.Encode(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(m.Encode()) {
		t.Fatalf("encoding changed:\n got %x\nwant %x", m.Encode(), raw)
	}
	got, err := DecodeManifest(raw)
	if err != nil || got.Variants != m.Variants || got.Generation != 7 {
		t.Fatalf("decode: %+v, %v", got, err)
	}
}
