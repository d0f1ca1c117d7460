package vo

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleVO(r *rand.Rand) *VO {
	digest := func() []byte {
		d := make([]byte, 16)
		r.Read(d)
		return d
	}
	v := &VO{Algo: uint8(1 + r.Intn(2)), Scheme: uint8(1 + r.Intn(2))}
	nTerms := 1 + r.Intn(4)
	for i := 0; i < nTerms; i++ {
		k := 1 + r.Intn(6)
		tp := TermProof{
			TermID: uint32(r.Intn(1000)),
			FT:     uint32(k + r.Intn(100)),
			Name:   "term" + string(rune('a'+i)),
			KScore: uint32(k),
			KProof: uint32(k),
			Docs:   make([]uint32, k),
			Sig:    bytes.Repeat([]byte{byte(i)}, 128),
		}
		for j := range tp.Docs {
			tp.Docs[j] = uint32(r.Intn(5000))
		}
		if v.Algo == 2 {
			tp.Freqs = make([]float32, k)
			for j := range tp.Freqs {
				tp.Freqs[j] = r.Float32()
			}
		}
		for d := 0; d < r.Intn(4); d++ {
			tp.Digests = append(tp.Digests, digest())
		}
		v.Terms = append(v.Terms, tp)
	}
	if v.Algo == 1 {
		nDocs := r.Intn(4)
		for i := 0; i < nDocs; i++ {
			dp := DocProof{
				Doc:       uint32(i * 7),
				LeafCount: uint32(5 + r.Intn(20)),
				InResult:  r.Intn(2) == 0,
				Sig:       bytes.Repeat([]byte{0xAB}, 128),
			}
			if !dp.InResult {
				dp.ContentHash = digest()
			}
			nPos := 1 + r.Intn(4)
			for j := 0; j < nPos; j++ {
				dp.Positions = append(dp.Positions, uint32(j))
				dp.Terms = append(dp.Terms, uint32(j*3))
				dp.Ws = append(dp.Ws, r.Float32())
			}
			for d := 0; d < r.Intn(3); d++ {
				dp.Digests = append(dp.Digests, digest())
			}
			v.Docs = append(v.Docs, dp)
		}
	} else if r.Intn(2) == 0 {
		v.ContentProof = &ContentProof{Digests: [][]byte{digest(), digest()}}
	}
	if r.Intn(3) == 0 {
		v.DictProof = &DictProof{M: uint32(1000 + r.Intn(1000)), Digests: [][]byte{digest()}}
	}
	if r.Intn(3) == 0 {
		v.VocabProofs = append(v.VocabProofs, VocabProof{
			Token:     "missing",
			Positions: []uint32{3, 4},
			Names:     []string{"miss", "mist"},
			Digests:   [][]byte{digest()},
		})
	}
	if r.Intn(2) == 0 {
		v.CapDepth = uint8(1 + r.Intn(16))
	}
	if v.Algo == 1 && r.Intn(2) == 0 {
		v.DocRootProof = &DocRootProof{Digests: [][]byte{digest()}}
		for i := range v.Docs {
			v.Docs[i].Sig = nil
		}
	}
	return v
}

// TestDocRootProofField pins the document-root multiproof: absent, a VO
// encodes as it always did; present, flag bit 5 (32) is set and its digests
// follow everything else. A flag bit no field claims is refused.
func TestDocRootProofField(t *testing.T) {
	v := sampleVO(rand.New(rand.NewSource(7)))
	v.DocRootProof = nil
	plain, _, err := Encode(v, 16)
	if err != nil {
		t.Fatal(err)
	}
	digest := bytes.Repeat([]byte{0x5A}, 16)
	v.DocRootProof = &DocRootProof{Digests: [][]byte{digest}}
	proved, bd, err := Encode(v, 16)
	if err != nil {
		t.Fatal(err)
	}
	const flagsAt = len(magic) + 3
	tail := append([]byte{0, 1}, digest...)
	if plain[flagsAt]&32 != 0 || proved[flagsAt] != plain[flagsAt]|32 ||
		!bytes.Equal(proved[:flagsAt], plain[:flagsAt]) || !bytes.Equal(proved[flagsAt+1:], append(bytes.Clone(plain[flagsAt+1:]), tail...)) {
		t.Fatalf("flags %#x → %#x, %d → %d bytes", plain[flagsAt], proved[flagsAt], len(plain), len(proved))
	}
	if bd.Total() != len(proved) {
		t.Fatalf("breakdown total %d, %d bytes", bd.Total(), len(proved))
	}
	if got, err := Decode(proved); err != nil || got.DocRootProof == nil || !bytes.Equal(got.DocRootProof.Digests[0], digest) {
		t.Fatalf("decoded %+v (%v)", got, err)
	}
	for _, bit := range []byte{64, 128} {
		unknown := bytes.Clone(plain)
		unknown[flagsAt] |= bit
		if _, err := Decode(unknown); err == nil {
			t.Fatalf("flag bit %#x decoded", bit)
		}
	}
}

// TestCapDepthField pins the cut-depth field: absent at depth 0, so a VO
// without a cut encodes as it always did, and one byte under flag bit 4
// otherwise, which may not be zero.
func TestCapDepthField(t *testing.T) {
	v := sampleVO(rand.New(rand.NewSource(7)))
	v.CapDepth = 0
	plain, _, err := Encode(v, 16)
	if err != nil {
		t.Fatal(err)
	}
	v.CapDepth = 8
	cut, _, err := Encode(v, 16)
	if err != nil {
		t.Fatal(err)
	}
	const flagsAt = len(magic) + 3
	if plain[flagsAt]&16 != 0 || cut[flagsAt] != plain[flagsAt]|16 || len(cut) != len(plain)+1 || cut[flagsAt+1] != 8 {
		t.Fatalf("flags %#x → %#x, %d → %d bytes", plain[flagsAt], cut[flagsAt], len(plain), len(cut))
	}
	if got, err := Decode(cut); err != nil || got.CapDepth != 8 {
		t.Fatalf("decoded cap depth %v (%v)", got, err)
	}
	cut[flagsAt+1] = 0
	if _, err := Decode(cut); err == nil {
		t.Fatal("a zero cap depth under the flag decoded")
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := sampleVO(r)
		enc, bd, err := Encode(v, 16)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		if bd.Total() != len(enc) {
			t.Logf("breakdown total %d != %d", bd.Total(), len(enc))
			return false
		}
		got, err := Decode(enc)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if !reflect.DeepEqual(v, got) {
			t.Logf("roundtrip mismatch:\n in: %+v\nout: %+v", v, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a vo")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil decoded")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	v := sampleVO(r)
	enc, _, err := Encode(v, 16)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	v := sampleVO(r)
	enc, _, err := Encode(v, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(enc, 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestEncodeRejectsRaggedStructures(t *testing.T) {
	v := &VO{Algo: 1, Scheme: 1, Terms: []TermProof{{Name: "x", KProof: 3, Docs: []uint32{1}}}}
	if _, _, err := Encode(v, 16); err == nil {
		t.Fatal("ragged term proof encoded")
	}
	v = &VO{Algo: 1, Scheme: 1, Docs: []DocProof{{Positions: []uint32{1}, Terms: []uint32{1, 2}, Ws: []float32{1}}}}
	if _, _, err := Encode(v, 16); err == nil {
		t.Fatal("ragged doc proof encoded")
	}
}

func TestEncodeRejectsWrongDigestWidth(t *testing.T) {
	v := &VO{Algo: 1, Scheme: 1, Terms: []TermProof{{
		Name: "x", KScore: 1, KProof: 1, Docs: []uint32{1},
		Digests: [][]byte{{1, 2, 3}},
	}}}
	if _, _, err := Encode(v, 16); err == nil {
		t.Fatal("narrow digest encoded")
	}
}

func TestBreakdownCategories(t *testing.T) {
	v := &VO{Algo: 2, Scheme: 2, Terms: []TermProof{{
		Name:   "abc",
		FT:     10,
		KScore: 2,
		KProof: 2,
		Docs:   []uint32{1, 2},
		Freqs:  []float32{0.5, 0.25},
		Digests: [][]byte{
			bytes.Repeat([]byte{1}, 16),
		},
		Sig: bytes.Repeat([]byte{2}, 128),
	}}}
	_, bd, err := Encode(v, 16)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Data != 2*4+2*4 {
		t.Fatalf("data bytes = %d, want 16", bd.Data)
	}
	if bd.Digest != 16 {
		t.Fatalf("digest bytes = %d, want 16", bd.Digest)
	}
	if bd.Signature != 128 {
		t.Fatalf("signature bytes = %d, want 128", bd.Signature)
	}
	dataPct, digestPct := bd.DataDigestShare()
	if dataPct+digestPct < 99.9 || dataPct+digestPct > 100.1 {
		t.Fatalf("shares %v + %v", dataPct, digestPct)
	}
	if dataPct != 50.0 {
		t.Fatalf("dataPct = %v, want 50", dataPct)
	}
}

func TestBreakdownShareEmpty(t *testing.T) {
	var bd Breakdown
	d, g := bd.DataDigestShare()
	if d != 0 || g != 0 {
		t.Fatal("empty breakdown share should be 0/0")
	}
}
