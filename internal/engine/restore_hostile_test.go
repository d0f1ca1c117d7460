package engine

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/sig"
	"authtext/internal/store"
)

// Regression for the PR-2 proof of concept: a hostile State with extents
// whose Start is near MaxInt64 used to slip through Restore's bounds check
// (Start+Blocks wraps negative under int64 addition) and blow up on the
// query path. Restore must reject such extents outright — never panic and
// never serve from them.
func TestRestoreHostileExtentOverflow(t *testing.T) {
	signer, err := sig.NewHMACSigner([]byte("hostile-extent"), 128)
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"alpha beta gamma", "beta gamma delta", "gamma delta epsilon",
		"delta epsilon alpha", "epsilon alpha beta",
	}
	docs := make([]index.Document, len(texts))
	for i, s := range texts {
		docs[i] = index.Document{Content: []byte(s)}
	}
	col, err := BuildCollection(docs, DefaultConfig(signer))
	if err != nil {
		t.Fatal(err)
	}

	hostile := []store.Extent{
		{Start: store.Addr(math.MaxInt64), Blocks: 1, Length: 8},
		{Start: store.Addr(math.MaxInt64 - 1), Blocks: 2, Length: 8},
		{Start: 1, Blocks: math.MaxInt32, Length: 8},
	}
	tables := []struct {
		name   string
		mutate func(st *State, ext store.Extent)
	}{
		{"doc", func(st *State, ext store.Extent) { st.Layout.Doc[0] = ext }},
		{"plain", func(st *State, ext store.Extent) { st.Layout.Plain[0] = ext }},
		{"chain-tra", func(st *State, ext store.Extent) { st.Layout.ChainTRA[0] = ext }},
		{"chain-tnra", func(st *State, ext store.Extent) { st.Layout.ChainTNRA[0] = ext }},
	}
	for _, tbl := range tables {
		for _, ext := range hostile {
			st := col.ExportState()
			// ExportState aliases layout tables; deep-copy before tampering.
			st.Layout.Plain = append([]store.Extent(nil), st.Layout.Plain...)
			st.Layout.ChainTRA = append([]store.Extent(nil), st.Layout.ChainTRA...)
			st.Layout.ChainTNRA = append([]store.Extent(nil), st.Layout.ChainTNRA...)
			st.Layout.Doc = append([]store.Extent(nil), st.Layout.Doc...)
			tbl.mutate(st, ext)

			col2, err := Restore(st)
			if err != nil {
				continue // rejected up front: the desired outcome
			}
			// If Restore let it through, serving must still not panic.
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s extent %+v: PANIC serving query from hostile state: %v", tbl.name, ext, r)
					}
				}()
				for _, algo := range []core.Algo{core.AlgoTRA, core.AlgoTNRA} {
					for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
						_, _, _, err := col2.Search([]string{"alpha", "gamma"}, 3, algo, scheme)
						t.Logf("%s extent %+v survived Restore; search err=%v", tbl.name, ext, err)
					}
				}
			}()
		}
	}
}

// The device-level bound must hold independently of Restore's checks.
func TestReadExtentOverflowRejected(t *testing.T) {
	dev, err := store.NewDevice(store.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	dev.AllocWrite(make([]byte, 64))
	for _, ext := range []store.Extent{
		{Start: store.Addr(math.MaxInt64), Blocks: 1, Length: 8},
		{Start: store.Addr(math.MaxInt64 - 1), Blocks: 2, Length: 8},
		{Start: 0, Blocks: -1, Length: 8},
	} {
		if _, err := dev.NewSession().ReadExtent(ext); err == nil {
			t.Errorf("extent %+v accepted", ext)
		}
	}
}

// hostileState returns the exported state of col with layout tables and
// index term metadata of its own, safe to tamper with.
func hostileState(col *Collection) *State {
	st := col.ExportState()
	st.Layout.Plain = slices.Clone(st.Layout.Plain)
	st.Layout.ChainTRA = slices.Clone(st.Layout.ChainTRA)
	st.Layout.ChainTNRA = slices.Clone(st.Layout.ChainTNRA)
	st.Layout.Doc = slices.Clone(st.Layout.Doc)
	idx := *st.Index
	idx.Terms = slices.Clone(idx.Terms)
	st.Index = &idx
	return st
}

// padState turns st into the block-granular device a format-v1 snapshot
// holds: every extent at its Start block, every list padded to whole
// blocks.
func padState(st *State) {
	bs := int64(st.StoreParams.BlockSize)
	var blocks int64
	st.Layout.Walk(func(_ string, _ int, ext *store.Extent) error {
		blocks += int64(ext.Blocks)
		return nil
	})
	padded := make([]byte, blocks*bs)
	st.Layout.Walk(func(what string, _ int, ext *store.Extent) error {
		copy(padded[int64(ext.Start)*bs:], st.DeviceData[ext.Off:ext.Off+ext.Length])
		if what != "doc" {
			ext.Length = int64(ext.Blocks) * bs
		}
		ext.Off = 0
		return nil
	})
	st.DeviceData, st.Padded = padded, true
}

// restoreRefuses checks that Restore returns a plain error for st, and
// does not panic.
func restoreRefuses(t *testing.T, name string, st *State) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: Restore panicked: %v", name, r)
		}
	}()
	if _, err := Restore(st); err == nil {
		t.Fatalf("%s: Restore accepted the layout", name)
	} else {
		t.Logf("%s: %v", name, err)
	}
}

// TestRestoreHostilePackedLayout: a packed device is only as safe as the
// rule that its extents tile it in device order, each a list's exact
// encoding. Every way a layout can break that rule — overlapping or
// reordered extents, a list length that disagrees with ft, an offset or a
// length past the data, a zero-entry list — is a plain error at Restore,
// for a packed state and for a padded (format-v1) one that Restore packs.
// The honest state, packed or padded, restores and answers alike.
func TestRestoreHostilePackedLayout(t *testing.T) {
	signer, err := sig.NewHMACSigner([]byte("hostile-packed"), 128)
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"alpha beta gamma", "beta gamma delta", "gamma delta epsilon",
		"delta epsilon alpha", "epsilon alpha beta", "alpha gamma epsilon",
	}
	docs := make([]index.Document, len(texts))
	for i, s := range texts {
		docs[i] = index.Document{Content: []byte(s)}
	}
	col, err := BuildCollection(docs, DefaultConfig(signer))
	if err != nil {
		t.Fatal(err)
	}
	tokens := []string{"alpha", "gamma"}
	answer := func(c *Collection) [][]byte {
		var out [][]byte
		for _, algo := range []core.Algo{core.AlgoTRA, core.AlgoTNRA} {
			for _, scheme := range []core.Scheme{core.SchemeMHT, core.SchemeCMHT} {
				_, vo, _, err := c.Search(tokens, 3, algo, scheme)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, vo)
			}
		}
		return out
	}
	want := answer(col)
	for _, padded := range []bool{false, true} {
		honest := hostileState(col)
		if padded {
			padState(honest)
		}
		again, err := Restore(honest)
		if err != nil {
			t.Fatalf("padded=%v: the honest state: %v", padded, err)
		}
		if got := answer(again); !slices.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("padded=%v: the restored collection answers otherwise", padded)
		}
		if padded && len(again.Device().Data()) != len(col.Device().Data()) {
			t.Fatalf("a padded state packed into %d bytes, built %d", len(again.Device().Data()), len(col.Device().Data()))
		}
	}

	last := func(st *State) *store.Extent { return &st.Layout.ChainTNRA[len(st.Layout.ChainTNRA)-1] }
	for _, c := range []struct {
		name   string
		mutate func(st *State)
	}{
		{"overlapping extents", func(st *State) { st.Layout.Plain[1].Start = st.Layout.Plain[0].Start }},
		{"overlapping bytes", func(st *State) { st.Layout.Plain[1].Off = st.Layout.Plain[0].Off }},
		{"out-of-order extents", func(st *State) {
			st.Layout.Doc[0], st.Layout.Doc[1] = st.Layout.Doc[1], st.Layout.Doc[0]
		}},
		{"list shorter than ft", func(st *State) { st.Layout.ChainTRA[2].Length -= entrySize }},
		{"list longer than ft", func(st *State) { st.Layout.Plain[2].Length += entrySize }},
		{"ft larger than the list", func(st *State) { st.Index.Terms[3].FT++ }},
		{"offset past the data", func(st *State) { last(st).Off = int64(len(st.DeviceData)) + 1 }},
		{"offset near MaxInt64", func(st *State) { last(st).Off = math.MaxInt64 - 4 }},
		{"length past the data", func(st *State) { st.Layout.Doc[len(st.Layout.Doc)-1].Length += 1 << 20 }},
		{"negative length", func(st *State) { st.Layout.Doc[2].Length = -1 }},
		{"data past the last extent", func(st *State) { st.DeviceData = append(slices.Clip(st.DeviceData), 0) }},
		{"data cut short", func(st *State) { st.DeviceData = st.DeviceData[:len(st.DeviceData)-1] }},
		{"blocks disagree with length", func(st *State) { st.Layout.Doc[0].Blocks++ }},
		{"zero-entry list", func(st *State) { st.Index.Terms[0].FT = 0 }},
	} {
		restoreRefuses(t, c.name, func() *State { st := hostileState(col); c.mutate(st); return st }())
	}
	for _, c := range []struct {
		name   string
		mutate func(st *State)
	}{
		{"padded: start off the device", func(st *State) { st.Layout.Doc[1].Start = store.Addr(math.MaxInt64) }},
		{"padded: extent runs off the device", func(st *State) { last(st).Start += 1 }},
		{"padded: list shorter than its entries", func(st *State) { st.Layout.Plain[0].Length = entrySize }},
		{"padded: length past the data", func(st *State) { st.Layout.Doc[0].Length = int64(len(st.DeviceData)) + 1 }},
		{"padded: not block-granular", func(st *State) { st.DeviceData = st.DeviceData[:len(st.DeviceData)-1] }},
		{"padded: zero-entry list", func(st *State) { st.Index.Terms[1].FT = 0 }},
		{"padded: out-of-order extents", func(st *State) {
			st.Layout.Doc[0], st.Layout.Doc[1] = st.Layout.Doc[1], st.Layout.Doc[0]
		}},
	} {
		restoreRefuses(t, c.name, func() *State { st := hostileState(col); padState(st); c.mutate(st); return st }())
	}
}
