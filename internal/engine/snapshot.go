package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/mht"
	"authtext/internal/sig"
	"authtext/internal/store"
)

// State is the portable description of a fully built collection: everything
// BuildCollection computed that cannot be cheaply re-derived, and nothing
// secret — in particular, no signer. internal/snapshot serialises it;
// Restore turns it back into a serving Collection without signing anything.
type State struct {
	// Manifest is the decoded manifest; ManifestSig the owner's signature
	// over its canonical encoding.
	Manifest    *core.Manifest
	ManifestSig []byte
	// Verifier is the owner's public verification key.
	Verifier sig.Verifier
	// Index is the in-memory inverted index (dictionary, lists, document
	// vectors, raw content).
	Index *index.Index
	// StoreParams and DeviceData reconstruct the simulated disk. Restore
	// aliases DeviceData, so its provider owns its lifetime; see
	// store.RestoreDevice.
	StoreParams store.Params
	DeviceData  []byte
	// Layout locates every structure on the device; the tables of a layout
	// the variant set does not need are empty.
	Layout Layout
	// TermSigs holds the per-list signatures ([kind-1][termID]; all nil in
	// dictionary mode); TermRoots the corresponding roots (needed for
	// dictionary proofs); both are nil for a kind outside the variant set.
	// DocHash holds the h(doc) leaves.
	TermSigs  [4][][]byte
	TermRoots [4][][]byte
	DocHash   [][]byte
	// Authority holds the pinned per-document authority scores (boost
	// extension); nil unless Manifest.Boosted.
	Authority []float32
	// Space and build statistics, carried over for reporting.
	Space      SpaceReport
	Signatures int
	BuildTime  time.Duration
}

// ExportState captures the collection for serialisation. Slices alias
// collection memory; the caller must not mutate them.
func (c *Collection) ExportState() *State {
	return &State{
		Manifest:    c.manifest,
		ManifestSig: c.manifestSig,
		Verifier:    c.verifier,
		Index:       c.idx,
		StoreParams: c.dev.Params(),
		DeviceData:  c.dev.Data(),
		Layout:      c.layout,
		TermSigs:    c.termSigs,
		TermRoots:   c.termRoots,
		DocHash:     c.docHash,
		Authority:   c.authority,
		Space:       c.space,
		Signatures:  c.buildStats.Signatures,
		BuildTime:   c.buildStats.BuildTime,
	}
}

// Restore reconstructs a serving Collection from an exported state without
// touching a signer. The state may come from an untrusted snapshot, so
// every structural invariant the query path relies on is re-checked here.
// Tables whose rebuilt document-hash, dictionary, name or authority tree
// does not reproduce the manifest's root are refused with a plain error.
// What Restore cannot check is the rest of authenticity — that remains the
// manifest signature's job: tampered per-list signatures or term roots
// yield VOs that fail client verification.
func Restore(st *State) (*Collection, error) {
	m := st.Manifest
	if m == nil {
		return nil, errors.New("engine: restore: nil manifest")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if st.Verifier == nil {
		return nil, errors.New("engine: restore: nil verifier")
	}
	idx := st.Index
	if idx == nil {
		return nil, errors.New("engine: restore: nil index")
	}
	if idx.N != int(m.N) || idx.M() != int(m.M) {
		return nil, fmt.Errorf("engine: restore: index %d×%d does not match manifest %d×%d",
			idx.N, idx.M(), m.N, m.M)
	}
	if math.Float64bits(idx.AvgLen) != math.Float64bits(m.AvgLen) ||
		math.Float64bits(idx.Okapi.K1) != math.Float64bits(m.K1) ||
		math.Float64bits(idx.Okapi.B) != math.Float64bits(m.B) {
		return nil, errors.New("engine: restore: index parameters disagree with manifest")
	}
	if st.StoreParams.BlockSize != int(m.BlockSize) {
		return nil, fmt.Errorf("engine: restore: device block size %d, manifest %d",
			st.StoreParams.BlockSize, m.BlockSize)
	}
	dev, err := store.RestoreDevice(st.StoreParams, st.DeviceData)
	if err != nil {
		return nil, err
	}

	hashSize := int(m.HashSize)
	baseHasher, err := sig.NewHasher(hashSize)
	if err != nil {
		return nil, err
	}
	blockSize := st.StoreParams.BlockSize
	rho := core.ChainRho(blockSize, hashSize)
	plainPerBlock := blockSize / entrySize
	n, mm := idx.N, idx.M()

	// Layout: a table exists exactly for what the signed variant set built,
	// every extent must lie on the device, and the list extents must cover
	// exactly the blocks the cursors will read for ft entries — otherwise a
	// hostile snapshot could steer the query path off the end of an extent.
	set := m.Variants
	sized := func(built bool, want int) int {
		if built {
			return want
		}
		return 0
	}
	if len(st.Layout.Plain) != sized(set.HasMHT(), mm) ||
		len(st.Layout.ChainTRA) != sized(set.Has(core.KindTRACMHT), mm) ||
		len(st.Layout.ChainTNRA) != sized(set.Has(core.KindTNRACMHT), mm) ||
		len(st.Layout.Doc) != sized(set.HasTRA(), n) {
		return nil, fmt.Errorf("engine: restore: layout table sizes disagree with index and variant set %v", set)
	}
	checkExtent := func(what string, i int, ext store.Extent, wantBlocks int, fullBlocks bool) error {
		// Subtract instead of adding: Start+Blocks would overflow int64 for
		// a hostile Start near MaxInt64 and wrap past the bound.
		if ext.Start < 0 || ext.Blocks < 1 || int64(ext.Start) > dev.Blocks()-int64(ext.Blocks) {
			return fmt.Errorf("engine: restore: %s extent %d off-device", what, i)
		}
		if wantBlocks >= 0 && int(ext.Blocks) != wantBlocks {
			return fmt.Errorf("engine: restore: %s extent %d has %d blocks, need %d",
				what, i, ext.Blocks, wantBlocks)
		}
		if fullBlocks {
			if ext.Length != int64(ext.Blocks)*int64(blockSize) {
				return fmt.Errorf("engine: restore: %s extent %d not block-exact", what, i)
			}
		} else if ext.Length < 0 || ext.Length > int64(ext.Blocks)*int64(blockSize) {
			return fmt.Errorf("engine: restore: %s extent %d length out of range", what, i)
		}
		return nil
	}
	blocksFor := func(entries, perBlock int) int {
		nb := (entries + perBlock - 1) / perBlock
		if nb == 0 {
			nb = 1
		}
		return nb
	}
	for t := range st.Layout.Plain {
		if err := checkExtent("plain", t, st.Layout.Plain[t], blocksFor(idx.FT(index.TermID(t)), plainPerBlock), true); err != nil {
			return nil, err
		}
	}
	for t := range st.Layout.ChainTRA {
		if err := checkExtent("chain-tra", t, st.Layout.ChainTRA[t], blocksFor(idx.FT(index.TermID(t)), rho), true); err != nil {
			return nil, err
		}
	}
	for t := range st.Layout.ChainTNRA {
		if err := checkExtent("chain-tnra", t, st.Layout.ChainTNRA[t], blocksFor(idx.FT(index.TermID(t)), rho), true); err != nil {
			return nil, err
		}
	}
	for d := range st.Layout.Doc {
		if err := checkExtent("doc", d, st.Layout.Doc[d], -1, false); err != nil {
			return nil, err
		}
	}

	// Authentication material: roots and document hashes are fixed-width;
	// a kind's roots exist exactly when it was built, and its per-list
	// signatures too unless dictionary mode replaces them.
	for k := range st.TermRoots {
		built := set.Has(core.StructureKind(k + 1))
		if len(st.TermRoots[k]) != sized(built, mm) {
			return nil, fmt.Errorf("engine: restore: term-root table %d has %d entries", k, len(st.TermRoots[k]))
		}
		for t, r := range st.TermRoots[k] {
			if len(r) != hashSize {
				return nil, fmt.Errorf("engine: restore: term root %d/%d size mismatch", k, t)
			}
		}
		if m.DictMode || !built {
			if st.TermSigs[k] != nil {
				return nil, fmt.Errorf("engine: restore: per-list signatures present for kind %d in dictionary mode or unbuilt", k+1)
			}
			continue
		}
		if len(st.TermSigs[k]) != mm {
			return nil, fmt.Errorf("engine: restore: signature table %d has %d entries", k, len(st.TermSigs[k]))
		}
		for t, s := range st.TermSigs[k] {
			if len(s) == 0 {
				return nil, fmt.Errorf("engine: restore: term %d kind %d has empty signature", t, k+1)
			}
		}
	}
	if len(st.DocHash) != n {
		return nil, fmt.Errorf("engine: restore: %d document hashes for %d documents", len(st.DocHash), n)
	}
	for d, h := range st.DocHash {
		if len(h) != hashSize {
			return nil, fmt.Errorf("engine: restore: document hash %d size mismatch", d)
		}
	}

	c := &Collection{
		idx:        idx,
		dev:        dev,
		baseHasher: baseHasher,
		hasher:     mht.NewHasher(baseHasher),
		verifier:   st.Verifier,
		layout:     st.Layout,
		termSigs:   st.TermSigs,
		termRoots:  st.TermRoots,
		docHash:    st.DocHash,
		manifest:   m,
		// ManifestSig authenticity is not assumed here; clients check it.
		manifestSig: st.ManifestSig,
		space:       st.Space,
		buildStats:  BuildStats{BuildTime: st.BuildTime, Signatures: st.Signatures},
	}
	c.cfg = Config{
		Store:       st.StoreParams,
		HashSize:    hashSize,
		Okapi:       idx.Okapi,
		DictMode:    m.DictMode,
		VocabProofs: m.VocabProofsEnabled,
		Beta:        m.Beta,
		Generation:  m.Generation,
		Variants:    m.Variants,
	}
	if m.Boosted {
		if len(st.Authority) != n {
			return nil, fmt.Errorf("engine: restore: %d authority scores for %d documents", len(st.Authority), n)
		}
		c.authority = st.Authority
		for d, a := range st.Authority {
			if math.IsNaN(float64(a)) || a < 0 || a > 1 {
				return nil, fmt.Errorf("engine: restore: authority[%d] = %v outside [0,1]", d, a)
			}
		}
		auth := c.authority
		c.boost = &core.Boost{
			Beta: m.Beta,
			AMax: m.AMax,
			Authority: func(d index.DocID) float64 {
				return float64(auth[d])
			},
		}
	} else if st.Authority != nil {
		return nil, errors.New("engine: restore: authority scores present without boost flag")
	}
	// The Merkle trees are pure functions of the restored tables — rebuilt
	// rather than persisted, so the snapshot format does not carry them.
	c.buildTrees()
	if err := c.checkTreeRoots(); err != nil {
		return nil, err
	}
	return c, nil
}

// checkTreeRoots compares the rebuilt collection-level trees with the roots
// the manifest commits. A mismatch means tables the manifest does not
// describe — a damaged snapshot, or one whose tree leaves follow another
// definition — and every answer would fail verification, so it is refused
// here, as a plain error rather than as a client's tampering verdict.
func (c *Collection) checkTreeRoots() error {
	m := c.manifest
	check := func(what string, tree *mht.Tree, want []byte) error {
		if tree != nil && !bytes.Equal(tree.Root(), want) {
			return fmt.Errorf("engine: restore: the %s root disagrees with the manifest's", what)
		}
		return nil
	}
	if err := check("document-hash", c.docTree, m.DocHashRoot); err != nil {
		return err
	}
	for k, tree := range c.dictTrees {
		if err := check(fmt.Sprintf("%v dictionary", core.StructureKind(k+1)), tree, m.DictRoots[k]); err != nil {
			return err
		}
	}
	if err := check("name-dictionary", c.nameTree, m.NameDictRoot); err != nil {
		return err
	}
	return check("authority", c.authorityTree, m.AuthorityRoot)
}
