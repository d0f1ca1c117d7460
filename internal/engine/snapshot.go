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
	// StoreParams and DeviceData reconstruct the simulated disk: its
	// packed contents, every extent's payload back to back in device order
	// (Layout.Walk). Restore aliases DeviceData, so its provider owns its
	// lifetime; see store.RestoreDevice.
	StoreParams store.Params
	DeviceData  []byte
	// Padded says DeviceData is instead a block-granular device, every
	// extent at its Start block and every list padded to whole blocks, as
	// format-v1 snapshots hold it: Restore packs it into a copy, rewriting
	// the layout's lengths and offsets in place.
	Padded bool
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
// Tables whose rebuilt document-hash, dictionary, name, authority or
// document-root tree does not reproduce the manifest's root are refused
// with a plain error.
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
	if _, err := store.NewDevice(st.StoreParams); err != nil {
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
	// the extents must tile the device in order, and a list's length must
	// be the encoding of its ft entries — otherwise a hostile snapshot could
	// steer the query path off the end of an extent.
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
	// encoded is the length an extent's payload must have, or -1 for a
	// document record, whose length its header checks when it is read.
	encoded := func(what string, i int) (int64, error) {
		perBlock, hdr := rho, hashSize+4
		switch what {
		case "doc":
			return -1, nil
		case "plain":
			perBlock, hdr = plainPerBlock, 0
		}
		ft := idx.FT(index.TermID(i))
		if ft == 0 {
			return 0, fmt.Errorf("engine: restore: term %d has an empty list", i)
		}
		return listLength(ft, perBlock, hdr, blockSize), nil
	}
	data := st.DeviceData
	if st.Padded {
		if data, err = unpad(st, encoded); err != nil {
			return nil, err
		}
	}
	// In device order, each extent takes the next blocks and the next
	// bytes, as many as its length needs, and the last ends the data.
	var blocks, off int64
	err = st.Layout.Walk(func(what string, i int, ext *store.Extent) error {
		want, err := encoded(what, i)
		if err != nil {
			return err
		}
		if ext.Length < 0 {
			return fmt.Errorf("engine: restore: %s extent %d has a negative length", what, i)
		}
		if want >= 0 && ext.Length != want {
			return fmt.Errorf("engine: restore: %s extent %d is %d bytes, its entries encode to %d",
				what, i, ext.Length, want)
		}
		if ext.Length > int64(len(data))-off {
			return fmt.Errorf("engine: restore: %s extent %d runs past the device data", what, i)
		}
		if ext.Start != store.Addr(blocks) || ext.Blocks != store.BlocksFor(ext.Length, blockSize) || ext.Off != off {
			return fmt.Errorf("engine: restore: %s extent %d out of place", what, i)
		}
		blocks += int64(ext.Blocks)
		off += ext.Length
		return nil
	})
	if err != nil {
		return nil, err
	}
	if off != int64(len(data)) {
		return nil, fmt.Errorf("engine: restore: %d device bytes past the last extent", int64(len(data))-off)
	}
	dev, err := store.RestoreDevice(st.StoreParams, data, blocks)
	if err != nil {
		return nil, err
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
	if err := c.buildTrees(len(m.DocRootTreeRoot) != 0); err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	if err := c.checkTreeRoots(); err != nil {
		return nil, err
	}
	return c, nil
}

// unpad packs a block-granular device (State.Padded) into a fresh buffer:
// each extent's payload — a list's cut to the length of its entries — in
// device order, its length and offset rewritten to the packed ones. It only
// keeps the copies on the old device; Restore checks the packed result.
func unpad(st *State, encoded func(what string, i int) (int64, error)) ([]byte, error) {
	old := st.DeviceData
	blockSize := int64(st.StoreParams.BlockSize)
	if int64(len(old))%blockSize != 0 {
		return nil, fmt.Errorf("engine: restore: %d bytes not a multiple of block size %d", len(old), blockSize)
	}
	// at returns where an extent's payload starts on the old device and
	// the length it keeps, both checked against the device.
	at := func(what string, i int, ext *store.Extent) (int64, int64, error) {
		n, err := encoded(what, i)
		if err != nil {
			return 0, 0, err
		}
		if n < 0 {
			n = ext.Length
		}
		if n < 0 || n > ext.Length {
			return 0, 0, fmt.Errorf("engine: restore: %s extent %d is %d bytes, its entries encode to %d",
				what, i, ext.Length, n)
		}
		if ext.Start < 0 || int64(ext.Start) > int64(len(old))/blockSize || n > int64(len(old))-int64(ext.Start)*blockSize {
			return 0, 0, fmt.Errorf("engine: restore: %s extent %d off-device", what, i)
		}
		return int64(ext.Start) * blockSize, n, nil
	}
	var size int64
	err := st.Layout.Walk(func(what string, i int, ext *store.Extent) error {
		_, n, err := at(what, i, ext)
		size += n
		return err
	})
	if err != nil {
		return nil, err
	}
	packed := make([]byte, 0, size)
	st.Layout.Walk(func(what string, i int, ext *store.Extent) error {
		from, n, _ := at(what, i, ext)
		ext.Length, ext.Off = n, int64(len(packed))
		packed = append(packed, old[from:from+n]...)
		return nil
	})
	return packed, nil
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
	if err := check("document-root", c.docRootTree, m.DocRootTreeRoot); err != nil {
		return err
	}
	return check("authority", c.authorityTree, m.AuthorityRoot)
}
