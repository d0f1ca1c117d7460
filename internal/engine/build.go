package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/mht"
	"authtext/internal/okapi"
	"authtext/internal/sig"
	"authtext/internal/store"
)

// Config controls collection construction.
type Config struct {
	Store    store.Params
	HashSize int
	// Signer produces the owner's signatures (RSA-1024 for fidelity; the
	// experiment harness may substitute the fast keyed-hash signer).
	Signer           sig.Signer
	Okapi            okapi.Params
	RemoveSingletons bool
	// DictMode enables the dictionary-MHT space optimisation (§3.4): no
	// per-list signatures; one root per structure kind in the manifest.
	DictMode bool
	// VocabProofs enables the out-of-dictionary non-membership extension.
	VocabProofs bool
	// Authority enables the §5 authority-boost extension: per-document
	// static authority scores in [0, 1] (e.g. normalised PageRank), one per
	// input document. Scores become S(d|Q) + Beta·A(d) for matching
	// documents.
	Authority []float64
	// Beta is the authority weight β (ignored unless Authority is set).
	Beta float64
	// Generation numbers the publication state for live collections
	// (docs/UPDATES.md): 0 builds a static collection with the original
	// manifest encoding; values ≥ 1 are signed into the manifest and
	// stamped into every VO the collection serves.
	Generation uint64
	// FixedAvgLen pins the Okapi average document length (see
	// index.Options.FixedAvgLen); 0 computes it from the corpus.
	FixedAvgLen float64
	// Tombstones marks removed document slots of a live collection
	// (Tombstones[d] == true ⇒ slot d is dead). Tombstoned documents stay
	// fully indexed — postings and records are exactly those of a
	// collection where the slot is live, so document IDs never shift
	// between generations — but the signed manifest commits the removal
	// bitmap and search/verification skip the slots. nil or
	// all-false means no tombstones. Requires Generation ≥ 1.
	Tombstones []bool
	// SpareCore keeps one core out of the build's compute phase. Set it for
	// a build that runs beside a serving path — a live rebuild, whose
	// readers are still on the previous generation. With every core in the
	// build the Go runtime has no idle P left to poll the network, sockets
	// are looked at every 10 ms, and the readers' tail latency pays for it
	// (bench live_updates on two cores: p95 2.5 → 16 ms, p99 8 → 40 ms).
	SpareCore bool
	// Variants is the set of structure kinds to build, sign and lay out;
	// zero builds all four. It is committed in the signed manifest, and
	// Search refuses any other kind with core.ErrVariantNotBuilt.
	Variants core.VariantSet
}

// DefaultConfig returns the paper's parameters; the caller must supply a
// Signer.
func DefaultConfig(signer sig.Signer) Config {
	return Config{
		Store:            store.DefaultParams(),
		HashSize:         sig.DefaultHashSize,
		Signer:           signer,
		Okapi:            okapi.DefaultParams(),
		RemoveSingletons: true,
	}
}

// BuildStats reports owner-side construction costs.
type BuildStats struct {
	BuildTime  time.Duration
	Signatures int
}

// SpaceReport breaks down storage consumption, for the §4.1 space-overhead
// claims (TNRA < 1 % over a plain index+corpus, TRA ≈ 25 %).
type SpaceReport struct {
	ContentBytes   int64
	PlainListBytes int64
	ChainTRABytes  int64
	ChainTNRABytes int64
	DocRecordBytes int64
	TermSigBytes   int64
	DeviceBytes    int64
}

// Collection is a published, queryable, authenticated document collection:
// the in-memory dictionary, the on-device structures, the owner's
// signatures and the signed manifest.
//
// Immutability contract: once BuildCollection (or Restore) returns, the
// inputs are immutable — the index, the device blocks, the layout tables, the
// signatures and the collection-level Merkle trees never change. The one
// thing that does is a cache of digests derived from them: the per-document
// trees (vecTrees) fill lazily through atomic publication, and readers never
// block. Search therefore takes no lock; all per-query mutable state (the
// simulated disk head, the I/O statistics, the proof arenas) is private to
// each call, and any number of Searches and VerifyResults may run
// concurrently. The only writers of the inputs are the build path itself and
// the test-only Device().Corrupt, which must not run concurrently with
// queries.
type Collection struct {
	idx *index.Index
	dev *store.Device
	cfg Config

	baseHasher sig.Hasher
	hasher     mht.Hasher
	verifier   sig.Verifier

	layout    Layout
	termSigs  [4][][]byte // [kind-1][termID]; nil in dict mode and for unbuilt kinds
	termRoots [4][][]byte // dictionary-MHT leaves, nil for unbuilt kinds; exported with the state
	docHash   [][]byte    // h(doc) leaves; exported with the state
	// authority holds the pinned per-document authority scores (boost
	// extension); nil when disabled.
	authority []float32
	boost     *core.Boost

	// Collection-level Merkle trees, materialised once (buildTrees) so a
	// query's proofs copy stored digests instead of re-hashing the
	// collection. Derived state: rebuilt on Restore, never persisted.
	docTree       *mht.Tree    // over docHash
	docRootTree   *mht.Tree    // over DocRootMessage(d, …); dictionary-mode TRA only
	dictTrees     [4]*mht.Tree // over termRoots[k]; dictionary mode only
	nameTree      *mht.Tree    // over VocabLeaf(name); vocab-proof mode only
	authorityTree *mht.Tree    // over ⟨d, A(d)⟩; boost extension only
	// caps memoises the encoded proof cap of each depth (Cap).
	caps [mht.MaxCapDepth + 1]atomic.Pointer[[]byte]
	// Per-document trees over the term vectors, for TRA's document proofs:
	// derived state too, but filled as queries encounter the documents.
	vecTrees *vecTrees

	manifest    *core.Manifest
	manifestSig []byte

	buildStats BuildStats
	space      SpaceReport
}

// BuildCollection indexes the documents and constructs the authentication
// structures of cfg.Variants (all four algorithm/scheme combinations by
// default): the plain list layout for an MHT kind, the chained layout of a
// CMHT kind, list roots per built kind, document records with their
// document-MHT roots for a TRA kind — and always the document-hash tree and
// the signed manifest. In list mode every list and document root is signed
// on its own; in dictionary mode the dictionary trees and the document-root
// tree commit them, and the manifest's is the one signature.
//
// Hashing and signing — nearly all of the build — run on every core (all but
// one with cfg.SpareCore; computeThenLayout), while the device is laid out
// sequentially in document then term order, so extents, snapshot bytes and
// VOs do not depend on GOMAXPROCS. cfg.Signer is called from several
// goroutines at once.
func BuildCollection(docs []index.Document, cfg Config) (*Collection, error) {
	start := time.Now()
	if cfg.Signer == nil {
		return nil, errors.New("engine: config needs a signer")
	}
	if cfg.HashSize == 0 {
		cfg.HashSize = sig.DefaultHashSize
	}
	if cfg.Store.BlockSize == 0 {
		cfg.Store = store.DefaultParams()
	}
	if cfg.Okapi.K1 == 0 && cfg.Okapi.B == 0 {
		cfg.Okapi = okapi.DefaultParams()
	}
	set := cfg.Variants.Resolve()
	if set&^core.AllVariants != 0 {
		return nil, fmt.Errorf("engine: variant set %#x names no structure kind", uint8(cfg.Variants))
	}
	baseHasher, err := sig.NewHasher(cfg.HashSize)
	if err != nil {
		return nil, err
	}
	idx, err := index.Build(docs, index.Options{Okapi: cfg.Okapi, RemoveSingletons: cfg.RemoveSingletons,
		FixedAvgLen: cfg.FixedAvgLen})
	if err != nil {
		return nil, err
	}
	dev, err := store.NewDevice(cfg.Store)
	if err != nil {
		return nil, err
	}

	c := &Collection{
		idx:        idx,
		dev:        dev,
		cfg:        cfg,
		baseHasher: baseHasher,
		hasher:     mht.NewHasher(baseHasher),
		verifier:   cfg.Signer.Verifier(),
	}
	workers := runtime.GOMAXPROCS(0)
	if cfg.SpareCore && workers > 1 {
		workers--
	}

	// Documents: content hashes always (the document-hash tree authenticates
	// every TNRA answer's contents); records — leaves, document-MHT roots,
	// signed one by one in list mode — only for TRA's random accesses.
	c.docHash = make([][]byte, idx.N)
	if set.HasTRA() {
		c.layout.Doc = make([]store.Extent, idx.N)
	}
	err = computeThenLayout(idx.N, workers, func(d int) ([]byte, error) {
		ch := baseHasher.Sum(idx.Content[d])
		c.docHash[d] = ch
		if !set.HasTRA() {
			return nil, nil
		}
		vec := idx.DocVector(index.DocID(d))
		root := mht.RootFunc(c.hasher, len(vec), core.TermFreqLeaves(vec))
		if cfg.DictMode {
			// The document-root tree authenticates the root (buildTrees),
			// which the record keeps for the tree to be rebuilt from.
			return encodeDocRecord(vec, ch, root), nil
		}
		msg := core.DocRootMessage(index.DocID(d), uint32(len(vec)), ch, root)
		sigBytes, err := cfg.Signer.Sign(msg)
		if err != nil {
			return nil, fmt.Errorf("engine: sign doc %d: %w", d, err)
		}
		return encodeDocRecord(vec, ch, sigBytes), nil
	}, func(d int, rec []byte) {
		c.space.ContentBytes += int64(len(idx.Content[d]))
		if set.HasTRA() {
			c.layout.Doc[d] = dev.AllocWrite(rec)
			c.space.DocRecordBytes += int64(len(rec))
		}
	})
	if err != nil {
		return nil, err
	}

	// Inverted lists: the plain blocks an MHT kind reads, the chain layout
	// of each CMHT kind, one signed root per built kind.
	m := idx.M()
	rho := core.ChainRho(cfg.Store.BlockSize, cfg.HashSize)
	if set.HasMHT() {
		c.layout.Plain = make([]store.Extent, m)
	}
	if set.Has(core.KindTRACMHT) {
		c.layout.ChainTRA = make([]store.Extent, m)
	}
	if set.Has(core.KindTNRACMHT) {
		c.layout.ChainTNRA = make([]store.Extent, m)
	}
	kinds := set.Kinds()
	for _, kind := range kinds {
		c.termRoots[kind-1] = make([][]byte, m)
		if !cfg.DictMode {
			c.termSigs[kind-1] = make([][]byte, m)
		}
	}
	// listBytes is one term's on-device encodings, nil where not built.
	type listBytes struct{ plain, chainTRA, chainTNRA []byte }
	err = computeThenLayout(m, workers, func(t int) (listBytes, error) {
		tid := index.TermID(t)
		ps := idx.List(tid)
		ft := uint32(len(ps))
		name := idx.Name(tid)

		// A TRA and a TNRA structure differ only in their leaves (doc ids
		// against ⟨d, f⟩ pairs); each is a whole-list MHT or a chain.
		var roots [4][]byte
		var b listBytes
		for _, s := range []struct {
			tree, chain core.StructureKind
			out         *[]byte
		}{{core.KindTRAMHT, core.KindTRACMHT, &b.chainTRA}, {core.KindTNRAMHT, core.KindTNRACMHT, &b.chainTNRA}} {
			if !set.Has(s.tree) && !set.Has(s.chain) {
				continue
			}
			leaves := s.chain.ListLeaves(ps)
			if set.Has(s.tree) {
				roots[s.tree-1] = mht.Root(c.hasher, leaves)
			}
			if set.Has(s.chain) {
				digests := core.ChainDigests(c.hasher, leaves, rho)
				roots[s.chain-1] = digests[0]
				*s.out = encodeChainList(ps, digests, cfg.Store.BlockSize, cfg.HashSize, rho)
			}
		}
		if set.HasMHT() {
			b.plain = encodePlainList(ps, cfg.Store.BlockSize)
		}
		for _, kind := range kinds {
			c.termRoots[kind-1][t] = roots[kind-1]
			if cfg.DictMode {
				continue
			}
			msg := core.TermRootMessage(kind, name, tid, ft, roots[kind-1])
			sb, err := cfg.Signer.Sign(msg)
			if err != nil {
				return listBytes{}, fmt.Errorf("engine: sign term %q kind %d: %w", name, kind, err)
			}
			c.termSigs[kind-1][t] = sb
		}
		return b, nil
	}, func(t int, b listBytes) {
		if set.HasMHT() {
			c.layout.Plain[t] = dev.AllocWrite(b.plain)
			c.space.PlainListBytes += int64(len(b.plain))
		}
		if set.Has(core.KindTRACMHT) {
			c.layout.ChainTRA[t] = dev.AllocWrite(b.chainTRA)
			c.space.ChainTRABytes += int64(len(b.chainTRA))
		}
		if set.Has(core.KindTNRACMHT) {
			c.layout.ChainTNRA[t] = dev.AllocWrite(b.chainTNRA)
			c.space.ChainTNRABytes += int64(len(b.chainTNRA))
		}
	})
	if err != nil {
		return nil, err
	}

	manifest := &core.Manifest{
		N:                  uint32(idx.N),
		M:                  uint32(m),
		AvgLen:             idx.AvgLen,
		K1:                 cfg.Okapi.K1,
		B:                  cfg.Okapi.B,
		BlockSize:          uint32(cfg.Store.BlockSize),
		HashSize:           uint8(cfg.HashSize),
		DictMode:           cfg.DictMode,
		VocabProofsEnabled: cfg.VocabProofs,
		Generation:         cfg.Generation,
	}
	if set != core.AllVariants {
		manifest.Variants = set
	}
	if cfg.Tombstones != nil {
		if len(cfg.Tombstones) != idx.N {
			return nil, fmt.Errorf("engine: %d tombstone flags for %d documents", len(cfg.Tombstones), idx.N)
		}
		bm := make([]byte, (idx.N+7)/8)
		dead := 0
		for d, t := range cfg.Tombstones {
			if t {
				bm[d>>3] |= 1 << (d & 7)
				dead++
			}
		}
		if dead == idx.N {
			return nil, errors.New("engine: every document tombstoned")
		}
		if dead > 0 {
			if cfg.Generation == 0 {
				return nil, errors.New("engine: tombstones require a live collection (generation ≥ 1)")
			}
			manifest.Live = uint32(idx.N - dead)
			manifest.Tombstones = bm
		}
	}
	if cfg.Authority != nil {
		if len(cfg.Authority) != idx.N {
			return nil, fmt.Errorf("engine: %d authority scores for %d documents", len(cfg.Authority), idx.N)
		}
		if cfg.Beta < 0 {
			return nil, fmt.Errorf("engine: negative authority weight %v", cfg.Beta)
		}
		c.authority = make([]float32, idx.N)
		var amax float32
		for d, a := range cfg.Authority {
			if a < 0 || a > 1 {
				return nil, fmt.Errorf("engine: authority[%d] = %v outside [0,1]", d, a)
			}
			a32 := float32(a)
			c.authority[d] = a32
			if a32 > amax {
				amax = a32
			}
		}
		manifest.Boosted = true
		manifest.Beta = cfg.Beta
		manifest.AMax = float64(amax)
		auth := c.authority
		c.boost = &core.Boost{
			Beta: cfg.Beta,
			AMax: float64(amax),
			Authority: func(d index.DocID) float64 {
				return float64(auth[d])
			},
		}
	}
	if err := c.buildTrees(cfg.DictMode && set.HasTRA()); err != nil {
		return nil, err
	}
	manifest.DocHashRoot = c.docTree.Root()
	if c.docRootTree != nil {
		manifest.DocRootTreeRoot = c.docRootTree.Root()
	}
	for k, t := range c.dictTrees {
		if t != nil {
			manifest.DictRoots[k] = t.Root()
		}
	}
	if cfg.VocabProofs {
		manifest.NameDictRoot = c.nameTree.Root()
	}
	if c.authority != nil {
		manifest.AuthorityRoot = c.authorityTree.Root()
	}
	c.manifest = manifest
	c.manifestSig, err = cfg.Signer.Sign(manifest.Encode())
	if err != nil {
		return nil, fmt.Errorf("engine: sign manifest: %w", err)
	}

	// The manifest's signature, and in list mode one per document record
	// (TRA) and one per term list and built kind — the dictionary-MHT and
	// the document-root tree replace them in dictionary mode.
	nSigs := 1
	if !cfg.DictMode {
		if set.HasTRA() {
			nSigs += idx.N
		}
		nSigs += len(kinds) * m
		c.space.TermSigBytes = int64(len(kinds) * m * cfg.Signer.Size())
	}
	c.space.DeviceBytes = dev.SizeBytes()
	c.buildStats = BuildStats{BuildTime: time.Since(start), Signatures: nSigs}
	return c, nil
}

// buildTrees materialises the collection-level Merkle trees from the leaf
// tables and the configuration already in place (docHash, termRoots,
// authority, the document records, cfg): O(N+M) hashes once, so that no
// query hashes more than its own answer. The per-document trees only get
// their empty slots. docRoots says the records hold their document-MHT
// roots, for the document-root tree to commit, rather than signatures over
// them; the build fails only on a record that does not parse or holds no
// root.
func (c *Collection) buildTrees(docRoots bool) error {
	c.vecTrees = newVecTrees(c.idx, c.cfg.HashSize)
	c.docTree = mht.NewTree(c.hasher, len(c.docHash), mht.Leaves(c.docHash))
	if docRoots {
		// Leaf d is the message list mode would sign for document d, read
		// from the header of its record: the term vector is not re-hashed.
		leaves := make([][]byte, len(c.layout.Doc))
		sess := c.dev.NewSession()
		for d, ext := range c.layout.Doc {
			raw, err := sess.ReadExtent(ext)
			if err != nil {
				return err
			}
			n, contentHash, root, _, err := docRecordHeader(raw, c.cfg.HashSize)
			if err != nil {
				return fmt.Errorf("engine: document %d: %w", d, err)
			}
			if len(root) != c.cfg.HashSize {
				return fmt.Errorf("engine: document %d record holds a %d-byte root", d, len(root))
			}
			leaves[d] = core.DocRootMessage(index.DocID(d), uint32(n), contentHash, root)
		}
		c.docRootTree = mht.NewTree(c.hasher, len(leaves), mht.Leaves(leaves))
	}
	if c.cfg.DictMode {
		// A dictionary leaf is the message list mode would sign: the root
		// bound to its term's name, id and length, so one term's list cannot
		// answer for another.
		for _, kind := range c.cfg.Variants.Kinds() {
			roots := c.termRoots[kind-1]
			c.dictTrees[kind-1] = mht.NewTree(c.hasher, len(roots), func(_ []byte, t int) []byte {
				tid := index.TermID(t)
				return core.TermRootMessage(kind, c.idx.Name(tid), tid, uint32(c.idx.FT(tid)), roots[t])
			})
		}
	}
	if c.cfg.VocabProofs {
		c.nameTree = mht.NewTree(c.hasher, c.idx.M(), func(_ []byte, t int) []byte {
			return core.VocabLeaf(c.idx.Name(index.TermID(t)))
		})
	}
	if c.authority != nil {
		c.authorityTree = mht.NewTree(c.hasher, len(c.authority), func(_ []byte, d int) []byte {
			return core.EncodeAuthorityLeaf(index.DocID(d), c.authority[d])
		})
	}
	return nil
}

// Index exposes the underlying inverted index (dictionary pinned in memory).
func (c *Collection) Index() *index.Index { return c.idx }

// LiveDocs returns the number of live (non-tombstoned) documents; equal to
// Index().N unless the collection carries tombstones.
func (c *Collection) LiveDocs() int { return c.manifest.LiveDocs() }

// ContentDigest returns document d's content digest — its leaf in the
// document-hash tree, the digest a client's verification computes from the
// body — or nil for no such document. The slice is the collection's own and
// must not be modified.
func (c *Collection) ContentDigest(d index.DocID) []byte {
	if int(d) < 0 || int(d) >= len(c.docHash) {
		return nil
	}
	return c.docHash[d]
}

// deadPredicate returns the tombstone skip rule for the search algorithms,
// or nil when no slot is tombstoned (the common case pays nothing).
func (c *Collection) deadPredicate() func(index.DocID) bool {
	m := c.manifest
	if len(m.Tombstones) == 0 {
		return nil
	}
	return func(d index.DocID) bool { return m.IsTombstoned(uint32(d)) }
}

// Device exposes the simulated disk (tests use it for failure injection).
func (c *Collection) Device() *store.Device { return c.dev }

// Manifest returns the signed collection metadata and its signature.
func (c *Collection) Manifest() (*core.Manifest, []byte) { return c.manifest, c.manifestSig }

// Verifier returns the owner's public verification key.
func (c *Collection) Verifier() sig.Verifier { return c.verifier }

// BuildStats returns owner-side construction costs.
func (c *Collection) BuildStats() BuildStats { return c.buildStats }

// Space returns the storage breakdown.
func (c *Collection) Space() SpaceReport { return c.space }

// Layout exposes extent locations (tests use it for targeted corruption).
func (c *Collection) Layout() *Layout { return &c.layout }
