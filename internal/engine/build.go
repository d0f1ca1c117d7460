package engine

import (
	"errors"
	"fmt"
	"runtime"
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
	// fully indexed — postings, records and their signatures are exactly
	// those of a collection where the slot is live, which is what lets a
	// caching signer reuse them — but the signed manifest commits the
	// removal bitmap and search/verification skip the slots. nil or
	// all-false means no tombstones. Requires Generation ≥ 1.
	Tombstones []bool
	// SpareCore keeps one core out of the build's compute phase. Set it for
	// a build that runs beside a serving path — a live rebuild, whose
	// readers are still on the previous generation. With every core in the
	// build the Go runtime has no idle P left to poll the network, sockets
	// are looked at every 10 ms, and the readers' tail latency pays for it
	// (bench live_updates on two cores: p95 2.5 → 16 ms, p99 8 → 40 ms).
	SpareCore bool
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
	termSigs  [4][][]byte // [kind-1][termID]; nil in dict mode
	termRoots [4][][]byte // dictionary-MHT leaves; exported with the state
	docHash   [][]byte    // h(doc) leaves; exported with the state
	// authority holds the pinned per-document authority scores (boost
	// extension); nil when disabled.
	authority []float32
	boost     *core.Boost

	// Collection-level Merkle trees, materialised once (buildTrees) so a
	// query's proofs copy stored digests instead of re-hashing the
	// collection. Derived state: rebuilt on Restore, never persisted.
	docTree       *mht.Tree    // over docHash
	dictTrees     [4]*mht.Tree // over termRoots[k]; dictionary mode only
	nameTree      *mht.Tree    // over VocabLeaf(name); vocab-proof mode only
	authorityTree *mht.Tree    // over ⟨d, A(d)⟩; boost extension only
	// Per-document trees over the term vectors, for TRA's document proofs:
	// derived state too, but filled as queries encounter the documents.
	vecTrees *vecTrees

	manifest    *core.Manifest
	manifestSig []byte

	buildStats BuildStats
	space      SpaceReport
}

// BuildCollection indexes the documents and constructs every authentication
// structure: plain and chained list layouts for all four algorithm/scheme
// combinations, document records with signed document-MHT roots, the
// document-hash tree, and the signed manifest.
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

	// Document records: leaves, content hashes, signed document-MHT roots.
	c.layout.Doc = make([]store.Extent, idx.N)
	c.docHash = make([][]byte, idx.N)
	err = computeThenLayout(idx.N, workers, func(d int) ([]byte, error) {
		vec := idx.DocVector(index.DocID(d))
		ch := baseHasher.Sum(idx.Content[d])
		c.docHash[d] = ch
		root := mht.RootFunc(c.hasher, len(vec), core.TermFreqLeaves(vec))
		msg := core.DocRootMessage(index.DocID(d), uint32(len(vec)), ch, root)
		sigBytes, err := cfg.Signer.Sign(msg)
		if err != nil {
			return nil, fmt.Errorf("engine: sign doc %d: %w", d, err)
		}
		return encodeDocRecord(vec, ch, sigBytes), nil
	}, func(d int, rec []byte) {
		c.layout.Doc[d] = dev.AllocWrite(rec)
		c.space.DocRecordBytes += int64(len(rec))
		c.space.ContentBytes += int64(len(idx.Content[d]))
	})
	if err != nil {
		return nil, err
	}

	// Inverted lists: plain blocks, two chain layouts, four signed roots.
	m := idx.M()
	rho := core.ChainRho(cfg.Store.BlockSize, cfg.HashSize)
	c.layout.Plain = make([]store.Extent, m)
	c.layout.ChainTRA = make([]store.Extent, m)
	c.layout.ChainTNRA = make([]store.Extent, m)
	for k := range c.termRoots {
		c.termRoots[k] = make([][]byte, m)
		if !cfg.DictMode {
			c.termSigs[k] = make([][]byte, m)
		}
	}
	kinds := []core.StructureKind{core.KindTRAMHT, core.KindTRACMHT, core.KindTNRAMHT, core.KindTNRACMHT}
	// listBytes is one term's three on-device encodings.
	type listBytes struct{ plain, chainTRA, chainTNRA []byte }
	err = computeThenLayout(m, workers, func(t int) (listBytes, error) {
		tid := index.TermID(t)
		ps := idx.List(tid)
		ft := uint32(len(ps))
		name := idx.Name(tid)

		traLeaves := core.KindTRACMHT.ListLeaves(ps)
		tnraLeaves := core.KindTNRACMHT.ListLeaves(ps)
		traChain := core.ChainDigests(c.hasher, traLeaves, rho)
		tnraChain := core.ChainDigests(c.hasher, tnraLeaves, rho)

		roots := [4][]byte{
			mht.Root(c.hasher, traLeaves),  // KindTRAMHT
			traChain[0],                    // KindTRACMHT
			mht.Root(c.hasher, tnraLeaves), // KindTNRAMHT
			tnraChain[0],                   // KindTNRACMHT
		}
		for k, kind := range kinds {
			c.termRoots[k][t] = roots[k]
			if cfg.DictMode {
				continue
			}
			msg := core.TermRootMessage(kind, name, tid, ft, roots[k])
			sb, err := cfg.Signer.Sign(msg)
			if err != nil {
				return listBytes{}, fmt.Errorf("engine: sign term %q kind %d: %w", name, kind, err)
			}
			c.termSigs[k][t] = sb
		}
		return listBytes{
			plain:     encodePlainList(ps, cfg.Store.BlockSize),
			chainTRA:  encodeChainList(ps, traChain, cfg.Store.BlockSize, cfg.HashSize, rho),
			chainTNRA: encodeChainList(ps, tnraChain, cfg.Store.BlockSize, cfg.HashSize, rho),
		}, nil
	}, func(t int, b listBytes) {
		c.layout.Plain[t] = dev.AllocWrite(b.plain)
		c.layout.ChainTRA[t] = dev.AllocWrite(b.chainTRA)
		c.layout.ChainTNRA[t] = dev.AllocWrite(b.chainTNRA)
		c.space.PlainListBytes += int64(len(b.plain))
		c.space.ChainTRABytes += int64(len(b.chainTRA))
		c.space.ChainTNRABytes += int64(len(b.chainTNRA))
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
	c.buildTrees()
	manifest.DocHashRoot = c.docTree.Root()
	if cfg.DictMode {
		for k, t := range c.dictTrees {
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

	// One signature per document record, four per term list unless the
	// dictionary-MHT replaces them, and the manifest's.
	nSigs := idx.N + 1
	if !cfg.DictMode {
		nSigs += 4 * m
		c.space.TermSigBytes = int64(4 * m * cfg.Signer.Size())
	}
	c.space.DeviceBytes = dev.SizeBytes()
	c.buildStats = BuildStats{BuildTime: time.Since(start), Signatures: nSigs}
	return c, nil
}

// buildTrees materialises the collection-level Merkle trees from the leaf
// tables and the configuration already in place (docHash, termRoots,
// authority, cfg): O(N+M) hashes once, so that no query hashes more than
// its own answer. The per-document trees only get their empty slots.
func (c *Collection) buildTrees() {
	c.vecTrees = newVecTrees(c.idx.N, c.dev.SizeBytes())
	c.docTree = mht.NewTree(c.hasher, len(c.docHash), mht.Leaves(c.docHash))
	if c.cfg.DictMode {
		for k, roots := range c.termRoots {
			c.dictTrees[k] = mht.NewTree(c.hasher, len(roots), mht.Leaves(roots))
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
}

// Index exposes the underlying inverted index (dictionary pinned in memory).
func (c *Collection) Index() *index.Index { return c.idx }

// LiveDocs returns the number of live (non-tombstoned) documents; equal to
// Index().N unless the collection carries tombstones.
func (c *Collection) LiveDocs() int { return c.manifest.LiveDocs() }

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
