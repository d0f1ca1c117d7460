package engine

import (
	"fmt"

	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/store"
)

// listCursor reads an inverted list block by block off the device through
// the query's store session, charging each block load against the cost
// model. Decoded entries are retained: the server needs the revealed prefix
// again for VO assembly, and chain-block headers carry the successor
// digests the chain proofs require.
type listCursor struct {
	sess     *store.Session
	ext      store.Extent
	total    int
	chain    bool
	hashSize int
	perBlock int

	consumed int
	loaded   int // highest loaded block index; -1 initially
	entries  []index.Posting
	nextDig  [][]byte // nextDig[j] = digest of block j+1, from block j's header
}

var _ core.Cursor = (*listCursor)(nil)
var _ core.PrefixReader = (*listCursor)(nil)

// deviceFault carries a block-read failure out of cursor methods that
// cannot return errors (core.Cursor has no error channel). It unwinds as
// a panic and Collection.Search recovers it at its boundary, so a
// poisoned device degrades to a failed query instead of a crashed
// server.
type deviceFault struct{ err error }

func newListCursor(sess *store.Session, ext store.Extent, total int, chain bool, blockSize, hashSize int) *listCursor {
	c := &listCursor{sess: sess, ext: ext, total: total, chain: chain, hashSize: hashSize, loaded: -1}
	if chain {
		c.perBlock = core.ChainRho(blockSize, hashSize)
	} else {
		c.perBlock = blockSize / entrySize
	}
	return c
}

func (c *listCursor) numBlocks() int { return (c.total + c.perBlock - 1) / c.perBlock }

// loadBlock reads and decodes block j (which must be loaded+1).
func (c *listCursor) loadBlock(j int) {
	raw, err := c.sess.ReadBlock(c.ext.Start + store.Addr(j))
	if err != nil {
		// The extent was written by the same build that sized it, so this
		// is either a layout bug or a poisoned device (a mapped snapshot
		// whose deferred checksum failed). core.Cursor has no error
		// channel; Search recovers the typed fault at its boundary.
		panic(deviceFault{fmt.Errorf("engine: list block read: %w", err)})
	}
	off := 0
	if c.chain {
		dig := make([]byte, c.hashSize)
		copy(dig, raw[:c.hashSize])
		c.nextDig = append(c.nextDig, dig)
		off = c.hashSize + 4
	}
	lo := j * c.perBlock
	hi := lo + c.perBlock
	if hi > c.total {
		hi = c.total
	}
	for i := lo; i < hi; i++ {
		c.entries = append(c.entries, getEntry(raw[off+(i-lo)*entrySize:]))
	}
	c.loaded = j
}

// Peek implements core.Cursor; fetching an entry loads its block.
func (c *listCursor) Peek() (index.Posting, bool) {
	if c.consumed >= c.total {
		return index.Posting{}, false
	}
	need := c.consumed / c.perBlock
	for c.loaded < need {
		c.loadBlock(c.loaded + 1)
	}
	return c.entries[c.consumed], true
}

// Advance implements core.Cursor.
func (c *listCursor) Advance() { c.consumed++ }

// Consumed implements core.Cursor.
func (c *listCursor) Consumed() int { return c.consumed }

// Len implements core.Cursor.
func (c *listCursor) Len() int { return c.total }

// Prefix implements core.PrefixReader; it loads any blocks needed to cover
// the first k entries (buddy padding stays within an already-loaded block,
// so this is normally free).
func (c *listCursor) Prefix(k int) []index.Posting {
	if k == 0 {
		return nil
	}
	need := (k - 1) / c.perBlock
	for c.loaded < need {
		c.loadBlock(c.loaded + 1)
	}
	return c.entries[:k]
}

// LoadAll reads the rest of the list and returns every entry.
func (c *listCursor) LoadAll() []index.Posting {
	for c.loaded < c.numBlocks()-1 {
		c.loadBlock(c.loaded + 1)
	}
	return c.entries
}

// FullListForProof re-reads the whole list from disk and returns all
// entries. The MHT variants regenerate the internal term-MHT digests during
// VO construction, and §4.1's setup prevents list blocks from being cached
// in memory — so this second pass pays full I/O even for blocks the query
// processing already fetched.
func (c *listCursor) FullListForProof() []index.Posting {
	raw, err := c.sess.ReadExtent(c.ext)
	if err != nil {
		panic(deviceFault{fmt.Errorf("engine: list extent read: %w", err)})
	}
	out := make([]index.Posting, c.total)
	blockSize := c.sess.BlockSize()
	hdr := 0
	if c.chain {
		hdr = c.hashSize + 4
	}
	for i := 0; i < c.total; i++ {
		blk := i / c.perBlock
		off := blk*blockSize + hdr + (i%c.perBlock)*entrySize
		out[i] = getEntry(raw[off:])
	}
	return out
}

// NextDigest returns the digest of block j+1 (stored in block j's header),
// or nil when block j is the last block. Block j must be loaded.
func (c *listCursor) NextDigest(j int) []byte {
	if j >= c.numBlocks()-1 {
		return nil
	}
	return c.nextDig[j]
}

// BlockEntries returns the entries of loaded block j.
func (c *listCursor) BlockEntries(j int) []index.Posting {
	lo := j * c.perBlock
	hi := lo + c.perBlock
	if hi > c.total {
		hi = c.total
	}
	return c.entries[lo:hi]
}

// recordingSource opens cursors and remembers them in open order so the VO
// assembly can revisit the revealed prefixes.
type recordingSource struct {
	open    func(t index.TermID) (*listCursor, error)
	cursors []*listCursor
}

func (s *recordingSource) OpenList(t index.TermID) (core.Cursor, error) {
	c, err := s.open(t)
	if err != nil {
		return nil, err
	}
	s.cursors = append(s.cursors, c)
	return c, nil
}

// carve returns k fresh elements off the end of the arena *a. When the
// current chunk has no room it is left to the slices already carved from it
// — they never move — and a chunk of at least twice its capacity is started,
// so a query allocates per growth step rather than per document.
func carve[T any](a *[]T, k int) []T {
	if cap(*a)-len(*a) < k {
		*a = make([]T, 0, max(k, 2*cap(*a), 1024))
	}
	lo := len(*a)
	*a = (*a)[:lo+k]
	return (*a)[lo : lo+k : lo+k]
}

// docSource provides TRA's random accesses from the document records
// through the query's store session, caching per query so each document
// costs at most one random I/O. The decoded term vectors live in one arena
// the whole query shares.
type docSource struct {
	col   *Collection
	sess  *store.Session
	cache map[index.DocID]docRecord
	vecs  []index.TermFreq
}

func newDocSource(col *Collection, sess *store.Session) *docSource {
	return &docSource{col: col, sess: sess, cache: make(map[index.DocID]docRecord)}
}

func (s *docSource) record(d index.DocID) (docRecord, error) {
	if rec, ok := s.cache[d]; ok {
		return rec, nil
	}
	if int(d) >= len(s.col.layout.Doc) {
		return docRecord{}, fmt.Errorf("engine: unknown document %d", d)
	}
	raw, err := s.sess.ReadExtent(s.col.layout.Doc[d])
	if err != nil {
		return docRecord{}, err
	}
	rec, err := decodeDocRecord(raw, int(s.col.manifest.HashSize), &s.vecs)
	if err != nil {
		return docRecord{}, err
	}
	s.cache[d] = rec
	return rec, nil
}

// DocVector implements core.DocVectorSource.
func (s *docSource) DocVector(d index.DocID) ([]index.TermFreq, error) {
	rec, err := s.record(d)
	if err != nil {
		return nil, err
	}
	return rec.vec, nil
}
