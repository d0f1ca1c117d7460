package engine

import (
	"sync/atomic"

	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/mht"
)

// vecTreeShare bounds the memory the per-document trees may hold, as a share
// of the device size. A tree takes 2·|h| bytes per term-vector entry; with
// every document materialised that is 12 % (Tiny) to 27 % (Medium) of the
// device at 16-byte digests and twice that at 32, because the device pads
// each record and each list to whole blocks. Half the device therefore lets
// every profile but Medium at 32-byte digests keep all its trees; past the
// bound the documents encountered first keep theirs and the others are
// hashed per query, as every document was before the cache existed.
const vecTreeShare = 0.5

// vecTrees holds the document-MHT of every document a TRA query has
// encountered so far, so that a document proof copies stored digests instead
// of re-hashing the term vector: the per-document counterpart of the
// collection-level trees, filled on first encounter because only a fraction
// of a large collection is ever proved from. Slots are published with a
// compare-and-swap and never replaced or evicted; readers never block.
//
// Only digests are kept. The record itself — leaves, content hash, signature
// — is read from the device by every query, so I/O accounting and a
// corrupted record behave as if there were no cache.
type vecTrees struct {
	slots    []atomic.Pointer[mht.Tree]
	resident atomic.Int64 // node bytes of the trees in slots
	limit    int64
	// hashed counts the term-vector entries hashed into trees so far — the
	// work the cache exists to do once; it stands still on a warm collection.
	hashed atomic.Int64
}

func newVecTrees(docs int, deviceBytes int64) *vecTrees {
	return &vecTrees{
		slots: make([]atomic.Pointer[mht.Tree], docs),
		limit: int64(float64(deviceBytes) * vecTreeShare),
	}
}

// tree returns the document-MHT over vec, document d's term vector as the
// device holds it now. A stored tree is used only if its shape still matches
// the record; a tree the bound (or a lost race) keeps out of the slot serves
// this one proof and is dropped.
func (vt *vecTrees) tree(h mht.Hasher, d index.DocID, vec []index.TermFreq) *mht.Tree {
	slot := &vt.slots[d]
	stored := slot.Load()
	if stored != nil && stored.Len() == len(vec) {
		return stored
	}
	t := mht.NewTree(h, len(vec), core.TermFreqLeaves(vec))
	vt.hashed.Add(int64(len(vec)))
	if stored == nil {
		size := int64(t.Bytes())
		if vt.resident.Add(size) > vt.limit || !slot.CompareAndSwap(nil, t) {
			vt.resident.Add(-size)
		}
	}
	return t
}
