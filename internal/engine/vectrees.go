package engine

import (
	"sync/atomic"

	"authtext/internal/core"
	"authtext/internal/index"
	"authtext/internal/mht"
)

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

// newVecTrees sizes the cache for idx's documents at hashSize-byte digests.
// The bound is the trees' own size: every document's tree, 2·n−1 digests
// over n term-vector entries — about four times the term vectors' device
// bytes at 16-byte digests, eight at 32. It depends on the collection
// alone, never on the record format, and holds whatever answers the
// collection serves; past it (a test's smaller limit) the documents
// encountered first keep their trees and the others are hashed per query,
// as every document was before the cache existed.
func newVecTrees(idx *index.Index, hashSize int) *vecTrees {
	var limit int64
	for d := 0; d < idx.N; d++ {
		limit += int64(max(2*len(idx.DocVector(index.DocID(d)))-1, 1) * hashSize)
	}
	return &vecTrees{
		slots: make([]atomic.Pointer[mht.Tree], idx.N),
		limit: limit,
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
