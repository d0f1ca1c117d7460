package engine

import (
	"fmt"

	"authtext/internal/core"
	"authtext/internal/mht"
)

// Cap returns the collection's proof cap of depth d (core.Cap's wire
// layout): the depth-d frontier of every collection-level tree the manifest
// signs, cut from the materialised trees. A client that holds it verified
// can take SearchCapped answers cut at depth d or above. The bytes are
// computed once per depth and shared: callers must not modify them.
func (c *Collection) Cap(d int) ([]byte, error) {
	if d < 1 || d > mht.MaxCapDepth {
		return nil, fmt.Errorf("engine: cap depth %d outside [1,%d]", d, mht.MaxCapDepth)
	}
	if p := c.caps[d].Load(); p != nil {
		return *p, nil
	}
	b := []byte{byte(d)}
	for _, t := range core.CapTrees(c.manifest) {
		b = c.capTree(t).AppendFrontier(b, d)
	}
	c.caps[d].CompareAndSwap(nil, &b)
	return *c.caps[d].Load(), nil
}

// capTree returns the materialised tree t names.
func (c *Collection) capTree(t core.CapTree) *mht.Tree {
	switch t {
	case core.CapDocHash:
		return c.docTree
	case core.CapNameDict:
		return c.nameTree
	case core.CapAuthority:
		return c.authorityTree
	case core.CapDocRoot:
		return c.docRootTree
	}
	return c.dictTrees[t-core.CapDict]
}
