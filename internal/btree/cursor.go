package btree

import (
	"bytes"

	"rql/internal/storage"
)

// Cursor iterates a tree's entries in key order and looks keys up.
// Key and Value return slices into the underlying page; they are valid
// until the next cursor movement and must not be modified.
//
// A cursor holds the leaf it last landed on, tagged with its tree's
// Reopen count and its pager's Writes count. Find and Seek search that
// leaf alone, asking the pager for nothing, when both tags are current
// and the leaf's first and last keys bracket the key; otherwise they
// descend from the root. A Reopen, and a write through any handle on the
// same pager, retires the leaf, so a Find or Seek is always answered
// from the tree as it is. Next does not re-land: after a write the
// cursor must be repositioned (First, Seek, Find) before Next.
type Cursor struct {
	tree   *Tree
	leaf   node
	gen    uint64 // tree.gen when leaf was landed on
	writes uint64 // tree.pager.Writes() when leaf was landed on
	idx    int
	valid  bool
}

// Cursor returns a new, unpositioned cursor.
func (t *Tree) Cursor() *Cursor { return &Cursor{tree: t} }

// First positions the cursor at the smallest key.
func (c *Cursor) First() (bool, error) {
	id := c.tree.root
	for {
		n, err := c.tree.page(id)
		if err != nil {
			return false, err
		}
		if n.isLeaf() {
			c.hold(n)
			c.idx = 0
			c.valid = n.numCells() > 0
			if !c.valid {
				// An empty leaf mid-chain cannot exist (empty leaves are
				// freed), but an empty root leaf can.
				return c.advanceLeaf()
			}
			return true, nil
		}
		if n.numCells() == 0 {
			return false, ErrCorrupt
		}
		_, child, err := n.interiorCell(0)
		if err != nil {
			return false, err
		}
		id = child
	}
}

// hold makes n the cursor's leaf, current as of the tree's Reopen count
// and its pager's Writes.
func (c *Cursor) hold(n node) { c.leaf, c.gen, c.writes = n, c.tree.gen, c.tree.pager.Writes() }

// land puts the cursor on the leaf that covers key, at the first cell
// >= key (the leaf's cell count when every key there is smaller), and
// reports whether that cell holds key. It is the one lookup routine
// behind Find, Seek and Tree.Get: the held leaf answers when it is
// still current and its first and last keys bracket key, since the
// leaves partition the key space in order; any other key descends from
// the root. The cursor is left unpositioned.
func (c *Cursor) land(key []byte) (found bool, err error) {
	c.valid = false
	if c.leaf.data == nil || c.gen != c.tree.gen || c.writes != c.tree.pager.Writes() || !c.brackets(key) {
		n, err := c.tree.descend(key)
		if err != nil {
			return false, err
		}
		c.hold(n)
	}
	c.idx, found, err = c.leaf.searchLeaf(key)
	return found, err
}

// brackets reports whether key lies between the held leaf's first and
// last keys, both included.
func (c *Cursor) brackets(key []byte) bool {
	n := c.leaf.numCells()
	if n == 0 {
		return false
	}
	last, err := c.leaf.cellKey(n - 1)
	if err != nil || bytes.Compare(key, last) > 0 {
		return false
	}
	first, err := c.leaf.cellKey(0)
	return err == nil && bytes.Compare(key, first) >= 0
}

// Find returns the value stored under key. When key is present the
// cursor is positioned on it; otherwise it is left unpositioned. Either
// way it keeps the leaf it landed on for the next Find or Seek, so
// looking up keys in ascending order costs one descent per leaf.
func (c *Cursor) Find(key []byte) ([]byte, bool, error) {
	found, err := c.land(key)
	if err != nil || !found {
		return nil, false, err
	}
	c.valid = true
	_, v, err := c.leaf.leafCell(c.idx)
	return v, true, err
}

// Seek positions the cursor at the first key >= key.
func (c *Cursor) Seek(key []byte) (bool, error) {
	if _, err := c.land(key); err != nil {
		return false, err
	}
	if c.idx >= c.leaf.numCells() {
		return c.advanceLeaf()
	}
	c.valid = true
	return true, nil
}

// Next advances to the next entry.
func (c *Cursor) Next() (bool, error) {
	if !c.valid {
		return false, nil
	}
	c.idx++
	if c.idx < c.leaf.numCells() {
		return true, nil
	}
	return c.advanceLeaf()
}

// advanceLeaf follows the leaf chain until a non-empty leaf is found.
func (c *Cursor) advanceLeaf() (bool, error) {
	for {
		next := c.leaf.next()
		if next == 0 {
			c.valid = false
			return false, nil
		}
		n, err := c.tree.page(storage.PageID(next))
		if err != nil {
			return false, err
		}
		c.hold(n)
		c.idx = 0
		if n.numCells() > 0 {
			c.valid = true
			return true, nil
		}
	}
}

// Entry returns the current entry's key and value from one decode of
// the cell (nil slices when the cursor is not positioned).
func (c *Cursor) Entry() (key, value []byte, err error) {
	if !c.valid {
		return nil, nil, nil
	}
	return c.leaf.leafCell(c.idx)
}

// Key returns the current entry's key.
func (c *Cursor) Key() []byte {
	k, _, _ := c.Entry()
	return k
}

// Value returns the current entry's value.
func (c *Cursor) Value() []byte {
	_, v, _ := c.Entry()
	return v
}
