package btree

import "rql/internal/storage"

// Cursor iterates a tree's entries in key order. Key and Value return
// slices into the underlying page; they are valid until the next cursor
// movement and must not be modified. The cursor must not be used across
// mutations of the tree.
type Cursor struct {
	tree  *Tree
	leaf  node
	idx   int
	valid bool
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
			c.leaf, c.idx = n, 0
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

// Seek positions the cursor at the first key >= key.
func (c *Cursor) Seek(key []byte) (bool, error) {
	leafID, err := c.tree.descend(key)
	if err != nil {
		return false, err
	}
	n, err := c.tree.page(leafID)
	if err != nil {
		return false, err
	}
	idx, _, err := n.searchLeaf(key)
	if err != nil {
		return false, err
	}
	c.leaf, c.idx = n, idx
	if idx >= n.numCells() {
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
		c.leaf, c.idx = n, 0
		if n.numCells() > 0 {
			c.valid = true
			return true, nil
		}
	}
}

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.valid }

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
