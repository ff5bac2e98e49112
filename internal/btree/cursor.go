package btree

import (
	"bytes"
	"errors"
	"fmt"

	"rql/internal/storage"
)

// errUnpositioned is ReplaceKey's error on a cursor that is not on a
// current entry.
var errUnpositioned = errors.New("btree: cursor is not on an entry of the tree as it is")

// Cursor iterates a tree's entries in key order, looks keys up and
// writes them. Key and Value return slices into the underlying page;
// they are valid until the next cursor movement or write and must not be
// modified.
//
// A cursor holds the leaf it last landed on, tagged with its tree's
// Reopen count and its pager's Writes count. Find, Seek, Put and Delete
// search that leaf alone, asking the pager for nothing, when both tags
// are current and the leaf covers the key: its first and last keys
// bracket it, or it lies beyond the last key of the tree's last leaf, or
// before the first key of its first leaf (so ascending appends land
// without a descent); otherwise they descend from the root. Last, too,
// answers from a held last leaf. A Reopen,
// and a write through any other handle on the same pager, retires the
// leaf, so a lookup is always answered from the tree as it is. A write
// the cursor makes inside its leaf (Put, Delete, ReplaceKey) keeps it:
// the cursor holds the page's writable copy, tagged with the pager's new
// Writes count. A write that restructures the tree (a split, a freed
// leaf, a key moved past a leaf's edge) is Tree's path-based one and
// retires the leaf. Next does not re-land: after a write through another
// handle the cursor must be repositioned (First, Last, Seek, Find)
// before Next.
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
	if err := c.holdEdge(false); err != nil {
		return false, err
	}
	c.idx = 0
	c.valid = c.leaf.numCells() > 0
	if !c.valid {
		// An empty leaf mid-chain cannot exist (empty leaves are
		// freed), but an empty root leaf can.
		return c.advanceLeaf()
	}
	return true, nil
}

// holdEdge descends from the root along every node's first child (its
// last, when last) and holds the leaf it reaches.
func (c *Cursor) holdEdge(last bool) error {
	id := c.tree.root
	for {
		n, err := c.tree.page(id)
		if err != nil {
			return err
		}
		if n.isLeaf() {
			c.hold(n)
			return nil
		}
		if n.numCells() == 0 {
			return ErrCorrupt
		}
		i := 0
		if last {
			i = n.numCells() - 1
		}
		_, child, err := n.interiorCell(i)
		if err != nil {
			return err
		}
		id = child
	}
}

// hold makes n the cursor's leaf, current as of the tree's Reopen count
// and its pager's Writes.
func (c *Cursor) hold(n node) { c.leaf, c.gen, c.writes = n, c.tree.gen, c.tree.pager.Writes() }

// current reports whether the held leaf is still the tree's: no Reopen
// and no write through the pager since the cursor last tagged it.
func (c *Cursor) current() bool {
	return c.leaf.data != nil && c.gen == c.tree.gen && c.writes == c.tree.pager.Writes()
}

// retire drops the held leaf: the cursor's next landing descends.
func (c *Cursor) retire() { c.leaf, c.valid = node{}, false }

// land puts the cursor on the leaf that covers key, at the first cell
// >= key (the leaf's cell count when every key there is smaller), and
// reports whether that cell holds key. It is the one lookup routine
// behind Find, Seek, Put, Delete and Tree.Get: the held leaf answers
// when it is still current and covers key, since the leaves partition
// the key space in order; any other key descends from the root. A
// positioned cursor first compares key with the cell it is on: a write
// of the key a lookup just found, and an append past the last cell of
// the tree's last leaf, land with that one comparison. The cursor is
// left unpositioned.
func (c *Cursor) land(key []byte) (found bool, err error) {
	if c.Positioned() {
		k, err := c.leaf.cellKey(c.idx)
		if err != nil {
			return false, err
		}
		switch cmp := bytes.Compare(key, k); {
		case cmp == 0:
			c.valid = false
			return true, nil
		case cmp > 0 && c.idx == c.leaf.numCells()-1 && c.leaf.next() == 0:
			c.valid = false
			c.idx++
			return false, nil
		}
	}
	c.valid = false
	if !c.current() || !c.covers(key) {
		n, err := c.tree.descend(key)
		if err != nil {
			return false, err
		}
		c.hold(n)
	}
	c.idx, found, err = c.leaf.searchLeaf(key)
	return found, err
}

// covers reports whether a descent for key would reach the held leaf:
// key lies between the leaf's first and last keys, both included; or
// above its first key when no leaf follows it, since every routing key
// on the path to the tree's last leaf is at most that first key; or
// below its last key when no leaf precedes it, since the first leaf's
// keys sort below every routing key but the -inf of the leftmost path.
// Only the root of an empty tree is an empty leaf, and it covers every
// key.
func (c *Cursor) covers(key []byte) bool {
	n := c.leaf.numCells()
	if n == 0 {
		return c.leaf.next() == 0 && c.leaf.prev() == 0
	}
	if c.leaf.next() != 0 {
		last, err := c.leaf.cellKey(n - 1)
		if err != nil || bytes.Compare(key, last) > 0 {
			return false
		}
	}
	if c.leaf.prev() != 0 {
		first, err := c.leaf.cellKey(0)
		if err != nil || bytes.Compare(key, first) < 0 {
			return false
		}
	}
	return true
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

// Last positions the cursor at the largest key. A held leaf that no
// leaf follows answers without a descent.
func (c *Cursor) Last() (bool, error) {
	c.valid = false
	if !c.current() || c.leaf.next() != 0 {
		if err := c.holdEdge(true); err != nil {
			return false, err
		}
	}
	// Emptied leaves are freed, so only an empty tree's root is empty.
	c.idx = c.leaf.numCells() - 1
	c.valid = c.idx >= 0
	return c.valid, nil
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

// Positioned reports whether the cursor is on an entry of the tree as
// it is now: Find, Seek, First, Last or Next put it there, and no write
// through another handle has retired its leaf since.
func (c *Cursor) Positioned() bool { return c.valid && c.current() }

// Retag tells the cursor that every write through its pager since the
// pager's Writes count was since went to pages of other trees. Trees
// share no page, so a cursor whose leaf was current at since still
// holds the tree's page: it keeps it, tagged with the count now. A
// caller that writes through cursors of several trees of one pager calls
// it on the others after each write; any other write still retires the
// leaf.
func (c *Cursor) Retag(since uint64) {
	if c.leaf.data != nil && c.gen == c.tree.gen && c.writes == since {
		c.writes = c.tree.pager.Writes()
	}
}

// writable makes the held leaf the pager's writable copy of the page
// and holds that copy, tagged with the pager's Writes count after the
// GetMut: the write the caller makes in it keeps the leaf current.
func (c *Cursor) writable() (node, error) {
	n, err := c.tree.pageMut(c.leaf.id)
	if err != nil {
		c.retire()
		return node{}, err
	}
	c.hold(n)
	return n, nil
}

// Put stores value under key, replacing any existing value, in the leaf
// the cursor lands on: an overwrite in place when the new cell is no
// larger than the one it replaces (as Tree.Insert does), else an insert
// into the leaf when the cell fits there, and the cursor is left on the
// entry, its leaf kept. A cell the leaf cannot take is Tree.Insert's,
// whose split retires the leaf.
func (c *Cursor) Put(key, value []byte) error {
	if len(key)+len(value)+cellOverhead > MaxCellPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooBig, len(key)+len(value))
	}
	found, err := c.land(key)
	if err != nil {
		return err
	}
	size, replaced := leafCellSize(key, value), 0
	if found {
		old, err := c.leaf.rawCell(c.idx)
		if err != nil {
			return err
		}
		replaced = len(old)
	}
	if size > replaced && !c.leaf.fits(size, replaced) {
		c.retire()
		return c.tree.Insert(key, value)
	}
	leaf, err := c.writable()
	if err != nil {
		return err
	}
	switch {
	case size <= replaced:
		putLeafCell(leaf.data[leaf.cellPtr(c.idx):], key, value)
	case found:
		leaf.removeCell(c.idx)
		fallthrough
	default:
		if err := leaf.insertLeafCell(c.idx, key, value); err != nil {
			c.retire()
			return err
		}
	}
	c.valid = true
	return nil
}

// Delete removes key from the leaf the cursor lands on, reporting
// whether it was present, and leaves the cursor unpositioned on that
// leaf. Removing a leaf's only cell frees the leaf: that is
// Tree.Delete's, which retires it.
func (c *Cursor) Delete(key []byte) (bool, error) {
	found, err := c.land(key)
	if err != nil || !found {
		return false, err
	}
	if c.leaf.numCells() == 1 && c.leaf.id != c.tree.root {
		c.retire()
		return c.tree.Delete(key)
	}
	leaf, err := c.writable()
	if err != nil {
		return false, err
	}
	leaf.removeCell(c.idx)
	return true, nil
}

// ReplaceKey moves the entry the cursor is on to key, keeping its value.
// When key has the old key's length and still sorts strictly between the
// entry's neighbours in the leaf, the key bytes are overwritten in place:
// no cell moves, the free space is untouched, and the cursor stays on
// the entry. A first cell moving down has no neighbour to pass when no
// leaf precedes its leaf, nor a last cell moving up when none follows.
// Any other rewrite (a key of another length, one that passes a
// neighbour, or a move past the leaf's edge, which a routing key may
// bound) is the tree's path-based one, which retires the leaf. An entry
// already stored under key is replaced.
func (c *Cursor) ReplaceKey(key []byte) error {
	if !c.Positioned() {
		return errUnpositioned
	}
	old, _, err := c.leaf.leafCell(c.idx)
	if err != nil || bytes.Equal(old, key) {
		return err
	}
	if len(key) == len(old) && c.between(old, key) {
		leaf, err := c.writable()
		if err != nil {
			return err
		}
		p := leaf.cellPtr(c.idx) + uvarintLen(uint64(len(old)))
		copy(leaf.data[p:p+len(key)], key)
		return nil
	}
	old = append([]byte(nil), old...) // it points into the leaf the rewrite changes
	c.retire()
	_, err = c.tree.replaceKey(old, key)
	return err
}

// between reports whether key, replacing old at the cursor's cell, still
// sorts strictly between the cell's neighbours in the leaf. Only the
// side key moves towards needs checking.
func (c *Cursor) between(old, key []byte) bool {
	if bytes.Compare(key, old) > 0 {
		if c.idx+1 == c.leaf.numCells() {
			return c.leaf.next() == 0
		}
		next, err := c.leaf.cellKey(c.idx + 1)
		return err == nil && bytes.Compare(key, next) < 0
	}
	if c.idx == 0 {
		return c.leaf.prev() == 0
	}
	prev, err := c.leaf.cellKey(c.idx - 1)
	return err == nil && bytes.Compare(key, prev) > 0
}
