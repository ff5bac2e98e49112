package btree

import (
	"bytes"
	"fmt"

	"rql/internal/storage"
)

// Tree is a B+tree rooted at a stable page id. A Tree is a lightweight
// handle: opening one performs no I/O. Trees opened over a writer
// transaction support mutation; trees opened over a read-only pager
// (an MVCC read transaction or a Retro snapshot reader) support lookups
// and scans only.
//
// Tree is not safe for concurrent use; concurrency is provided by the
// storage layer's transaction model.
type Tree struct {
	pager storage.Pager
	root  storage.PageID
}

// Create allocates and initializes an empty tree, returning its root
// page id (stable for the tree's lifetime).
func Create(pager storage.Pager) (storage.PageID, error) {
	id, err := pager.Allocate()
	if err != nil {
		return 0, err
	}
	data, err := pager.GetMut(id)
	if err != nil {
		return 0, err
	}
	initNode(node{id: id, data: data}, nodeLeaf)
	return id, nil
}

// Open returns a handle on the tree rooted at root.
func Open(pager storage.Pager, root storage.PageID) *Tree {
	return &Tree{pager: pager, root: root}
}

// Reopen points the handle, and every cursor made from it, at the tree
// rooted at root through pager: the same tree as of another snapshot.
// Cursors must be repositioned (First, Seek) before their next use.
func (t *Tree) Reopen(pager storage.Pager, root storage.PageID) { t.pager, t.root = pager, root }

// Root returns the tree's root page id.
func (t *Tree) Root() storage.PageID { return t.root }

func (t *Tree) page(id storage.PageID) (node, error) {
	data, err := t.pager.Get(id)
	if err != nil {
		return node{}, err
	}
	return node{id: id, data: data}, nil
}

func (t *Tree) pageMut(id storage.PageID) (node, error) {
	data, err := t.pager.GetMut(id)
	if err != nil {
		return node{}, err
	}
	return node{id: id, data: data}, nil
}

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	leafID, err := t.descend(key)
	if err != nil {
		return nil, false, err
	}
	leaf, err := t.page(leafID)
	if err != nil {
		return nil, false, err
	}
	idx, found, err := leaf.searchLeaf(key)
	if err != nil || !found {
		return nil, false, err
	}
	_, v, err := leaf.leafCell(idx)
	return v, true, err
}

// descend walks from the root to the leaf that covers key.
func (t *Tree) descend(key []byte) (storage.PageID, error) {
	id := t.root
	for {
		n, err := t.page(id)
		if err != nil {
			return 0, err
		}
		if n.isLeaf() {
			return id, nil
		}
		idx, err := n.searchInterior(key)
		if err != nil {
			return 0, err
		}
		_, child, err := n.interiorCell(idx)
		if err != nil {
			return 0, err
		}
		id = child
	}
}

// descendPath is like descend but records the (page, cell index) path,
// root first, for structure-modifying operations. The path is appended
// to the caller's buffer.
type pathElem struct {
	id  storage.PageID
	idx int
}

// pathDepth is the tree height a caller's stack-allocated path buffer
// covers without growing; deeper trees only cost an allocation.
const pathDepth = 8

func (t *Tree) descendPath(key []byte, path []pathElem) ([]pathElem, error) {
	id := t.root
	for {
		n, err := t.page(id)
		if err != nil {
			return nil, err
		}
		if n.isLeaf() {
			return append(path, pathElem{id: id}), nil
		}
		idx, err := n.searchInterior(key)
		if err != nil {
			return nil, err
		}
		_, child, err := n.interiorCell(idx)
		if err != nil {
			return nil, err
		}
		path = append(path, pathElem{id: id, idx: idx})
		id = child
	}
}

// Insert stores value under key, replacing any existing value. A
// replacement whose cell is no larger than the one it replaces is
// written over it in place: the leaf's cell order, pointer array and
// free space stay as they are, and whatever the new cell leaves unused
// is reclaimed by the next defragment like any removed cell's bytes.
func (t *Tree) Insert(key, value []byte) error {
	if len(key)+len(value)+cellOverhead > MaxCellPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooBig, len(key)+len(value))
	}
	var pathBuf [pathDepth]pathElem
	path, err := t.descendPath(key, pathBuf[:0])
	if err != nil {
		return err
	}
	leaf, err := t.pageMut(path[len(path)-1].id)
	if err != nil {
		return err
	}
	idx, found, err := leaf.searchLeaf(key)
	if err != nil {
		return err
	}
	size := leafCellSize(key, value)
	if found {
		old, err := leaf.rawCell(idx)
		if err != nil {
			return err
		}
		if size <= len(old) {
			putLeafCell(old, key, value)
			return nil
		}
		leaf.removeCell(idx)
	}
	if t.cellFits(leaf, size) {
		return leaf.insertLeafCell(idx, key, value)
	}
	return t.splitAndInsert(path, leaf, idx, encodeLeafCell(key, value), key)
}

// cellFits reports whether a size-byte cell can be stored in n, counting
// space a defragment would reclaim.
func (t *Tree) cellFits(n node, size int) bool {
	need := size + 2
	if n.freeSpace() >= need {
		return true
	}
	used, err := n.usedContent()
	if err != nil {
		return false
	}
	total := storage.PageSize - offCellPtr0 - 2*n.numCells() - used
	return total >= need
}

// splitAndInsert splits the overfull node and inserts raw at idx,
// propagating a new routing entry upward (splitting ancestors as
// needed). key is the key being inserted (used for the append-heavy
// split heuristic).
func (t *Tree) splitAndInsert(path []pathElem, n node, idx int, raw []byte, key []byte) error {
	// Allocate the new right sibling.
	rightID, err := t.pager.Allocate()
	if err != nil {
		return err
	}
	right, err := t.pageMut(rightID)
	if err != nil {
		return err
	}
	initNode(right, n.typ())

	num := n.numCells()
	// Split point: normally the byte-midpoint; when inserting at the
	// far right (sequential/append workloads like rowid order or the
	// TPC-H refresh stream) keep the left node full and start a fresh
	// right node, which yields ~100% fill like SQLite's append split.
	splitAt := num
	if idx != num {
		used, err := n.usedContent()
		if err != nil {
			return err
		}
		half := used / 2
		acc := 0
		splitAt = num
		for i := 0; i < num; i++ {
			c, err := n.rawCell(i)
			if err != nil {
				return err
			}
			acc += len(c)
			if acc > half {
				splitAt = i + 1
				break
			}
		}
		if splitAt >= num {
			splitAt = num - 1
		}
		if splitAt < 1 {
			splitAt = 1
		}
	}
	toRight := idx >= splitAt
	if fits, err := halfFits(n, len(raw), splitAt, toRight); err != nil {
		return err
	} else if !fits {
		if splitAt, toRight, err = splitAround(n, idx, len(raw)); err != nil {
			return err
		}
	}

	// Move cells [splitAt, num) to the right node.
	for i := splitAt; i < num; i++ {
		c, err := n.rawCell(i)
		if err != nil {
			return err
		}
		if err := right.insertCellRaw(right.numCells(), c); err != nil {
			return err
		}
	}
	for i := num - 1; i >= splitAt; i-- {
		n.removeCell(i)
	}
	if err := n.defragment(); err != nil {
		return err
	}

	// Chain leaves.
	if n.isLeaf() {
		oldNext := n.next()
		right.setNext(oldNext)
		right.setPrev(n.id)
		n.setNext(rightID)
		if oldNext != 0 {
			nn, err := t.pageMut(oldNext)
			if err != nil {
				return err
			}
			nn.setPrev(rightID)
		}
	}

	// Insert the new cell into the proper half.
	target, tidx := n, idx
	if toRight {
		target, tidx = right, idx-splitAt
	}
	if !t.cellFits(target, len(raw)) {
		// Both halves are sized to hold at least one max-size cell, so
		// this indicates corruption rather than a full page.
		return fmt.Errorf("%w: cell does not fit after split", ErrCorrupt)
	}
	if err := target.insertCellRaw(tidx, raw); err != nil {
		return err
	}

	// The right node's routing key is its lowest key.
	lowKey, err := right.cellKey(0)
	if err != nil {
		return err
	}
	lowCopy := make([]byte, len(lowKey))
	copy(lowCopy, lowKey)
	return t.insertRouting(path[:len(path)-1], lowCopy, rightID, n.id)
}

// halfFits reports whether the half of n's split at splitAt that the
// new size-byte cell goes to (the right one when toRight) has room for
// it. The split point chosen by byte midpoint leaves that half too full
// when the new cell is large and lands beside the larger half.
func halfFits(n node, size, splitAt int, toRight bool) (bool, error) {
	lo, hi := 0, splitAt
	if toRight {
		lo, hi = splitAt, n.numCells()
	}
	used := size + 2
	for i := lo; i < hi; i++ {
		c, err := n.rawCell(i)
		if err != nil {
			return false, err
		}
		used += len(c) + 2
	}
	return used <= storage.PageSize-offCellPtr0, nil
}

// splitAround picks the split of n's cells plus the new size-byte cell
// at idx that is nearest the byte midpoint with both halves fitting a
// page. One exists: no half is fuller than a page when every cell is at
// most half a page (MaxCellPayload). It returns the first existing cell
// of the right half and whether the new cell goes there.
func splitAround(n node, idx, size int) (int, bool, error) {
	num := n.numCells()
	sizes := make([]int, 0, num+1) // the cells in order, the new one at idx, pointer included
	total := 0
	for i := 0; i <= num; i++ {
		sz := size
		if i != idx {
			j := i
			if i > idx {
				j = i - 1
			}
			c, err := n.rawCell(j)
			if err != nil {
				return 0, false, err
			}
			sz = len(c)
		}
		sizes = append(sizes, sz+2)
		total += sz + 2
	}
	room := storage.PageSize - offCellPtr0
	best, bestDist := -1, 0
	left := 0
	for s := 1; s <= num; s++ { // s cells go left
		left += sizes[s-1]
		if left > room || total-left > room {
			continue
		}
		if d := max(2*left-total, total-2*left); best < 0 || d < bestDist {
			best, bestDist = s, d
		}
	}
	if best < 0 {
		return 0, false, fmt.Errorf("%w: no split fits a %d-byte cell", ErrCorrupt, size)
	}
	if best > idx {
		return best - 1, false, nil
	}
	return best, true, nil
}

// insertRouting adds (key -> child) to the parent identified by the
// path, splitting upward as needed. leftChild identifies the node that
// was split (the new entry goes right after its routing cell). An empty
// path means the root itself split: grow the tree one level.
func (t *Tree) insertRouting(path []pathElem, key []byte, child storage.PageID, leftChild storage.PageID) error {
	if len(path) == 0 {
		return t.growRoot(key, child, leftChild)
	}
	parent, err := t.pageMut(path[len(path)-1].id)
	if err != nil {
		return err
	}
	idx := path[len(path)-1].idx + 1
	if idx == 1 {
		// The split child is cell 0, whose routing key is semantically
		// -inf: its subtree legally holds keys below the stored key, so
		// the promoted key may be smaller than it. Rewrite cell 0's key
		// to the empty (minimal) key to keep the cell order invariant.
		if err := t.zeroCell0Key(parent); err != nil {
			return err
		}
	}
	raw := encodeInteriorCell(key, child)
	if t.cellFits(parent, len(raw)) {
		return parent.insertCellRaw(idx, raw)
	}
	// Split the interior parent, then retry the routing insert into the
	// appropriate half.
	return t.splitAndInsert(path, parent, idx, raw, key)
}

// zeroCell0Key rewrites an interior node's first routing key to the
// empty key (the -inf sentinel). Shrinking a cell always fits.
func (t *Tree) zeroCell0Key(n node) error {
	if n.numCells() == 0 {
		return nil
	}
	k, child, err := n.interiorCell(0)
	if err != nil {
		return err
	}
	if len(k) == 0 {
		return nil
	}
	n.removeCell(0)
	return n.insertCellRaw(0, encodeInteriorCell(nil, child))
}

// growRoot handles a root split: the root's current content moves to a
// new left child, and the root becomes an interior node with two
// routing cells. The root page id never changes.
func (t *Tree) growRoot(key []byte, rightChild storage.PageID, leftChild storage.PageID) error {
	root, err := t.pageMut(t.root)
	if err != nil {
		return err
	}
	if leftChild == t.root {
		// The split node was the root itself: move its remaining
		// content into a fresh left child.
		newLeftID, err := t.pager.Allocate()
		if err != nil {
			return err
		}
		newLeft, err := t.pageMut(newLeftID)
		if err != nil {
			return err
		}
		*newLeft.data = *root.data
		// Fix leaf chain neighbors to point at the moved page.
		if newLeft.isLeaf() {
			if nx := newLeft.next(); nx != 0 {
				n, err := t.pageMut(nx)
				if err != nil {
					return err
				}
				n.setPrev(newLeftID)
			}
			if pv := newLeft.prev(); pv != 0 {
				p, err := t.pageMut(pv)
				if err != nil {
					return err
				}
				p.setNext(newLeftID)
			}
		}
		leftChild = newLeftID
	}
	initNode(root, nodeInterior)
	// Cell 0's routing key is the -inf sentinel (empty key).
	if err := root.insertCellRaw(0, encodeInteriorCell(nil, leftChild)); err != nil {
		return err
	}
	return root.insertCellRaw(1, encodeInteriorCell(key, rightChild))
}

// Delete removes key, reporting whether it was present. Emptied leaves
// are unlinked and freed; emptied interior nodes cascade; a root
// interior left with a single child collapses to keep the tree shallow.
func (t *Tree) Delete(key []byte) (bool, error) {
	var pathBuf [pathDepth]pathElem
	path, err := t.descendPath(key, pathBuf[:0])
	if err != nil {
		return false, err
	}
	leaf, err := t.pageMut(path[len(path)-1].id)
	if err != nil {
		return false, err
	}
	idx, found, err := leaf.searchLeaf(key)
	if err != nil || !found {
		return false, err
	}
	leaf.removeCell(idx)
	if leaf.numCells() == 0 && len(path) > 1 {
		if err := t.freeLeaf(path, leaf); err != nil {
			return false, err
		}
	}
	return true, nil
}

// ReplaceKey moves the entry stored under old to new, keeping its value,
// and reports whether old was present. When new has old's length and
// still sorts strictly between the entry's neighbours — the adjacent
// cells of its leaf or, for a leaf's first and last cell, the routing
// keys that bound the leaf — the key bytes are overwritten in place: no
// cell moves, nothing is defragmented, the free space is untouched. Any
// other rewrite is a Delete followed by an Insert. An entry already
// stored under new is replaced.
func (t *Tree) ReplaceKey(old, new []byte) (bool, error) {
	var pathBuf [pathDepth]pathElem
	path, err := t.descendPath(old, pathBuf[:0])
	if err != nil {
		return false, err
	}
	leaf, err := t.page(path[len(path)-1].id)
	if err != nil {
		return false, err
	}
	idx, found, err := leaf.searchLeaf(old)
	if err != nil || !found || bytes.Equal(old, new) {
		return found, err
	}
	if len(new) == len(old) {
		fits, err := t.fitsInPlace(path, leaf, idx, old, new)
		if err != nil {
			return false, err
		}
		if fits {
			if leaf, err = t.pageMut(leaf.id); err != nil {
				return false, err
			}
			p := leaf.cellPtr(idx) + uvarintLen(uint64(len(old)))
			copy(leaf.data[p:p+len(new)], new)
			return true, nil
		}
	}
	_, v, err := leaf.leafCell(idx)
	if err != nil {
		return false, err
	}
	if len(new)+len(v)+cellOverhead > MaxCellPayload {
		return false, fmt.Errorf("%w: %d bytes", ErrTooBig, len(new)+len(v))
	}
	value := append([]byte(nil), v...) // v points into the leaf, which Insert may defragment
	if _, err := t.Delete(old); err != nil {
		return false, err
	}
	return true, t.Insert(new, value)
}

// fitsInPlace reports whether key may take the place of cell idx of
// leaf, whose key is old (and differs from key), without breaking the
// tree's order. Only the side key moves towards needs checking: old
// already sorts after its lower neighbour and before its upper one.
func (t *Tree) fitsInPlace(path []pathElem, leaf node, idx int, old, key []byte) (bool, error) {
	up := bytes.Compare(key, old) > 0
	switch {
	case up && idx+1 < leaf.numCells():
		next, err := leaf.cellKey(idx + 1)
		return err == nil && bytes.Compare(key, next) < 0, err
	case !up && idx > 0:
		prev, err := leaf.cellKey(idx - 1)
		return err == nil && bytes.Compare(key, prev) > 0, err
	}
	// The entry is the leaf's last cell moving up, or its first moving
	// down: the bound is the routing key next to the child the path
	// took, at the deepest ancestor that has one on that side. Every key
	// under routing cell i lies in [key_i, key_i+1).
	for j := len(path) - 2; j >= 0; j-- {
		n, err := t.page(path[j].id)
		if err != nil {
			return false, err
		}
		i := path[j].idx
		switch {
		case up && i+1 < n.numCells():
			bound, err := n.cellKey(i + 1)
			return err == nil && bytes.Compare(key, bound) < 0, err
		case !up && i > 0:
			bound, err := n.cellKey(i)
			return err == nil && bytes.Compare(key, bound) >= 0, err
		}
	}
	return true, nil // the leaf is the tree's last (or first): no bound
}

// freeLeaf unlinks an empty leaf from its chain, frees it, and removes
// its routing entry from the parent, cascading upward.
func (t *Tree) freeLeaf(path []pathElem, leaf node) error {
	if pv := leaf.prev(); pv != 0 {
		p, err := t.pageMut(pv)
		if err != nil {
			return err
		}
		p.setNext(leaf.next())
	}
	if nx := leaf.next(); nx != 0 {
		n, err := t.pageMut(nx)
		if err != nil {
			return err
		}
		n.setPrev(leaf.prev())
	}
	if err := t.pager.Free(leaf.id); err != nil {
		return err
	}
	return t.removeRouting(path[:len(path)-1])
}

// removeRouting deletes the routing cell the path points at in the
// lowest ancestor, cascading if that ancestor empties, and collapsing
// the root when it has a single child left.
func (t *Tree) removeRouting(path []pathElem) error {
	parent, err := t.pageMut(path[len(path)-1].id)
	if err != nil {
		return err
	}
	parent.removeCell(path[len(path)-1].idx)
	switch {
	case parent.numCells() == 0:
		if parent.id == t.root {
			// Whole tree emptied: the root becomes an empty leaf.
			initNode(parent, nodeLeaf)
			return nil
		}
		if err := t.pager.Free(parent.id); err != nil {
			return err
		}
		return t.removeRouting(path[:len(path)-1])
	case parent.numCells() == 1 && parent.id == t.root:
		return t.collapseRoot(parent)
	}
	return nil
}

// collapseRoot copies a root's only child into the root page and frees
// the child, keeping the root id stable while shrinking tree height.
func (t *Tree) collapseRoot(root node) error {
	_, childID, err := root.interiorCell(0)
	if err != nil {
		return err
	}
	child, err := t.pageMut(childID)
	if err != nil {
		return err
	}
	*root.data = *child.data
	if root.isLeaf() {
		// The child was part of the leaf chain; it is the only leaf, so
		// clear stale links and fix neighbors (there are none).
		root.setNext(0)
		root.setPrev(0)
	} else {
		// Nothing to fix: interior cells reference children by id.
		_ = child
	}
	return t.pager.Free(childID)
}

// Drop frees every page of the tree including the root. The handle must
// not be used afterwards.
func (t *Tree) Drop() error {
	return t.dropFrom(t.root)
}

func (t *Tree) dropFrom(id storage.PageID) error {
	n, err := t.page(id)
	if err != nil {
		return err
	}
	if !n.isLeaf() {
		for i := 0; i < n.numCells(); i++ {
			_, child, err := n.interiorCell(i)
			if err != nil {
				return err
			}
			if err := t.dropFrom(child); err != nil {
				return err
			}
		}
	}
	return t.pager.Free(id)
}

// MaxKey appends the largest key in the tree to dst[:0] and returns it
// (nil when the tree is empty), so a caller that passes a buffer of its
// own finds it without allocating. Used by the SQL layer for rowid
// assignment.
func (t *Tree) MaxKey(dst []byte) ([]byte, error) {
	id := t.root
	for {
		n, err := t.page(id)
		if err != nil {
			return nil, err
		}
		if n.numCells() == 0 {
			return nil, nil
		}
		if n.isLeaf() {
			k, err := n.cellKey(n.numCells() - 1)
			if err != nil {
				return nil, err
			}
			if dst == nil {
				dst = []byte{} // an empty key is still a key
			}
			return append(dst[:0], k...), nil
		}
		_, child, err := n.interiorCell(n.numCells() - 1)
		if err != nil {
			return nil, err
		}
		id = child
	}
}

// Count walks the tree and returns the number of entries.
func (t *Tree) Count() (int, error) {
	c := t.Cursor()
	n := 0
	ok, err := c.First()
	for ; ok && err == nil; ok, err = c.Next() {
		n++
	}
	return n, err
}

// CheckInvariants walks the whole tree verifying structural invariants:
// key order within nodes, routing keys bounding children from below and
// above, leaf-chain consistency. Intended for tests.
func (t *Tree) CheckInvariants() error {
	_, _, err := t.check(t.root, nil, nil)
	return err
}

// check verifies the subtree at id, whose keys must lie in [lowBound,
// highBound) (nil: unbounded), and returns its first and last key.
func (t *Tree) check(id storage.PageID, lowBound, highBound []byte) (first, last []byte, err error) {
	n, err := t.page(id)
	if err != nil {
		return nil, nil, err
	}
	var prev []byte
	for i := 0; i < n.numCells(); i++ {
		k, err := n.cellKey(i)
		if err != nil {
			return nil, nil, err
		}
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			return nil, nil, fmt.Errorf("btree: node %d keys out of order at cell %d", id, i)
		}
		// Interior cell 0 carries the -inf sentinel; leaves and other
		// cells must respect the inherited routing bounds.
		if n.isLeaf() || i > 0 {
			if lowBound != nil && bytes.Compare(k, lowBound) < 0 {
				return nil, nil, fmt.Errorf("btree: node %d key below routing bound", id)
			}
			if highBound != nil && bytes.Compare(k, highBound) >= 0 {
				return nil, nil, fmt.Errorf("btree: node %d key at or above the next routing key", id)
			}
		}
		prev = k
		if i == 0 {
			first = append([]byte(nil), k...)
		}
		last = append(last[:0], k...)
	}
	if n.isLeaf() {
		return first, last, nil
	}
	var childLast []byte
	for i := 0; i < n.numCells(); i++ {
		rk, child, err := n.interiorCell(i)
		if err != nil {
			return nil, nil, err
		}
		// Routing keys are lower bounds for cells > 0; the leftmost
		// child inherits this node's own bound (keys smaller than
		// routing key 0 legally descend into cell 0). The next routing
		// key, or for the last child this node's own, is the upper one.
		lo, hi := rk, highBound
		if i == 0 {
			lo = lowBound
		}
		if i+1 < n.numCells() {
			if hi, err = n.cellKey(i + 1); err != nil {
				return nil, nil, err
			}
		}
		cf, cl, err := t.check(child, lo, hi)
		if err != nil {
			return nil, nil, err
		}
		if childLast != nil && cf != nil && bytes.Compare(childLast, cf) >= 0 {
			return nil, nil, fmt.Errorf("btree: node %d children overlap", id)
		}
		if cl != nil {
			childLast = cl
		}
	}
	return first, last, nil
}
