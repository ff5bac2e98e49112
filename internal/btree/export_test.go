package btree

import (
	"bytes"
	"fmt"

	"rql/internal/storage"
)

// Root returns the tree's root page id.
func (t *Tree) Root() storage.PageID { return t.root }

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

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.valid }
