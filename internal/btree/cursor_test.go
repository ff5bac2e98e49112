package btree

import (
	"bytes"
	"testing"

	"rql/internal/storage"
)

// countPager counts what a tree asks its pager for.
type countPager struct {
	storage.Pager
	gets, muts, allocs int
	mutIDs             []storage.PageID
}

func (p *countPager) Get(id storage.PageID) (*storage.PageData, error) {
	p.gets++
	return p.Pager.Get(id)
}

func (p *countPager) GetMut(id storage.PageID) (*storage.PageData, error) {
	p.muts++
	p.mutIDs = append(p.mutIDs, id)
	return p.Pager.GetMut(id)
}

func (p *countPager) Allocate() (storage.PageID, error) {
	p.allocs++
	return p.Pager.Allocate()
}

func (p *countPager) reset() { p.gets, p.muts, p.allocs, p.mutIDs = 0, 0, 0, p.mutIDs[:0] }

// TestCursorWritesLandInTheHeldLeaf pins, as counts, what writes through
// one cursor ask the pager for. n ascending puts read at most one
// descent per leaf the tree ends with, plus one per split (the split's
// path, and the descent of the put after it, which the split retired);
// a put per key through Tree.Insert would read a descent per key. After
// a Find, an overwrite of the key it found, a delete of its neighbour, an
// insert beside it and a same-length key rewrite between its neighbours
// read no page and write only the held leaf, as does a put of the next
// key after Last.
func TestCursorWritesLandInTheHeldLeaf(t *testing.T) {
	s := storage.NewStore()
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	p := &countPager{Pager: tx}
	root, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	tr := Open(p, root)
	c := tr.Cursor()
	const n = 5000
	val := bytes.Repeat([]byte{'v'}, 400) // ~10 to a leaf: three levels
	p.reset()
	for i := 0; i < n; i++ {
		if err := c.Put(ikey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	gets, splits := p.gets, p.allocs
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	leaves, depth := 0, 0
	for id := root; ; depth++ {
		nd, err := tr.page(id)
		if err != nil {
			t.Fatal(err)
		}
		if nd.isLeaf() {
			break
		}
		_, id, _ = nd.interiorCell(0)
	}
	depth++
	fc := tr.Cursor()
	for ok, err := fc.First(); ok || err != nil; ok, err = fc.advanceLeaf() {
		if err != nil {
			t.Fatal(err)
		}
		leaves++
	}
	if depth < 3 {
		t.Fatalf("fixture too small: depth %d", depth)
	}
	if bound := (leaves + splits) * depth; gets > bound {
		t.Errorf("%d ascending puts read %d pages, want at most %d: (%d leaves + %d splits) × depth %d",
			n, gets, bound, leaves, splits, depth)
	}

	// A key in the middle of its leaf, so its neighbours share the leaf.
	ln, err := tr.descend(ikey(n / 2))
	if err != nil {
		t.Fatal(err)
	}
	mid, _ := ln.cellKey(ln.numCells() / 2)
	mid = append([]byte(nil), mid...)
	right, _ := ln.cellKey(ln.numCells()/2 + 1)
	right = append([]byte(nil), right...)
	beside := append(append([]byte(nil), mid...), 1) // between mid and right
	if _, found, err := c.Find(mid); err != nil || !found {
		t.Fatalf("Find: %v %v", found, err)
	}
	steps := []struct {
		what  string
		write func() error
	}{
		{"an overwrite", func() error { return c.Put(mid, bytes.Repeat([]byte{'w'}, 400)) }},
		{"a delete of its neighbour", func() error { _, err := c.Delete(right); return err }},
		{"an insert beside it", func() error { return c.Put(beside, val) }},
		{"a key rewrite", func() error {
			if _, found, err := c.Find(beside); err != nil || !found {
				t.Fatalf("Find: %v %v", found, err)
			}
			return c.ReplaceKey(append(append([]byte(nil), mid...), 2))
		}},
	}
	for _, st := range steps {
		p.reset()
		if err := st.write(); err != nil {
			t.Fatal(err)
		}
		if p.gets != 0 || p.muts != 1 || p.mutIDs[0] != ln.id || p.allocs != 0 {
			t.Errorf("%s after Find read %d pages and wrote %v (%d allocated); want none read and leaf %d written", st.what, p.gets, p.mutIDs, p.allocs, ln.id)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Rowid assignment: the next key after Last, on the tree's last leaf.
	p.reset()
	if ok, err := c.Last(); err != nil || !ok || !bytes.Equal(c.Key(), ikey(n-1)) {
		t.Fatalf("Last: %x %v %v", c.Key(), ok, err)
	}
	if p.gets != depth {
		t.Errorf("Last from a middle leaf read %d pages, want the depth %d", p.gets, depth)
	}
	for i := n; i < n+5; i++ {
		p.reset()
		if ok, err := c.Last(); err != nil || !ok || !bytes.Equal(c.Key(), ikey(i-1)) {
			t.Fatalf("Last: %x %v %v", c.Key(), ok, err)
		}
		if err := c.Put(ikey(i), val); err != nil {
			t.Fatal(err)
		}
		if p.allocs == 0 && (p.gets != 0 || p.muts != 1) { // a split may take the last leaf's room
			t.Errorf("Last + Put of key %d read %d pages and wrote %d, want none read and one written", i, p.gets, p.muts)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
