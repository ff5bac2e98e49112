package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rql/internal/storage"
)

// checkAgainstModel verifies the tree's structure and that an in-order
// scan yields exactly the model.
func checkAgainstModel(t *testing.T, tr *Tree, model map[string]string, step int, what string) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("step %d (%s): %v", step, what, err)
	}
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	c := tr.Cursor()
	ok, err := c.First()
	for i := 0; ; i++ {
		if err != nil {
			t.Fatalf("step %d (%s): scan: %v", step, what, err)
		}
		if !ok {
			if i != len(keys) {
				t.Fatalf("step %d (%s): scan ended after %d entries, model has %d", step, what, i, len(keys))
			}
			return
		}
		if i >= len(keys) || string(c.Key()) != keys[i] || string(c.Value()) != model[keys[i]] {
			t.Fatalf("step %d (%s): entry %d is %q=%q, model disagrees", step, what, i, c.Key(), c.Value())
		}
		ok, err = c.Next()
	}
}

// TestOverwriteAgainstModel drives random inserts, overwrites (same
// size, shrinking, growing) and deletes over a small key space, so that
// most inserts hit an existing key and leaves stay full, checking the
// structural invariants and the full content after every step.
func TestOverwriteAgainstModel(t *testing.T) {
	_, tx, tr := testTree(t)
	defer tx.Rollback()
	r := rand.New(rand.NewSource(5))
	model := map[string]string{}
	value := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return string(b)
	}
	counts := map[string]int{}
	for step := 0; step < 4000; step++ {
		key := fmt.Sprintf("key-%03d", r.Intn(300))
		old, exists := model[key]
		var what string
		switch op := r.Intn(10); {
		case op < 2:
			what = "delete"
			found, err := tr.Delete([]byte(key))
			if err != nil || found != exists {
				t.Fatalf("step %d: Delete(%s) = %v, %v; model has it: %v", step, key, found, err, exists)
			}
			delete(model, key)
		default:
			n := 20 + r.Intn(200)
			what = "insert"
			if exists {
				switch op {
				case 2, 3, 4:
					n, what = len(old), "same-size overwrite"
				case 5, 6:
					n, what = 1+r.Intn(len(old)), "shrinking overwrite"
				default:
					n, what = len(old)+1+r.Intn(300), "growing overwrite"
				}
			}
			v := value(n)
			if err := tr.Insert([]byte(key), []byte(v)); err != nil {
				t.Fatalf("step %d: %s of %s: %v", step, what, key, err)
			}
			model[key] = v
		}
		counts[what]++
		checkAgainstModel(t, tr, model, step, what)
	}
	for _, what := range []string{"insert", "delete", "same-size overwrite", "shrinking overwrite", "growing overwrite"} {
		if counts[what] < 100 {
			t.Errorf("only %d steps were a %s: the walk does not cover it", counts[what], what)
		}
	}
}

// fullLeaf fills a one-leaf tree until the next cell would split it.
func fullLeaf(t testing.TB, tr *Tree, valLen int) (keys [][]byte) {
	t.Helper()
	val := bytes.Repeat([]byte{'v'}, valLen)
	for i := 0; ; i++ {
		root, err := tr.page(tr.root)
		if err != nil {
			t.Fatal(err)
		}
		key := []byte(fmt.Sprintf("k%04d", i))
		if !tr.cellFits(root, leafCellSize(key, val)) {
			return keys
		}
		if err := tr.Insert(key, val); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
}

// TestOverwriteInFullLeaf: in a leaf with no room for another cell,
// same-size and shrinking overwrites stay in place (no split, no cell
// moves), and a growing one splits the leaf like an insert would.
func TestOverwriteInFullLeaf(t *testing.T) {
	_, tx, tr := testTree(t)
	defer tx.Rollback()
	keys := fullLeaf(t, tr, 100)
	root, _ := tr.page(tr.root)
	if !root.isLeaf() || len(keys) < 20 {
		t.Fatalf("expected one full leaf, got leaf=%v with %d cells", root.isLeaf(), len(keys))
	}
	ptrs := make([]int, root.numCells())
	for i := range ptrs {
		ptrs[i] = root.cellPtr(i)
	}
	mid := keys[len(keys)/2]
	for _, v := range [][]byte{bytes.Repeat([]byte{'s'}, 100), bytes.Repeat([]byte{'t'}, 40), {}} {
		if err := tr.Insert(mid, v); err != nil {
			t.Fatal(err)
		}
		got, found, err := tr.Get(mid)
		if err != nil || !found || !bytes.Equal(got, v) {
			t.Fatalf("after overwrite with %d bytes: %q %v %v", len(v), got, found, err)
		}
		root, _ = tr.page(tr.root)
		if !root.isLeaf() || root.numCells() != len(keys) {
			t.Fatalf("overwrite with %d bytes restructured the leaf", len(v))
		}
		for i := range ptrs {
			if root.cellPtr(i) != ptrs[i] {
				t.Fatalf("overwrite with %d bytes moved cell %d", len(v), i)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// The bytes the shrunken cell gave up are reclaimable: growing back
	// to the original size fits without a split.
	if err := tr.Insert(mid, bytes.Repeat([]byte{'u'}, 100)); err != nil {
		t.Fatal(err)
	}
	if root, _ = tr.page(tr.root); !root.isLeaf() {
		t.Fatal("growing back into reclaimed space split the leaf")
	}
	// Growing beyond what the leaf can hold splits it.
	big := bytes.Repeat([]byte{'w'}, 900)
	if err := tr.Insert(mid, big); err != nil {
		t.Fatal(err)
	}
	if root, _ = tr.page(tr.root); root.isLeaf() {
		t.Fatal("overwrite larger than the leaf's free space did not split it")
	}
	if got, found, err := tr.Get(mid); err != nil || !found || !bytes.Equal(got, big) {
		t.Fatalf("after growing overwrite: %d bytes %v %v", len(got), found, err)
	}
	if n, err := tr.Count(); err != nil || n != len(keys) {
		t.Fatalf("Count = %d, %v; want %d", n, err, len(keys))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDefragmentAndOverwriteDoNotAllocate pins the two operations an
// update-heavy result table repeats per row.
func TestDefragmentAndOverwriteDoNotAllocate(t *testing.T) {
	_, tx, tr := testTree(t)
	defer tx.Rollback()
	keys := fullLeaf(t, tr, 100)
	leaf, err := tr.pageMut(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(keys) - 1; i >= 0; i -= 2 {
		leaf.removeCell(i) // holes for defragment to close
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := leaf.defragment(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("defragment allocates %v times, want 0", allocs)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	key, val := keys[0], bytes.Repeat([]byte{'x'}, 100)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tr.Insert(key, val); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("same-size overwrite allocates %v times, want 0", allocs)
	}
}

// BenchmarkLeafOverwrite rewrites existing keys of a multi-level tree
// with values of the same size: the table-cell half of a row update.
func BenchmarkLeafOverwrite(b *testing.B) {
	s := storage.NewStore()
	tx, _ := s.Begin()
	root, _ := Create(tx)
	tr := Open(tx, root)
	const n = 10000
	val := bytes.Repeat([]byte{7}, 120)
	for i := 0; i < n; i++ {
		if err := tr.Insert(ikey(i), val); err != nil {
			b.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val[0] = byte(i)
		if err := tr.Insert(ikey(r.Intn(n)), val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tx.Rollback()
}
