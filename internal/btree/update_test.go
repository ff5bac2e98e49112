package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
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
		if !root.fits(leafCellSize(key, val), 0) {
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

	t.Run("ReplaceKey", func(t *testing.T) { testReplaceKeyInFullLeaf(t) })
}

// testReplaceKeyInFullLeaf rewrites keys of a full root leaf, then of a
// full leaf with a right sibling: in place when the new key has the old
// one's length and keeps its position, a delete and an insert otherwise
// — checking the content and the structure after each.
func testReplaceKeyInFullLeaf(t *testing.T) {
	_, tx, tr := testTree(t)
	defer tx.Rollback()
	keys := fullLeaf(t, tr, 100)
	val := bytes.Repeat([]byte{'v'}, 100)
	live := len(keys)
	replace := func(old, key string, wantInPlace bool) {
		t.Helper()
		before := cellOf(t, tr, []byte(old))
		c := tr.Cursor()
		_, found, err := c.Find([]byte(old))
		if err == nil && found {
			err = c.ReplaceKey([]byte(key))
		}
		if err != nil || !found {
			t.Fatalf("ReplaceKey(%q, %q): found %v, %v", old, key, found, err)
		}
		if inPlace := cellOf(t, tr, []byte(key)) == before; inPlace != wantInPlace {
			t.Errorf("ReplaceKey(%q, %q): in place = %v, want %v", old, key, inPlace, wantInPlace)
		}
		if _, found, _ := tr.Get([]byte(old)); found {
			t.Errorf("ReplaceKey(%q, %q) left the old key", old, key)
		}
		if got, found, err := tr.Get([]byte(key)); err != nil || !found || !bytes.Equal(got, val) {
			t.Errorf("ReplaceKey(%q, %q): new key holds %q %v %v", old, key, got, found, err)
		}
		if n, err := tr.Count(); err != nil || n != live {
			t.Errorf("ReplaceKey(%q, %q): Count = %d, %v; want %d", old, key, n, err, live)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("ReplaceKey(%q, %q): %v", old, key, err)
		}
	}
	first, last := string(keys[0]), string(keys[len(keys)-1])

	// The leaf's first cell moving down and its last moving up: a root
	// leaf has no routing bound.
	replace(first, "j0000", true)
	replace(last, "l"+last[1:], true)
	// Crossing equal-prefix neighbours: k001: sorts after k0011…k0019.
	replace("k0010", "k001:", false)
	// Shorter (k001 sorts between k0009 and k0011) and longer keys:
	// never in place, and the longer one splits the full leaf.
	replace("k0013", "k001", false)
	if root, _ := tr.page(tr.root); !root.isLeaf() {
		t.Fatal("a shrinking rewrite split the leaf")
	}
	replace("k0014", "k0014"+strings.Repeat("x", 200), false)
	root, _ := tr.page(tr.root)
	if root.isLeaf() || root.numCells() != 2 {
		t.Fatalf("a growing rewrite in a full leaf did not split it in two")
	}

	// Two leaves from an append split of gapped keys: the routing key
	// bounds the full left leaf's last cell from above and the right
	// leaf's first cell from below.
	_, tx2, tr2 := testTree(t)
	defer tx2.Rollback()
	tr, live = tr2, 0
	var lastLeft, bound string
	for i := 0; ; i += 10 {
		if root, _ := tr.page(tr.root); !root.isLeaf() {
			break
		}
		lastLeft, bound = fmt.Sprintf("k%04d", i-10), fmt.Sprintf("k%04d", i)
		if err := tr.Insert([]byte(bound), val); err != nil {
			t.Fatal(err)
		}
		live++
	}
	root, _ = tr.page(tr.root)
	if rk, _ := root.cellKey(1); root.numCells() != 2 || string(rk) != bound {
		t.Fatalf("fixture: want two leaves split at %s", bound)
	}
	// at replaces key's last digit with n: at("k0370", 5) is k0375.
	at := func(key string, n int) string { return key[:len(key)-1] + fmt.Sprint(n) }
	replace("k0100", "k0105", true)               // between its neighbours in the leaf
	replace(lastLeft, at(lastLeft, 5), true)      // left leaf's last cell up, under the bound
	replace(at(lastLeft, 5), at(bound, 5), false) // up past the bound: into the right leaf
	replace(bound, at(lastLeft, 7), false)        // right leaf's first cell down, below the bound
	replace(at(bound, 5), at(bound, 1), true)     // right leaf's first cell down, still above it
	replace(at(lastLeft, 7), bound, false)        // left leaf's last cell onto the (absent) bound: it belongs right
	replace(bound, at(lastLeft, 7), false)        // and back
	replace(at(bound, 1), bound, true)            // right leaf's first cell down onto the bound itself
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
