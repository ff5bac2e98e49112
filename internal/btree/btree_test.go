package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rql/internal/retro"
	"rql/internal/storage"
)

// testTree creates a store, a writer tx and an empty tree on it.
func testTree(t *testing.T) (*storage.Store, *storage.Tx, *Tree) {
	t.Helper()
	s := storage.NewStore()
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	root, err := Create(tx)
	if err != nil {
		t.Fatal(err)
	}
	return s, tx, Open(tx, root)
}

func k(s string) []byte { return []byte(s) }

func TestEmptyTree(t *testing.T) {
	_, tx, tr := testTree(t)
	defer tx.Rollback()
	if _, found, err := tr.Get(k("a")); err != nil || found {
		t.Errorf("Get on empty: %v %v", found, err)
	}
	c := tr.Cursor()
	if ok, err := c.First(); err != nil || ok {
		t.Errorf("First on empty: %v %v", ok, err)
	}
	if ok, err := c.Seek(k("a")); err != nil || ok {
		t.Errorf("Seek on empty: %v %v", ok, err)
	}
	if mk, err := tr.MaxKey(nil); err != nil || mk != nil {
		t.Errorf("MaxKey on empty: %v %v", mk, err)
	}
	if n, err := tr.Count(); err != nil || n != 0 {
		t.Errorf("Count on empty: %d %v", n, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertGetReplace(t *testing.T) {
	_, tx, tr := testTree(t)
	defer tx.Rollback()
	if err := tr.Insert(k("hello"), k("world")); err != nil {
		t.Fatal(err)
	}
	v, found, err := tr.Get(k("hello"))
	if err != nil || !found || string(v) != "world" {
		t.Fatalf("Get: %q %v %v", v, found, err)
	}
	if err := tr.Insert(k("hello"), k("there")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = tr.Get(k("hello"))
	if string(v) != "there" {
		t.Errorf("replace failed: %q", v)
	}
	if n, _ := tr.Count(); n != 1 {
		t.Errorf("Count after replace: %d", n)
	}
}

func TestDelete(t *testing.T) {
	_, tx, tr := testTree(t)
	defer tx.Rollback()
	tr.Insert(k("a"), k("1"))
	tr.Insert(k("b"), k("2"))
	found, err := tr.Delete(k("a"))
	if err != nil || !found {
		t.Fatalf("Delete: %v %v", found, err)
	}
	if _, found, _ := tr.Get(k("a")); found {
		t.Error("deleted key still present")
	}
	if found, _ := tr.Delete(k("zzz")); found {
		t.Error("Delete of absent key reported found")
	}
	if _, found, _ := tr.Get(k("b")); !found {
		t.Error("unrelated key lost")
	}
}

func TestTooBigPayloadRejected(t *testing.T) {
	_, tx, tr := testTree(t)
	defer tx.Rollback()
	big := make([]byte, MaxCellPayload+1)
	if err := tr.Insert(k("x"), big); !errors.Is(err, ErrTooBig) {
		t.Errorf("oversized insert: %v", err)
	}
}

func TestReadOnlyTreeRejectsInsert(t *testing.T) {
	s, tx, tr := testTree(t)
	tr.Insert(k("a"), k("1"))
	root := tr.Root()
	tx.Commit()

	rt, _ := s.BeginRead()
	defer rt.Close()
	ro := Open(rt, root)
	if v, found, err := ro.Get(k("a")); err != nil || !found || string(v) != "1" {
		t.Errorf("read-only Get: %q %v %v", v, found, err)
	}
	if err := ro.Insert(k("b"), k("2")); !errors.Is(err, storage.ErrReadOnly) {
		t.Errorf("read-only Insert: %v", err)
	}
}

// ikey produces an 8-byte big-endian key (rowid-style ordering).
func ikey(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestSequentialInsertScan(t *testing.T) {
	_, tx, tr := testTree(t)
	defer tx.Rollback()
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Insert(ikey(i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c := tr.Cursor()
	ok, err := c.First()
	i := 0
	for ; ok && err == nil; ok, err = c.Next() {
		if !bytes.Equal(c.Key(), ikey(i)) {
			t.Fatalf("scan position %d: key %x", i, c.Key())
		}
		if string(c.Value()) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("scan position %d: value %q", i, c.Value())
		}
		i++
	}
	if err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scanned %d entries, want %d", i, n)
	}
	// Point lookups.
	for _, probe := range []int{0, 1, n / 2, n - 1} {
		v, found, err := tr.Get(ikey(probe))
		if err != nil || !found || string(v) != fmt.Sprintf("value-%d", probe) {
			t.Errorf("Get(%d): %q %v %v", probe, v, found, err)
		}
	}
	mk, _ := tr.MaxKey(nil)
	if !bytes.Equal(mk, ikey(n-1)) {
		t.Errorf("MaxKey: %x", mk)
	}
}

func TestReverseInsertScan(t *testing.T) {
	_, tx, tr := testTree(t)
	defer tx.Rollback()
	const n = 3000
	for i := n - 1; i >= 0; i-- {
		if err := tr.Insert(ikey(i), ikey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if cnt, _ := tr.Count(); cnt != n {
		t.Fatalf("Count = %d", cnt)
	}
}

func TestSeek(t *testing.T) {
	_, tx, tr := testTree(t)
	defer tx.Rollback()
	for i := 0; i < 1000; i += 10 {
		tr.Insert(ikey(i), ikey(i))
	}
	c := tr.Cursor()
	// Exact hit.
	ok, err := c.Seek(ikey(500))
	if err != nil || !ok || !bytes.Equal(c.Key(), ikey(500)) {
		t.Fatalf("Seek exact: %v %v %x", ok, err, c.Key())
	}
	// Between keys: lands on the next larger.
	ok, _ = c.Seek(ikey(501))
	if !ok || !bytes.Equal(c.Key(), ikey(510)) {
		t.Fatalf("Seek between: %x", c.Key())
	}
	// Before first.
	ok, _ = c.Seek(ikey(0))
	if !ok || !bytes.Equal(c.Key(), ikey(0)) {
		t.Fatalf("Seek first: %x", c.Key())
	}
	// Past last.
	ok, _ = c.Seek(ikey(991))
	if ok {
		t.Fatal("Seek past last should be invalid")
	}
	if c.Valid() || c.Key() != nil || c.Value() != nil {
		t.Fatal("invalid cursor should return nils")
	}
}

func TestSlidingWindowFreesPages(t *testing.T) {
	// Mimics the paper's refresh workload: delete the oldest rows,
	// append new ones. Page count must stay bounded (old leaves freed
	// and reused).
	s, tx, tr := testTree(t)
	const window = 2000
	for i := 0; i < window; i++ {
		tr.Insert(ikey(i), bytes.Repeat([]byte{1}, 100))
	}
	tx.Commit()
	base := s.NumPages()

	lo, hi := 0, window
	for round := 0; round < 20; round++ {
		tx2, _ := s.Begin()
		tr2 := Open(tx2, tr.Root())
		for i := 0; i < 200; i++ {
			if found, err := tr2.Delete(ikey(lo)); err != nil || !found {
				t.Fatalf("delete %d: %v %v", lo, found, err)
			}
			lo++
			tr2.Insert(ikey(hi), bytes.Repeat([]byte{2}, 100))
			hi++
		}
		if err := tr2.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		tx2.Commit()
	}
	grown := s.NumPages() - base
	if grown > base/2+8 {
		t.Errorf("page count grew by %d over base %d; free pages not reused?", grown, base)
	}
	// All entries accounted for.
	rt, _ := s.BeginRead()
	defer rt.Close()
	cnt, err := Open(rt, tr.Root()).Count()
	if err != nil || cnt != window {
		t.Errorf("Count = %d, %v; want %d", cnt, err, window)
	}
}

func TestDeleteAllThenReuse(t *testing.T) {
	_, tx, tr := testTree(t)
	defer tx.Rollback()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Insert(ikey(i), ikey(i))
	}
	for i := 0; i < n; i++ {
		if found, err := tr.Delete(ikey(i)); err != nil || !found {
			t.Fatalf("delete %d: %v %v", i, found, err)
		}
	}
	if cnt, _ := tr.Count(); cnt != 0 {
		t.Fatalf("Count after delete-all = %d", cnt)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Tree is reusable after being emptied.
	tr.Insert(k("again"), k("yes"))
	v, found, _ := tr.Get(k("again"))
	if !found || string(v) != "yes" {
		t.Fatalf("reuse after empty: %q %v", v, found)
	}
}

func TestDropFreesAllPages(t *testing.T) {
	s := storage.NewStore()
	tx, _ := s.Begin()
	root, _ := Create(tx)
	tr := Open(tx, root)
	for i := 0; i < 3000; i++ {
		tr.Insert(ikey(i), bytes.Repeat([]byte{3}, 64))
	}
	if err := tr.Drop(); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if s.NumFree() != s.NumPages() {
		t.Errorf("Drop left %d of %d pages live", s.NumPages()-s.NumFree(), s.NumPages())
	}
}

// Model-based randomized test: the tree must match a sorted-map model
// under arbitrary interleavings of insert, replace, delete and scans,
// with variable-size keys and values.
func TestRandomizedAgainstModel(t *testing.T) {
	_, tx, tr := testTree(t)
	defer tx.Rollback()
	r := rand.New(rand.NewSource(99))
	model := map[string]string{}

	randKey := func() string {
		// Mix short and long keys to vary fanout.
		n := 1 + r.Intn(40)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(4)) // small alphabet -> collisions
		}
		return string(b)
	}

	anyKey := func() string {
		key := randKey()
		if len(model) > 0 && r.Intn(2) == 0 {
			for mk := range model {
				key = mk
				break
			}
		}
		return key
	}
	// mutate changes one byte of a key (so the rewrite may stay between
	// the entry's neighbours) or, now and then, its length.
	mutate := func(key string) string {
		b := []byte(key)
		switch r.Intn(8) {
		case 0:
			return key + string(rune('a'+r.Intn(4)))
		case 1:
			if len(b) > 1 {
				return key[:len(b)-1]
			}
		}
		b[r.Intn(len(b))] = byte('a' + r.Intn(4))
		return string(b)
	}
	var inPlace, moved int
	for step := 0; step < 30000; step++ {
		switch r.Intn(11) {
		case 0, 1, 2, 3, 4, 5: // insert/replace
			key := randKey()
			val := randKey()
			if err := tr.Insert([]byte(key), []byte(val)); err != nil {
				t.Fatal(err)
			}
			model[key] = val
		case 6, 7: // delete (sometimes absent)
			key := anyKey()
			_, inModel := model[key]
			found, err := tr.Delete([]byte(key))
			if err != nil {
				t.Fatal(err)
			}
			if found != inModel {
				t.Fatalf("step %d: Delete(%q) found=%v model=%v", step, key, found, inModel)
			}
			delete(model, key)
		case 8: // point lookup
			key := anyKey()
			v, found, err := tr.Get([]byte(key))
			if err != nil {
				t.Fatal(err)
			}
			want, inModel := model[key]
			if found != inModel || (found && string(v) != want) {
				t.Fatalf("step %d: Get(%q) = %q,%v; model %q,%v", step, key, v, found, want, inModel)
			}
		case 9: // rewrite a key, keeping its value (sometimes absent)
			old := anyKey()
			key := mutate(old)
			before := cellOf(t, tr, []byte(old))
			found, err := tr.ReplaceKey([]byte(old), []byte(key))
			if err != nil {
				t.Fatal(err)
			}
			v, inModel := model[old]
			if found != inModel {
				t.Fatalf("step %d: ReplaceKey(%q, %q) found=%v model=%v", step, old, key, found, inModel)
			}
			if inModel {
				delete(model, old)
				model[key] = v
				if old != key && len(old) == len(key) {
					if cellOf(t, tr, []byte(key)) == before {
						inPlace++
					} else {
						moved++
					}
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: ReplaceKey(%q, %q): %v", step, old, key, err)
			}
		case 10: // occasional full validation
			if step%997 == 0 {
				validateAgainstModel(t, tr, model)
			}
		}
	}
	validateAgainstModel(t, tr, model)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if inPlace < 100 || moved < 100 {
		t.Errorf("same-length rewrites: %d in place, %d moved; the walk does not cover both", inPlace, moved)
	}
}

// cell locates key's cell: its leaf and its offset in the page.
type cell struct {
	leaf storage.PageID
	off  int
}

// cellOf returns where key's cell is (the zero cell when it is absent).
// A rewrite done in place leaves the cell where it was.
func cellOf(t testing.TB, tr *Tree, key []byte) cell {
	t.Helper()
	id, err := tr.descend(key)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := tr.page(id)
	if err != nil {
		t.Fatal(err)
	}
	idx, found, err := leaf.searchLeaf(key)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		return cell{}
	}
	return cell{id, leaf.cellPtr(idx)}
}

func validateAgainstModel(t *testing.T, tr *Tree, model map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(model))
	for mk := range model {
		keys = append(keys, mk)
	}
	sort.Strings(keys)
	c := tr.Cursor()
	ok, err := c.First()
	i := 0
	for ; ok && err == nil; ok, err = c.Next() {
		if i >= len(keys) {
			t.Fatalf("tree has extra key %q", c.Key())
		}
		if string(c.Key()) != keys[i] {
			t.Fatalf("scan position %d: got %q want %q", i, c.Key(), keys[i])
		}
		if string(c.Value()) != model[keys[i]] {
			t.Fatalf("scan position %d: value %q want %q", i, c.Value(), model[keys[i]])
		}
		i++
	}
	if err != nil {
		t.Fatal(err)
	}
	if i != len(keys) {
		t.Fatalf("tree has %d keys, model has %d", i, len(keys))
	}
}

// The retrospection property end-to-end at the btree level: a tree read
// through a Retro snapshot must reproduce its state at declaration.
func TestTreeOverSnapshots(t *testing.T) {
	s := storage.NewStore()
	sys, err := retro.New(s, retro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	tx, _ := s.Begin()
	root, _ := Create(tx)
	tr := Open(tx, root)
	for i := 0; i < 500; i++ {
		tr.Insert(ikey(i), []byte(fmt.Sprintf("v1-%d", i)))
	}
	snap1, err := tx.CommitWithSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate heavily: delete evens, rewrite odds, add new ones.
	tx2, _ := s.Begin()
	tr2 := Open(tx2, root)
	for i := 0; i < 500; i += 2 {
		tr2.Delete(ikey(i))
	}
	for i := 1; i < 500; i += 2 {
		tr2.Insert(ikey(i), []byte(fmt.Sprintf("v2-%d", i)))
	}
	for i := 500; i < 800; i++ {
		tr2.Insert(ikey(i), []byte(fmt.Sprintf("v2-%d", i)))
	}
	snap2, err := tx2.CommitWithSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}

	// More churn after snapshot 2 so both snapshots live in the Pagelog.
	tx3, _ := s.Begin()
	tr3 := Open(tx3, root)
	for i := 0; i < 800; i++ {
		tr3.Delete(ikey(i))
	}
	tx3.Commit()

	// Snapshot 1 state.
	r1, err := sys.OpenSnapshot(retro.SnapshotID(snap1))
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	tv1 := Open(r1, root)
	if cnt, err := tv1.Count(); err != nil || cnt != 500 {
		t.Fatalf("snapshot 1 count = %d, %v", cnt, err)
	}
	v, found, _ := tv1.Get(ikey(42))
	if !found || string(v) != "v1-42" {
		t.Errorf("snapshot 1 Get(42) = %q %v", v, found)
	}
	if err := tv1.CheckInvariants(); err != nil {
		t.Errorf("snapshot 1 invariants: %v", err)
	}

	// Snapshot 2 state.
	r2, err := sys.OpenSnapshot(retro.SnapshotID(snap2))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	tv2 := Open(r2, root)
	if cnt, err := tv2.Count(); err != nil || cnt != 550 {
		t.Fatalf("snapshot 2 count = %d, %v (want 250 odds + 300 new)", cnt, err)
	}
	if _, found, _ := tv2.Get(ikey(42)); found {
		t.Error("snapshot 2 should not contain deleted even key")
	}
	v, found, _ = tv2.Get(ikey(43))
	if !found || string(v) != "v2-43" {
		t.Errorf("snapshot 2 Get(43) = %q %v", v, found)
	}

	// Current state is empty.
	rt, _ := s.BeginRead()
	defer rt.Close()
	if cnt, _ := Open(rt, root).Count(); cnt != 0 {
		t.Errorf("current count = %d, want 0", cnt)
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	s := storage.NewStore()
	tx, _ := s.Begin()
	root, _ := Create(tx)
	tr := Open(tx, root)
	val := bytes.Repeat([]byte{7}, 120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(ikey(i), val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tx.Rollback()
}

func BenchmarkGetRandom(b *testing.B) {
	s := storage.NewStore()
	tx, _ := s.Begin()
	root, _ := Create(tx)
	tr := Open(tx, root)
	const n = 100000
	val := bytes.Repeat([]byte{7}, 120)
	for i := 0; i < n; i++ {
		tr.Insert(ikey(i), val)
	}
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := tr.Get(ikey(r.Intn(n))); err != nil || !found {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tx.Rollback()
}

// Property (testing/quick): for any set of key/value pairs, inserting
// them all yields a tree whose in-order scan is exactly the sorted,
// last-write-wins set, and whose structural invariants hold.
func TestQuickInsertScanProperty(t *testing.T) {
	f := func(pairs map[string]string) bool {
		s := storage.NewStore()
		tx, err := s.Begin()
		if err != nil {
			return false
		}
		defer tx.Rollback()
		root, err := Create(tx)
		if err != nil {
			return false
		}
		tr := Open(tx, root)
		for k, v := range pairs {
			if len(k)+len(v) > MaxCellPayload/2 {
				continue
			}
			if err := tr.Insert([]byte(k), []byte(v)); err != nil {
				return false
			}
		}
		want := make(map[string]string)
		for k, v := range pairs {
			if len(k)+len(v) > MaxCellPayload/2 {
				continue
			}
			want[k] = v
		}
		keys := make([]string, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		c := tr.Cursor()
		i := 0
		ok, err := c.First()
		for ; ok && err == nil; ok, err = c.Next() {
			if i >= len(keys) || string(c.Key()) != keys[i] || string(c.Value()) != want[keys[i]] {
				return false
			}
			i++
		}
		return err == nil && i == len(keys) && tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): deleting a random subset removes exactly
// that subset.
func TestQuickDeleteProperty(t *testing.T) {
	f := func(keys []string, deleteMask []bool) bool {
		s := storage.NewStore()
		tx, err := s.Begin()
		if err != nil {
			return false
		}
		defer tx.Rollback()
		root, _ := Create(tx)
		tr := Open(tx, root)
		live := make(map[string]bool)
		for _, k := range keys {
			if len(k) > MaxCellPayload/2 {
				continue
			}
			if err := tr.Insert([]byte(k), []byte("v")); err != nil {
				return false
			}
			live[k] = true
		}
		for i, k := range keys {
			if i < len(deleteMask) && deleteMask[i] && live[k] {
				found, err := tr.Delete([]byte(k))
				if err != nil || !found {
					return false
				}
				delete(live, k)
			}
		}
		n, err := tr.Count()
		return err == nil && n == len(live) && tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSplitMakesRoomForLargeCell: the byte-midpoint split of a leaf
// holding b (1 KiB), c (1.4 KiB) and da puts b and c on the left, where
// a 1.7 KiB cell for a does not fit; the split must move so that it does.
func TestSplitMakesRoomForLargeCell(t *testing.T) {
	_, tx, tr := testTree(t)
	defer tx.Rollback()
	cells := []struct {
		key string
		n   int
	}{{"da", 336}, {"b", 1092}, {"c", 1421}, {"a", 1701}}
	for _, c := range cells {
		if err := tr.Insert(k(c.key), bytes.Repeat([]byte{c.key[0]}, c.n)); err != nil {
			t.Fatalf("Insert(%s, %d bytes): %v", c.key, c.n, err)
		}
	}
	for _, c := range cells {
		if v, found, err := tr.Get(k(c.key)); err != nil || !found || len(v) != c.n {
			t.Errorf("Get(%s) = %d bytes, %v, %v", c.key, len(v), found, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
