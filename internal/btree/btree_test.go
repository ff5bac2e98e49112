package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
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
	if ok, err := c.Last(); err != nil || ok {
		t.Errorf("Last on empty: %v %v", ok, err)
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
	if ok, err := c.Last(); err != nil || !ok || !bytes.Equal(c.Key(), ikey(n-1)) {
		t.Errorf("Last: %x %v %v", c.Key(), ok, err)
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

// TestRandomizedAgainstModel: the tree must match a sorted-map model
// under arbitrary interleavings of insert, replace, delete, key
// rewrites, lookups and scans, with variable-size keys and values. Two
// stores hold a tree each under the same root id, and the walk now and
// then reopens its handle from one onto the other, or commits and
// reopens it on a new transaction of the same store, whose first write
// to a page copies it. Inserts and deletes go through the handle and
// through a second one on the same transaction in turn.
// One cursor lives for the whole walk: its Find and Seek at keys near
// the last one it looked up are checked against a fresh tree's Get and a
// fresh cursor's Seek, so a leaf it held from before a write, a split, a
// free or a reopen must never answer.
func TestRandomizedAgainstModel(t *testing.T) {
	type side struct {
		store *storage.Store
		tx    *storage.Tx
		root  storage.PageID
		model map[string]string
	}
	var sides [2]*side
	for i := range sides {
		s, tx, tr := testTree(t)
		sides[i] = &side{s, tx, tr.Root(), map[string]string{}}
		t.Cleanup(func() { sides[i].tx.Rollback() })
	}
	if sides[0].root != sides[1].root {
		t.Fatalf("root ids %d and %d differ: a reopen would not reuse the id", sides[0].root, sides[1].root)
	}
	cur := 0
	tr := Open(sides[cur].tx, sides[cur].root)
	model := sides[cur].model
	held := tr.Cursor()
	fresh := func() *Tree { return Open(sides[cur].tx, sides[cur].root) }
	// writer is the handle a step's insert or delete goes through: every
	// other one a handle of its own on the same transaction, which the
	// held cursor's tree does not see write.
	writer := func(step int) *Tree {
		if step%2 == 0 {
			return tr
		}
		return fresh()
	}
	r := rand.New(rand.NewSource(99))

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
	// heldKey is mostly the last key the held cursor looked up or one
	// byte from it, so the held leaf brackets it often.
	last := ""
	heldKey := func() string {
		key := anyKey()
		if last != "" && r.Intn(4) != 0 {
			key = last
			if r.Intn(2) == 0 {
				key = mutate(last)
			}
		}
		last = key
		return key
	}
	// near looks key and its neighbours up through the held cursor and
	// through a fresh handle, against the model.
	near := func(step int, key string) {
		t.Helper()
		for _, k := range []string{key, key + "a", key[:len(key)-1]} {
			v, found, err := held.Find([]byte(k))
			fv, ffound, ferr := fresh().Get([]byte(k))
			if err != nil || ferr != nil {
				t.Fatal(err, ferr)
			}
			want, inModel := model[k]
			if found != inModel || ffound != inModel || (found && (string(v) != want || string(fv) != want)) {
				t.Fatalf("step %d: after a cursor write, held Find(%q) = %q,%v; fresh Get %q,%v; model %q,%v", step, k, v, found, fv, ffound, want, inModel)
			}
			fc := fresh().Cursor()
			ok, err := held.Seek([]byte(k))
			fok, ferr := fc.Seek([]byte(k))
			if err != nil || ferr != nil {
				t.Fatal(err, ferr)
			}
			if ok != fok || !bytes.Equal(held.Key(), fc.Key()) {
				t.Fatalf("step %d: after a cursor write, held Seek(%q) at %q,%v; fresh cursor at %q,%v", step, k, held.Key(), ok, fc.Key(), fok)
			}
		}
	}
	var inPlace, moved, reopens, cursorPuts, splitPuts int
	for step := 0; step < 30000; step++ {
		switch r.Intn(17) {
		case 0, 1, 2, 3, 4, 5: // insert/replace
			key := randKey()
			val := randKey()
			if err := writer(step).Insert([]byte(key), []byte(val)); err != nil {
				t.Fatal(err)
			}
			model[key] = val
			if held.current() {
				t.Fatalf("step %d: Insert(%q) through a handle kept the held cursor's leaf", step, key)
			}
		case 6, 7: // delete (sometimes absent)
			key := anyKey()
			_, inModel := model[key]
			found, err := writer(step).Delete([]byte(key))
			if err != nil {
				t.Fatal(err)
			}
			if found != inModel {
				t.Fatalf("step %d: Delete(%q) found=%v model=%v", step, key, found, inModel)
			}
			delete(model, key)
			if found && held.current() {
				t.Fatalf("step %d: Delete(%q) through a handle kept the held cursor's leaf", step, key)
			}
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
		case 9: // rewrite a key through the held cursor, keeping its value (sometimes absent)
			old := anyKey()
			key := mutate(old)
			before := cellOf(t, tr, []byte(old))
			_, found, err := held.Find([]byte(old))
			if err == nil && found {
				err = held.ReplaceKey([]byte(key))
			}
			if err != nil {
				t.Fatal(err)
			}
			v, inModel := model[old]
			if found != inModel {
				t.Fatalf("step %d: Find(%q) before ReplaceKey(%q) found=%v model=%v", step, old, key, found, inModel)
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
			near(step, key)
		case 10: // occasional full validation
			if step%997 == 0 {
				validateAgainstModel(t, tr, model)
			}
		case 11: // Find through the held cursor
			key := heldKey()
			v, found, err := held.Find([]byte(key))
			if err != nil {
				t.Fatal(err)
			}
			want, inModel := model[key]
			fv, ffound, err := fresh().Get([]byte(key))
			if err != nil {
				t.Fatal(err)
			}
			if found != inModel || ffound != inModel || (found && (string(v) != want || string(fv) != want)) {
				t.Fatalf("step %d: held Find(%q) = %q,%v; fresh Get %q,%v; model %q,%v", step, key, v, found, fv, ffound, want, inModel)
			}
			if held.Valid() != found || (found && string(held.Key()) != key) {
				t.Fatalf("step %d: after Find(%q) = %v the cursor is valid=%v at %q", step, key, found, held.Valid(), held.Key())
			}
		case 12: // Seek through the held cursor, then one Next
			key := heldKey()
			fc := fresh().Cursor()
			for i := 0; i < 2; i++ {
				var ok, fok bool
				var err, ferr error
				if i == 0 {
					ok, err = held.Seek([]byte(key))
					fok, ferr = fc.Seek([]byte(key))
				} else {
					ok, err = held.Next()
					fok, ferr = fc.Next()
				}
				if err != nil || ferr != nil {
					t.Fatal(err, ferr)
				}
				if ok != fok || !bytes.Equal(held.Key(), fc.Key()) || !bytes.Equal(held.Value(), fc.Value()) {
					t.Fatalf("step %d: held Seek(%q)+%d Next at %q,%v; fresh cursor at %q,%v", step, key, i, held.Key(), ok, fc.Key(), fok)
				}
			}
		case 13: // reopen the handle, and with it the held cursor
			if r.Intn(2) == 0 { // on the other store
				cur ^= 1
				model = sides[cur].model
			} else { // on a new transaction of this one
				sd := sides[cur]
				if err := sd.tx.Commit(); err != nil {
					t.Fatal(err)
				}
				var err error
				if sd.tx, err = sd.store.Begin(); err != nil {
					t.Fatal(err)
				}
			}
			tr.Reopen(sides[cur].tx, sides[cur].root)
			reopens++
		case 14: // put through the held cursor: in the leaf, or a split
			key := heldKey()
			val := randKey()
			if r.Intn(8) == 0 {
				val = strings.Repeat(val, 30) // up to 1.2 KiB: splits
			}
			writes := sides[cur].tx.Writes()
			if err := held.Put([]byte(key), []byte(val)); err != nil {
				t.Fatal(err)
			}
			model[key] = val
			cursorPuts++
			if n := sides[cur].tx.Writes() - writes; n > 1 {
				splitPuts++
				if held.current() {
					t.Fatalf("step %d: Put(%q) made %d pager writes and kept the leaf", step, key, n)
				}
			} else if !held.current() || !held.Valid() || string(held.Key()) != key {
				t.Fatalf("step %d: in-leaf Put(%q) left the cursor valid=%v current=%v at %q", step, key, held.Valid(), held.current(), held.Key())
			}
			near(step, key)
		case 15: // delete through the held cursor
			key := heldKey()
			_, inModel := model[key]
			found, err := held.Delete([]byte(key))
			if err != nil {
				t.Fatal(err)
			}
			if found != inModel {
				t.Fatalf("step %d: cursor Delete(%q) found=%v model=%v", step, key, found, inModel)
			}
			delete(model, key)
			near(step, key)
		case 16: // the last key, through the held cursor
			ok, err := held.Last()
			if err != nil {
				t.Fatal(err)
			}
			maxKey := ""
			for mk := range model {
				maxKey = max(maxKey, mk)
			}
			if ok != (len(model) > 0) || string(held.Key()) != maxKey {
				t.Fatalf("step %d: Last = %q,%v; model's last %q of %d", step, held.Key(), ok, maxKey, len(model))
			}
		}
	}
	for cur = range sides {
		tr.Reopen(sides[cur].tx, sides[cur].root)
		validateAgainstModel(t, tr, sides[cur].model)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if inPlace < 100 || moved < 100 {
		t.Errorf("same-length rewrites: %d in place, %d moved; the walk does not cover both", inPlace, moved)
	}
	if reopens < 100 {
		t.Errorf("%d reopens; the walk does not switch stores", reopens)
	}
	if splitPuts < 20 || cursorPuts-splitPuts < 100 {
		t.Errorf("cursor puts: %d in the leaf, %d split; the walk does not cover both", cursorPuts-splitPuts, splitPuts)
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
	leaf, err := tr.descend(key)
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
	return cell{leaf.id, leaf.cellPtr(idx)}
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
