package btree

import (
	"bytes"
	"sort"
	"testing"

	"rql/internal/storage"
)

// FuzzTreeOps runs a stream of up to 64 inserts, deletes, key rewrites,
// held-cursor lookups, writes through the held cursor and reopens, three
// bytes an operation, against a sorted-map model: the tree's invariants
// must hold after every write through the cursor and at the end, where
// an in-order scan must be exactly the model. Keys
// are 1–3 letters of a four-letter alphabet, so rewrites often keep
// their length and land on live keys; values run up to ~1.8 KiB, so a
// few dozen operations split leaves and grow the tree a level. (Longer
// streams make each input slow enough that minimizing a new one stalls a
// short fuzzing run.) An insert or delete with an odd third byte goes
// through a second handle on the same transaction; either way a write
// that is not the held cursor's must retire the cursor's leaf. One
// cursor lives for the whole stream; a lookup Finds or Seeks through it
// and must answer what a fresh tree's Get and a fresh cursor's Seek
// answer. A cursor write (a put, a key rewrite of the entry a Find
// landed on, a delete) goes through it; one that the pager saw make more
// than the leaf's one GetMut (a split, a freed leaf) or that rewrote a
// key past its leaf's edge must have retired the leaf, any other must
// have kept it, and lookups of the written key and its neighbours follow
// through the cursor and through a fresh handle. A reopen moves the
// handle, and so the cursor, to a tree of a second store under the same
// root id, with a model of its own.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 200, 0, 2, 200, 0, 3, 200, 2, 1, 65, 1, 2, 0})
	long := make([]byte, 0, 3*64)
	for i := 0; i < 64; i++ {
		long = append(long, byte(i%3), byte(i*37), byte(i*101))
	}
	f.Add(long)
	f.Add([]byte{0, 1, 200, 0, 2, 200, 0, 3, 200, 3, 2, 0, 4, 0, 0, 0, 2, 9, 3, 2, 1, 4, 0, 0, 3, 1, 0})
	// Cursor puts: three small ones in the root leaf, then ~1.4 KiB ones
	// until the leaf splits.
	f.Add([]byte{5, 1, 2, 5, 2, 2, 5, 3, 2, 5, 4, 200, 5, 5, 200, 5, 6, 200, 5, 7, 200, 3, 5, 0, 3, 8, 1})
	// A cursor rewrite at a leaf's edge: the third ~1.4 KiB insert splits
	// aa ab | ac, and moving ab, the left leaf's last key, to ad, past the
	// right leaf's first, must fall back.
	f.Add([]byte{0, 64, 200, 0, 68, 200, 0, 72, 200, 6, 68, 76, 3, 76, 0, 3, 72, 1})
	// Cursor deletes: two of a leaf's only cell, which free the leaf,
	// then one in a leaf it keeps.
	f.Add([]byte{5, 1, 200, 5, 2, 200, 5, 3, 200, 5, 4, 200, 7, 2, 0, 7, 3, 0, 3, 3, 0, 7, 4, 0, 3, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			return
		}
		var txs [2]*storage.Tx
		var roots [2]storage.PageID
		models := [2]map[string][]byte{{}, {}}
		for i := range txs {
			tx, err := storage.NewStore().Begin()
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Rollback()
			if roots[i], err = Create(tx); err != nil {
				t.Fatal(err)
			}
			txs[i] = tx
		}
		if roots[0] != roots[1] {
			t.Fatalf("root ids %d and %d differ", roots[0], roots[1])
		}
		cur := 0
		tr := Open(txs[cur], roots[cur])
		model := models[cur]
		held := tr.Cursor()
		// near checks lookups of key and its neighbours through the held
		// cursor against a fresh handle's and the model.
		near := func(key []byte) {
			fresh := Open(txs[cur], roots[cur])
			for _, k := range [][]byte{key, append(key[:len(key):len(key)], 'a'), key[:len(key)-1]} {
				v, found, err := held.Find(k)
				fv, ffound, ferr := fresh.Get(k)
				if err != nil || ferr != nil {
					t.Fatal(err, ferr)
				}
				want, ok := model[string(k)]
				if found != ok || ffound != ok || !bytes.Equal(v, want) || !bytes.Equal(fv, want) {
					t.Fatalf("held Find(%q) = %v, fresh Get %v, model has it: %v", k, found, ffound, ok)
				}
				fc := fresh.Cursor()
				hok, err := held.Seek(k)
				fok, ferr := fc.Seek(k)
				if err != nil || ferr != nil {
					t.Fatal(err, ferr)
				}
				if hok != fok || !bytes.Equal(held.Key(), fc.Key()) {
					t.Fatalf("held Seek(%q) at %q,%v; fresh cursor at %q,%v", k, held.Key(), hok, fc.Key(), fok)
				}
			}
		}
		// kept checks the tree after a write through the held cursor, and
		// that the write kept the cursor's leaf exactly when it should.
		kept := func(what string, key []byte, want bool) {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%s %q: %v", what, key, err)
			}
			if held.current() != want {
				t.Fatalf("%s %q: leaf kept %v, want %v", what, key, held.current(), want)
			}
			near(key)
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			op, a, b := ops[0]%8, ops[1], ops[2]
			key := fuzzKey(a)
			w := tr // an odd b writes through a second handle
			if b&1 == 1 {
				w = Open(txs[cur], roots[cur])
			}
			switch op {
			case 0:
				val := bytes.Repeat([]byte{a}, int(b)*7)
				if err := w.Insert(key, val); err != nil {
					t.Fatal(err)
				}
				model[string(key)] = val
				if held.current() {
					t.Fatalf("Insert(%q) through a handle kept the cursor's leaf", key)
				}
			case 1:
				found, err := w.Delete(key)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := model[string(key)]; found != ok {
					t.Fatalf("Delete(%q) = %v, model has it: %v", key, found, ok)
				}
				delete(model, string(key))
				if found && held.current() {
					t.Fatalf("Delete(%q) through a handle kept the cursor's leaf", key)
				}
			case 2:
				to := fuzzKey(b)
				found, err := tr.replaceKey(key, to)
				if err != nil {
					t.Fatal(err)
				}
				val, ok := model[string(key)]
				if found != ok {
					t.Fatalf("replaceKey(%q, %q) = %v, model has it: %v", key, to, found, ok)
				}
				if ok {
					delete(model, string(key))
					model[string(to)] = val
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("replaceKey(%q, %q): %v", key, to, err)
				}
			case 3:
				fresh := Open(txs[cur], roots[cur])
				if b&1 == 0 {
					v, found, err := held.Find(key)
					fv, ffound, ferr := fresh.Get(key)
					if err != nil || ferr != nil {
						t.Fatal(err, ferr)
					}
					want, ok := model[string(key)]
					if found != ok || ffound != ok || !bytes.Equal(v, want) || !bytes.Equal(fv, want) {
						t.Fatalf("held Find(%q) = %v, fresh Get %v, model has it: %v", key, found, ffound, ok)
					}
					break
				}
				fc := fresh.Cursor()
				ok, err := held.Seek(key)
				fok, ferr := fc.Seek(key)
				if err != nil || ferr != nil {
					t.Fatal(err, ferr)
				}
				if ok != fok || !bytes.Equal(held.Key(), fc.Key()) || !bytes.Equal(held.Value(), fc.Value()) {
					t.Fatalf("held Seek(%q) at %q,%v; fresh cursor at %q,%v", key, held.Key(), ok, fc.Key(), fok)
				}
			case 4:
				cur ^= 1
				tr.Reopen(txs[cur], roots[cur])
				model = models[cur]
			case 5:
				val := bytes.Repeat([]byte{a}, int(b)*7)
				writes := txs[cur].Writes()
				if err := held.Put(key, val); err != nil {
					t.Fatal(err)
				}
				model[string(key)] = val
				kept("Put", key, txs[cur].Writes()-writes == 1) // a split makes more writes
			case 6:
				// Rewrite the entry a Find lands on, if any, through the cursor.
				to := fuzzKey(b)
				if _, found, err := held.Find(key); err != nil || !found {
					if err != nil {
						t.Fatal(err)
					}
					break
				}
				// In place only when the leaf alone vouches for the new key:
				// not past an edge that another leaf lies beyond.
				up := bytes.Compare(to, key) > 0
				edge := !up && held.idx == 0 && held.leaf.prev() != 0 ||
					up && held.idx == held.leaf.numCells()-1 && held.leaf.next() != 0
				inPlace := len(to) == len(key) && held.between(key, to)
				if edge && inPlace {
					t.Fatalf("ReplaceKey(%q, %q) past the leaf's edge counts as in place", key, to)
				}
				if err := held.ReplaceKey(to); err != nil {
					t.Fatal(err)
				}
				val := model[string(key)]
				delete(model, string(key))
				model[string(to)] = val
				if string(to) != string(key) {
					kept("ReplaceKey", to, inPlace)
				}
			case 7:
				writes := txs[cur].Writes()
				found, err := held.Delete(key)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := model[string(key)]; found != ok {
					t.Fatalf("cursor Delete(%q) = %v, model has it: %v", key, found, ok)
				}
				delete(model, string(key))
				if found {
					kept("Delete", key, txs[cur].Writes()-writes == 1) // a freed leaf makes more writes
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		c := tr.Cursor()
		ok, err := c.First()
		for _, k := range keys {
			if err != nil || !ok {
				t.Fatalf("scan ended before %q: %v", k, err)
			}
			if string(c.Key()) != k || !bytes.Equal(c.Value(), model[k]) {
				t.Fatalf("scan at %q, model at %q", c.Key(), k)
			}
			ok, err = c.Next()
		}
		if err != nil || ok {
			t.Fatalf("scan runs past the model's %d keys: %q %v", len(keys), c.Key(), err)
		}
	})
}

// fuzzKey maps a byte to a key of 1–3 letters from "abcd".
func fuzzKey(x byte) []byte {
	key := []byte{'a' + x&3, 'a' + x>>2&3, 'a' + x>>4&3}
	return key[:1+int(x>>6)%3]
}
