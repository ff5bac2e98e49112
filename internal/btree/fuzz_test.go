package btree

import (
	"bytes"
	"sort"
	"testing"

	"rql/internal/storage"
)

// FuzzTreeOps runs a stream of up to 64 inserts, deletes, key rewrites,
// held-cursor lookups and reopens, three bytes an operation, against a
// sorted-map model: the tree's invariants must hold after every rewrite
// and at the end, where an in-order scan must be exactly the model. Keys
// are 1–3 letters of a four-letter alphabet, so rewrites often keep
// their length and land on live keys; values run up to ~1.8 KiB, so a
// few dozen operations split leaves and grow the tree a level. (Longer
// streams make each input slow enough that minimizing a new one stalls a
// short fuzzing run.) An insert or delete with an odd third byte goes
// through a second handle on the same transaction. One cursor lives for
// the whole stream; a lookup
// Finds or Seeks through it and must answer what a fresh tree's Get and a
// fresh cursor's Seek answer. A reopen moves the handle, and so the
// cursor, to a tree of a second store under the same root id, with a
// model of its own.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 200, 0, 2, 200, 0, 3, 200, 2, 1, 65, 1, 2, 0})
	long := make([]byte, 0, 3*64)
	for i := 0; i < 64; i++ {
		long = append(long, byte(i%3), byte(i*37), byte(i*101))
	}
	f.Add(long)
	f.Add([]byte{0, 1, 200, 0, 2, 200, 0, 3, 200, 3, 2, 0, 4, 0, 0, 0, 2, 9, 3, 2, 1, 4, 0, 0, 3, 1, 0})
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
		for ; len(ops) >= 3; ops = ops[3:] {
			op, a, b := ops[0]%5, ops[1], ops[2]
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
			case 1:
				found, err := w.Delete(key)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := model[string(key)]; found != ok {
					t.Fatalf("Delete(%q) = %v, model has it: %v", key, found, ok)
				}
				delete(model, string(key))
			case 2:
				to := fuzzKey(b)
				found, err := tr.ReplaceKey(key, to)
				if err != nil {
					t.Fatal(err)
				}
				val, ok := model[string(key)]
				if found != ok {
					t.Fatalf("ReplaceKey(%q, %q) = %v, model has it: %v", key, to, found, ok)
				}
				if ok {
					delete(model, string(key))
					model[string(to)] = val
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("ReplaceKey(%q, %q): %v", key, to, err)
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
