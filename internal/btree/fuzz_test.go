package btree

import (
	"bytes"
	"sort"
	"testing"

	"rql/internal/storage"
)

// FuzzTreeOps runs a stream of up to 64 inserts, deletes and key
// rewrites, three bytes an operation, against a sorted-map model: the
// tree's invariants must hold after every rewrite and at the end, where
// an in-order scan must be exactly the model. Keys are 1–3 letters of a
// four-letter alphabet, so rewrites often keep their length and land on
// live keys; values run up to ~1.8 KiB, so a few dozen operations split
// leaves and grow the tree a level. (Longer streams make each input
// slow enough that minimizing a new one stalls a short fuzzing run.)
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 200, 0, 2, 200, 0, 3, 200, 2, 1, 65, 1, 2, 0})
	long := make([]byte, 0, 3*64)
	for i := 0; i < 64; i++ {
		long = append(long, byte(i%3), byte(i*37), byte(i*101))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			return
		}
		s := storage.NewStore()
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		root, err := Create(tx)
		if err != nil {
			t.Fatal(err)
		}
		tr := Open(tx, root)
		model := map[string][]byte{}
		for ; len(ops) >= 3; ops = ops[3:] {
			op, a, b := ops[0]%3, ops[1], ops[2]
			key := fuzzKey(a)
			switch op {
			case 0:
				val := bytes.Repeat([]byte{a}, int(b)*7)
				if err := tr.Insert(key, val); err != nil {
					t.Fatal(err)
				}
				model[string(key)] = val
			case 1:
				found, err := tr.Delete(key)
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
