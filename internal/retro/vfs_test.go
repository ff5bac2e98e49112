package retro

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"

	"rql/internal/storage"
)

// faultFS wraps a vfs to inject faults and to record the order of
// operations. A fault armed by failNext fails the next matching call
// exactly once, however many goroutines make that call at once.
type faultFS struct {
	vfs
	mu     sync.Mutex
	faults []fault
	ops    []string // "Op name", in call order
}

type fault struct {
	op, match string // operation, and a substring of its file name ("" matches any)
	err       error
}

// faultFile is a file opened through a faultFS.
type faultFile struct {
	vfile
	fs   *faultFS
	name string
}

// failNext makes the next op on a file whose name contains match fail
// with err.
func (f *faultFS) failNext(op, match string, err error) {
	f.mu.Lock()
	f.faults = append(f.faults, fault{op, match, err})
	f.mu.Unlock()
}

// step logs one operation and claims the first fault armed for it.
func (f *faultFS) step(op, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = append(f.ops, strings.TrimSpace(op+" "+name))
	for i, ft := range f.faults {
		if ft.op == op && strings.Contains(name, ft.match) {
			f.faults = append(f.faults[:i], f.faults[i+1:]...)
			return ft.err
		}
	}
	return nil
}

// mutations returns the logged operations other than reads and clears
// the log.
func (f *faultFS) mutations() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for _, op := range f.ops {
		if !strings.HasPrefix(op, "ReadAt ") && !strings.HasPrefix(op, "List ") {
			out = append(out, op)
		}
	}
	f.ops = nil
	return out
}

func (f *faultFS) wrap(name string, vf vfile, err error) (vfile, error) {
	if err != nil {
		return nil, err
	}
	return &faultFile{vf, f, name}, nil
}

func (f *faultFS) Create(name string) (vfile, error) {
	if err := f.step("Create", name); err != nil {
		return nil, err
	}
	vf, err := f.vfs.Create(name)
	return f.wrap(name, vf, err)
}

func (f *faultFS) Open(name string) (vfile, error) {
	if err := f.step("Open", name); err != nil {
		return nil, err
	}
	vf, err := f.vfs.Open(name)
	return f.wrap(name, vf, err)
}

func (f *faultFS) Rename(oldName, newName string) error {
	if err := f.step("Rename", oldName+" "+newName); err != nil {
		return err
	}
	return f.vfs.Rename(oldName, newName)
}

func (f *faultFS) Remove(name string) error {
	if err := f.step("Remove", name); err != nil {
		return err
	}
	return f.vfs.Remove(name)
}

func (f *faultFS) List(prefix string) ([]string, error) {
	if err := f.step("List", prefix); err != nil {
		return nil, err
	}
	return f.vfs.List(prefix)
}

func (f *faultFS) SyncDir() error {
	if err := f.step("SyncDir", ""); err != nil {
		return err
	}
	return f.vfs.SyncDir()
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := ff.fs.step("ReadAt", ff.name); err != nil {
		return 0, err
	}
	return ff.vfile.ReadAt(p, off)
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if err := ff.fs.step("WriteAt", ff.name); err != nil {
		return 0, err
	}
	return ff.vfile.WriteAt(p, off)
}

func (ff *faultFile) Sync() error {
	if err := ff.fs.step("Sync", ff.name); err != nil {
		return err
	}
	return ff.vfile.Sync()
}

func (ff *faultFile) Close() error {
	if err := ff.fs.step("Close", ff.name); err != nil {
		return err
	}
	return ff.vfile.Close()
}

// eachBacking runs fn over both Pagelog backings — memFS, and osFS in
// a fresh temporary directory — each behind a faultFS.
func eachBacking(t *testing.T, fn func(t *testing.T, dir *faultFS)) {
	t.Run("mem", func(t *testing.T) { fn(t, &faultFS{vfs: newMemFS()}) })
	t.Run("os", func(t *testing.T) { fn(t, &faultFS{vfs: osFS{t.TempDir()}}) })
}

// newEnvIn is newEnv with the Pagelog named "pagelog" in dir.
func newEnvIn(t testing.TB, opts Options, dir vfs) *env {
	t.Helper()
	s := storage.NewStore()
	sys, err := newSystem(s, opts, dir, "pagelog")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return &env{store: s, sys: sys}
}

// blobFile returns blob as a read-only file, the way a sealed segment
// holds its encoded bytes.
func blobFile(t testing.TB, blob []byte) vfile {
	t.Helper()
	m := newMemFS()
	f, err := m.Create("seg")
	if err == nil {
		_, err = f.WriteAt(blob, 0)
	}
	if err == nil {
		f, err = m.Open("seg")
	}
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// The two backings answer every call the Pagelog makes alike: writes
// across memFS chunk boundaries and past the end, short reads ending in
// io.EOF, truncation by Create, and the directory calls.
func TestPagelogBackingsAgree(t *testing.T) {
	eachBacking(t, func(t *testing.T, dir *faultFS) {
		f, err := dir.Create("a")
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 3*memChunk+100)
		for i := range data {
			data[i] = byte(i * 7)
		}
		if _, err := f.WriteAt(data[:10], 0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(data[10:], 10); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if n, err := f.ReadAt(got, 0); n != len(data) || err != nil || !bytes.Equal(got, data) {
			t.Fatalf("ReadAt whole file = (%d, %v), equal=%v", n, err, bytes.Equal(got, data))
		}
		if n, err := f.ReadAt(got[:200], int64(len(data)-50)); n != 50 || !errors.Is(err, io.EOF) {
			t.Fatalf("ReadAt past the end = (%d, %v), want (50, EOF)", n, err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		if err := dir.Rename("a", "b.1"); err != nil {
			t.Fatal(err)
		}
		r, err := dir.Open("b.1")
		if err != nil {
			t.Fatal(err)
		}
		if n, err := r.ReadAt(got[:memChunk], memChunk-1); n != memChunk || err != nil || !bytes.Equal(got[:memChunk], data[memChunk-1:2*memChunk-1]) {
			t.Fatalf("ReadAt across a chunk boundary = (%d, %v)", n, err)
		}
		r.Close()
		if _, err := dir.Open("a"); err == nil {
			t.Error("Open of a renamed-away file succeeded")
		}

		if f, err = dir.Create("b.1"); err != nil {
			t.Fatal(err)
		}
		if n, err := f.ReadAt(got[:1], 0); n != 0 || !errors.Is(err, io.EOF) {
			t.Errorf("ReadAt after Create truncated = (%d, %v), want (0, EOF)", n, err)
		}
		f.Close()
		if f, err = dir.Create("b.2"); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if names, err := dir.List("b."); err != nil || strings.Join(names, ",") != "b.1,b.2" {
			t.Errorf("List(b.) = %v, %v", names, err)
		}
		if err := dir.Remove("b.1"); err != nil {
			t.Fatal(err)
		}
		if err := dir.SyncDir(); err != nil {
			t.Fatal(err)
		}
		if names, _ := dir.List(""); strings.Join(names, ",") != "b.2" {
			t.Errorf("List() = %v, want [b.2]", names)
		}
	})
}
