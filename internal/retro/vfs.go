package retro

import (
	"io"
	"io/fs"
	"sort"
	"strings"
	"sync"

	"rql/internal/storage"
)

// vfile is one open file of the Pagelog's backing: the hot tail or a
// sealed segment.
type vfile interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Close() error
}

// vfs is the directory the Pagelog's files live in, named relative to
// it. Every durable step of the archive — appends, reads, a seal's
// publication, tail rotation — is a call on these two interfaces, so
// the memory and file backings (memFS, osFS) share one code path.
type vfs interface {
	Create(name string) (vfile, error) // read-write, truncating an existing file
	Open(name string) (vfile, error)   // an existing file, read-only
	Rename(oldName, newName string) error
	Remove(name string) error
	List(prefix string) ([]string, error) // the names that start with prefix
	SyncDir() error                       // makes creates, renames and removes durable
}

// memChunk is memFS's allocation unit: a page read copies from one
// chunk, and a growing file appends chunks, never copying what it holds.
const memChunk = storage.PageSize

// memFS is the memory backing (an empty PagelogPath: tests, examples).
// Sync, SyncDir and Close have nothing to do: a file's bytes live until
// it is removed and its last handle dropped.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// memFile is one file's bytes; every handle on it is the *memFile.
type memFile struct {
	mu     sync.RWMutex
	chunks [][]byte // memChunk bytes each
	size   int64
}

func newMemFS() *memFS { return &memFS{files: make(map[string]*memFile)} }

func (m *memFS) Create(name string) (vfile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	m.files[name] = f
	return f, nil
}

func (m *memFS) Open(name string) (vfile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f := m.files[name]; f != nil {
		return f, nil
	}
	return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
}

// Renaming or removing a missing file is a no-op (the Pagelog never does).
func (m *memFS) Rename(oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f := m.files[oldName]; f != nil {
		delete(m.files, oldName)
		m.files[newName] = f
	}
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

func (m *memFS) List(prefix string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) SyncDir() error { return nil }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var err error
	if rem := f.size - off; int64(len(p)) > rem {
		p, err = p[:max(rem, 0)], io.EOF
	}
	for n := 0; n < len(p); {
		pos := off + int64(n)
		n += copy(p[n:], f.chunks[pos/memChunk][pos%memChunk:])
	}
	return len(p), err
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.size = max(f.size, off+int64(len(p))); int64(len(f.chunks))*memChunk < f.size; {
		f.chunks = append(f.chunks, make([]byte, memChunk))
	}
	for n := 0; n < len(p); {
		pos := off + int64(n)
		n += copy(f.chunks[pos/memChunk][pos%memChunk:], p[n:])
	}
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }
