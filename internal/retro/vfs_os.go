package retro

import (
	"os"
	"path/filepath"
	"strings"
)

// osFS is the file backing: the files of one directory of the host's
// file system. *os.File is its vfile.
type osFS struct{ dir string }

func (d osFS) Create(name string) (vfile, error) {
	return d.open(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC)
}
func (d osFS) Open(name string) (vfile, error) { return d.open(name, os.O_RDONLY) }

func (d osFS) open(name string, flag int) (vfile, error) {
	f, err := os.OpenFile(filepath.Join(d.dir, name), flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (d osFS) Rename(oldName, newName string) error {
	return os.Rename(filepath.Join(d.dir, oldName), filepath.Join(d.dir, newName))
}

func (d osFS) Remove(name string) error { return os.Remove(filepath.Join(d.dir, name)) }

func (d osFS) List(prefix string) ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), prefix) {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (d osFS) SyncDir() error {
	f, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	defer f.Close() // opened only to sync
	return f.Sync()
}
