package retro

import (
	"errors"
	"sync"
	"testing"

	"rql/internal/storage"
)

// requireNoPinnedReads fails unless the store holds no MVCC read pin.
// The probe is the store's bootstrap, which refuses while readers are
// active; it empties the store, so it ends a test.
func requireNoPinnedReads(t *testing.T, e *env) {
	t.Helper()
	if err := e.store.ApplyBootstrap(e.store.LSN(), e.store.NumPages(), nil, nil); err != nil {
		t.Fatalf("store still pins a read: %v", err)
	}
}

// Close must be idempotent: repeated Closes release the set's read pin
// once, and the set refuses Open afterwards.
func TestSnapshotSetCloseIdempotent(t *testing.T) {
	e := newEnv(t, Options{})
	s1, ids := e.writePages(t, []storage.PageID{0}, []byte{1}, true)
	s2, _ := e.writePages(t, ids, []byte{2}, true)

	set, err := e.sys.OpenSnapshotSet([]SnapshotID{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	set.Close()
	set.Close()
	set.Close()
	if _, err := set.Open(s1); !errors.Is(err, ErrReaderClosed) {
		t.Fatalf("Open after repeated Close: %v", err)
	}
	requireNoPinnedReads(t, e)
}

func TestSnapshotSetCloseConcurrent(t *testing.T) {
	e := newEnv(t, Options{})
	s1, ids := e.writePages(t, []storage.PageID{0}, []byte{1}, true)
	s2, _ := e.writePages(t, ids, []byte{2}, true)

	set, err := e.sys.OpenSnapshotSet([]SnapshotID{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			set.Close()
		}()
	}
	wg.Wait()
	if _, err := set.Open(s2); !errors.Is(err, ErrReaderClosed) {
		t.Fatalf("Open after concurrent Close: %v", err)
	}
	requireNoPinnedReads(t, e)
}

// A failed OpenSnapshotSet must leave no trace: no pinned read
// transaction, no batch build counted.
func TestSnapshotSetOpenFailureLeavesNoReader(t *testing.T) {
	e := newEnv(t, Options{})
	s1, _ := e.writePages(t, []storage.PageID{0}, []byte{1}, true)

	if _, err := e.sys.OpenSnapshotSet([]SnapshotID{s1, s1 + 99}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("OpenSnapshotSet with unknown member: err = %v, want ErrNoSnapshot", err)
	}
	if st := e.sys.Stats(); st.SPTBatchBuilds != 0 {
		t.Fatalf("failed open counted %d batch builds", st.SPTBatchBuilds)
	}
	requireNoPinnedReads(t, e)
}
