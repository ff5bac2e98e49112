package sql

import (
	"errors"
	"fmt"
	"sort"
)

// Materialized retro views. The SQL layer owns the durable definition
// (a "view" catalog row in the non-snapshotable side store) and the DDL
// statements; the incremental maintenance machinery lives above it (the
// core package's ViewManager) and attaches through RetroViewHook. The
// result rows themselves land in an ordinary side-store table with the
// view's name, so `SELECT * FROM v` needs no planner changes.

// RetroViewHook is implemented by the view maintenance layer.
// ValidateView runs inside CREATE RETRO VIEW before the catalog write
// and may reject the definition (unknown mechanism, malformed args).
// ViewCreated/ViewDropped run after the DDL's side-store transaction
// committed; ViewRefresh synchronously catches a view up to the latest
// declared snapshot.
type RetroViewHook interface {
	ValidateView(def RetroViewDef) error
	ViewCreated(def RetroViewDef)
	ViewDropped(name string)
	ViewRefresh(name string) error
}

// SetRetroViewHook attaches the view maintenance layer; nil detaches
// it (view DDL then fails).
func (db *DB) SetRetroViewHook(h RetroViewHook) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.viewHook = h
}

func (db *DB) retroViewHook() RetroViewHook {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.viewHook
}

// SetViewDDLHook registers fn to observe committed retro-view DDL
// (create=true with the full definition, create=false with only
// def.Name on drop). Replication ships view DDL logically through this
// hook: view definitions live in the side store, which page-level
// deltas do not cover. nil unregisters.
func (db *DB) SetViewDDLHook(fn func(create bool, def RetroViewDef)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.viewDDLHook = fn
}

func (db *DB) notifyViewDDL(create bool, def RetroViewDef) {
	db.mu.Lock()
	fn := db.viewDDLHook
	db.mu.Unlock()
	if fn != nil {
		fn(create, def)
	}
}

// SetSnapshotHook registers fn to observe every snapshot declared
// through CommitWithSnapshot, called after the commit returned — the
// snapshot's pages are installed and readable by then (group commits
// drain in LSN order). The view maintenance layer uses it as its
// refresh trigger. fn must not block: it runs on the committing
// connection's goroutine. nil unregisters.
func (db *DB) SetSnapshotHook(fn func(snapID uint64)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.snapHook = fn
}

func (db *DB) notifySnapshot(snapID uint64) {
	db.mu.Lock()
	fn := db.snapHook
	db.mu.Unlock()
	if fn != nil {
		fn(snapID)
	}
}

// MaintainView makes c the connection that materializes retro view
// name: the view's result table, a TEMP table of the view's name, can be
// created on c and on no other connection.
func (c *Conn) MaintainView(name string) { c.maintains = name }

// ListViews returns the retro view definitions in name order.
func (db *DB) ListViews() ([]RetroViewDef, error) {
	rt, err := db.side.BeginRead()
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	sch, err := db.currentSchema(db.side, rt, rt.LSN(), true)
	if err != nil {
		return nil, err
	}
	out := make([]RetroViewDef, 0, len(sch.views))
	for _, v := range sch.views {
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// GetView returns a view's definition, or ErrNoView.
func (db *DB) GetView(name string) (RetroViewDef, error) {
	rt, err := db.side.BeginRead()
	if err != nil {
		return RetroViewDef{}, err
	}
	defer rt.Close()
	sch, err := db.currentSchema(db.side, rt, rt.LSN(), true)
	if err != nil {
		return RetroViewDef{}, err
	}
	v := sch.view(name)
	if v == nil {
		return RetroViewDef{}, fmt.Errorf("%w: %s", ErrNoView, name)
	}
	return *v, nil
}

// ErrNoView reports a missing retro view.
var ErrNoView = errors.New("sql: no such retro view")

func (w *writeEnv) execCreateRetroView(s *CreateRetroViewStmt) error {
	hook := w.ec.conn.db.retroViewHook()
	if hook == nil {
		return errors.New("sql: retro views are not supported on this database")
	}
	sch := w.ec.sideSchema
	if sch.view(s.Name) != nil {
		return fmt.Errorf("%w: retro view %s", ErrExists, s.Name)
	}
	// The view materializes into a side-store table with its own name,
	// so the name must be free in both stores.
	if sch.table(s.Name) != nil || w.ec.mainSchema.table(s.Name) != nil {
		return fmt.Errorf("%w: table %s", ErrExists, s.Name)
	}
	def := &RetroViewDef{
		Name:      s.Name,
		Mechanism: s.Mechanism,
		Qq:        s.Qq,
		Extra:     s.Extra,
		HasExtra:  s.HasExtra,
	}
	if err := hook.ValidateView(*def); err != nil {
		return err
	}
	return putView(w.tx, def)
}

func (w *writeEnv) execDropRetroView(s *DropRetroViewStmt) error {
	sch := w.ec.sideSchema
	v := sch.view(s.Name)
	if v == nil {
		if s.IfExists {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrNoView, s.Name)
	}
	// Drop the materialized result table (and its indexes) with the
	// definition, in the same side-store transaction. It may not exist
	// yet: the table is created lazily at first materialization.
	if t := sch.table(v.Name); t != nil {
		if err := w.execDrop(&DropStmt{Name: t.Name}); err != nil {
			return err
		}
	}
	return deleteCatalogEntry(w.tx, "view", v.Name)
}
