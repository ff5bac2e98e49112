package repl

import (
	"testing"

	"rql"
)

// TestExportAnnotsFailsOnBrokenSnapIds pins which SnapIds failures a
// bootstrap may ignore: a missing table means no snapshot was recorded
// yet (an empty export), but a SnapIds the export cannot read must fail
// the bootstrap rather than ship a replica no annotations.
func TestExportAnnotsFailsOnBrokenSnapIds(t *testing.T) {
	db, err := rql.Open(rql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := NewPrimary(db, PrimaryConfig{})
	defer p.Close()

	anns, err := p.exportAnnots(nil)
	if err != nil || len(anns) != 0 {
		t.Fatalf("export before any SnapIds: %v, %v; want an empty export", anns, err)
	}

	if err := db.Conn().Exec(`CREATE TABLE SnapIds (snap_id INTEGER, snap_ts TEXT)`, nil); err != nil {
		t.Fatal(err)
	}
	if anns, err := p.exportAnnots(nil); err == nil {
		t.Fatalf("export of a SnapIds without a label column returned %v and no error", anns)
	}
}
