package sql

import (
	"rql/internal/record"
	"rql/internal/retro"
)

// PoisonScans makes every base-table access path of db overwrite its row
// buffer with poison before decoding the next row (scanRow.poison), for
// the external tests that drive the mechanisms in internal/core. Call it
// before the database is used.
func (db *DB) PoisonScans() { db.poisonScans = true }

// newReadCtx builds the binding of a read-only statement, for tests that
// plan a SELECT by hand.
func (c *Conn) newReadCtx(set *ReaderSet, asOf retro.SnapshotID, params []record.Value, stats *ExecStats) (*execCtx, error) {
	ec := &execCtx{}
	if err := c.bindRead(ec, set, asOf, params, stats); err != nil {
		return nil, err
	}
	return ec, nil
}
