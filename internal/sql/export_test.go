package sql

// PoisonScans makes every base-table access path of db overwrite its row
// buffer with poison before decoding the next row (scanRow.poison), for
// the external tests that drive the mechanisms in internal/core. Call it
// before the database is used.
func (db *DB) PoisonScans() { db.poisonScans = true }
