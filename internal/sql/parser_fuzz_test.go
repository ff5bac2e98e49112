package sql

import "testing"

// FuzzParse feeds the parser — which every client's SQL text reaches,
// remote sessions and client.Cluster's read-only check included —
// arbitrary text: ParseAll returns statements or an error, and never
// panics. testdata/fuzz/FuzzParse holds the inputs that once did.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		`SELECT AS OF 3 DISTINCT a, t.b AS bee, COUNT(*) FROM t WHERE a > ? GROUP BY a ORDER BY 2 DESC LIMIT 5`,
		`SELECT CASE a WHEN 1 THEN 'x' ELSE 'y' END, CAST(a AS TEXT) FROM t JOIN u ON t.a = u.a`,
		`SELECT CollateData(snap_id, 'SELECT DISTINCT user, current_snapshot() AS sid FROM logged_in', 'Result') FROM SnapIds`,
		`EXPLAIN ANALYZE SELECT * FROM t`,
		`CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(10) NOT NULL DEFAULT 'x', c DECIMAL(10, 2))`,
		`CREATE TEMP TABLE r (x TEXT); CREATE INDEX ix ON r (x); DROP TABLE r`,
		`CREATE RETRO VIEW v AS AggregateDataInTable('SELECT grp, COUNT(*) AS c FROM m GROUP BY grp', '(c,max)')`,
		`BEGIN; INSERT INTO t VALUES (1, 'a'), (2, NULL); UPDATE t SET b = b || '!' WHERE a IN (1, 2); DELETE FROM t; COMMIT WITH SNAPSHOT`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ParseAll(src)
	})
}
