package rql_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rql"
)

// runRetroWorkload drives one deterministic single-threaded workload —
// DDL, inserts, updates, deletes, snapshots, then all four RQL
// mechanisms — and returns every observable output: the mechanism
// result tables, an AS OF sweep, and the full storage and retro
// counter snapshots (the series behind figures 6–13).
func runRetroWorkload(t *testing.T, db *rql.DB) (results map[string][]string, storage rql.StorageStats, retro rql.RetroStats) {
	t.Helper()
	return runRetroWorkloadHook(t, db, nil)
}

// runRetroWorkloadHook is runRetroWorkload with a hook that runs after
// the history is built and before the mechanisms query it — the
// compaction equivalence test seals the archive there, so the retro
// reads deterministically cross sealed segments.
func runRetroWorkloadHook(t *testing.T, db *rql.DB, beforeRetro func()) (results map[string][]string, storage rql.StorageStats, retro rql.RetroStats) {
	t.Helper()
	conn := db.Conn()
	exec := func(sql string) {
		t.Helper()
		if err := conn.Exec(sql, nil); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	query := func(sql string) []string {
		t.Helper()
		rows, err := conn.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		out := make([]string, 0, len(rows.Rows))
		for _, r := range rows.Rows {
			parts := make([]string, len(r))
			for i, v := range r {
				parts[i] = v.String()
			}
			out = append(out, strings.Join(parts, "|"))
		}
		return out
	}

	exec(`CREATE TABLE accounts (id INTEGER, owner TEXT, balance INTEGER)`)
	exec(`CREATE INDEX accounts_id ON accounts (id)`)
	for i := 1; i <= 20; i++ {
		exec(fmt.Sprintf(`INSERT INTO accounts VALUES (%d, 'owner%d', %d)`, i, i, i*100))
	}
	var snaps []uint64
	for step := 0; step < 6; step++ {
		id, err := conn.DeclareSnapshot(fmt.Sprintf("step-%d", step))
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, id)
		exec(fmt.Sprintf(`UPDATE accounts SET balance = balance + %d WHERE id <= %d`, step+1, 10+step))
		exec(fmt.Sprintf(`DELETE FROM accounts WHERE id = %d`, 20-step))
		exec(fmt.Sprintf(`INSERT INTO accounts VALUES (%d, 'late%d', %d)`, 100+step, step, step))
	}

	if beforeRetro != nil {
		beforeRetro()
	}

	results = map[string][]string{}
	if _, err := conn.CollateData(`SELECT snap_id FROM SnapIds`,
		`SELECT id, balance, current_snapshot() AS sid FROM accounts WHERE id <= 5`,
		"GCollate"); err != nil {
		t.Fatal(err)
	}
	results["collate"] = query(`SELECT sid, id, balance FROM GCollate ORDER BY sid, id`)

	if _, err := conn.AggregateDataInVariable(`SELECT snap_id FROM SnapIds`,
		`SELECT SUM(balance) FROM accounts`, "GAggVar", "max"); err != nil {
		t.Fatal(err)
	}
	results["aggvar"] = query(`SELECT * FROM GAggVar`)

	if _, err := conn.AggregateDataInTable(`SELECT snap_id FROM SnapIds`,
		`SELECT owner, balance AS b FROM accounts WHERE id <= 3`,
		"GAggTab", "(b,MAX)"); err != nil {
		t.Fatal(err)
	}
	results["aggtab"] = query(`SELECT owner, b FROM GAggTab ORDER BY owner`)

	if _, err := conn.CollateDataIntoIntervals(`SELECT snap_id FROM SnapIds`,
		`SELECT id FROM accounts WHERE id >= 15`, "GIntervals"); err != nil {
		t.Fatal(err)
	}
	results["intervals"] = query(`SELECT * FROM GIntervals ORDER BY id, start_snapshot`)

	for _, id := range snaps {
		results["asof"] = append(results["asof"],
			query(fmt.Sprintf(`SELECT AS OF %d COUNT(*), SUM(balance) FROM accounts`, id))...)
	}
	return results, db.StorageStats(), db.RetroStats()
}

// TestGroupCommitSerialDeterminism is the property a figure series
// needs from the one write path: the identical single-threaded workload
// run on two fresh databases produces byte-identical results for all
// four mechanisms AND byte-identical storage/retro counter snapshots —
// a serial caller's commits are groups of one, so nothing about the
// commit queue (leader scheduling, batch boundaries) leaks into the
// figure 6–13 counters. (Identity against the previous commit is the
// `rqlbench -all -quick -seed 1` diff; see EXPERIMENTS.md.)
func TestGroupCommitSerialDeterminism(t *testing.T) {
	run := func() (map[string][]string, rql.StorageStats, rql.RetroStats) {
		db, err := rql.Open(rql.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		return runRetroWorkload(t, db)
	}

	aRes, aStore, aRetro := run()
	bRes, bStore, bRetro := run()

	for _, key := range []string{"collate", "aggvar", "aggtab", "intervals", "asof"} {
		if len(aRes[key]) == 0 || !reflect.DeepEqual(aRes[key], bRes[key]) {
			t.Errorf("%s results empty or diverging:\nfirst : %v\nsecond: %v", key, aRes[key], bRes[key])
		}
	}
	// Full counter-snapshot equality: every figure series derives from
	// these counters, so equality here is equality of the figures, the
	// group-commit counters included. Excluded are only the wall-time
	// accumulators: they measure elapsed time, not logical work. Every
	// deterministic series (PagelogReads, CacheHits, SPT*,
	// BatchMapScanned, Delta*, DeviceReads, the flush decisions) stays in
	// the comparison.
	aStore.QueueWaitNS, bStore.QueueWaitNS = 0, 0
	aRetro.DeviceBusyNS, bRetro.DeviceBusyNS = 0, 0
	if aStore != bStore {
		t.Errorf("storage counters diverge:\nfirst : %+v\nsecond: %+v", aStore, bStore)
	}
	if aRetro != bRetro {
		t.Errorf("retro counters diverge:\nfirst : %+v\nsecond: %+v", aRetro, bRetro)
	}
	if aStore.Groups == 0 || aStore.Commits < aStore.Groups {
		t.Errorf("implausible group accounting: %+v", aStore)
	}
	if aRetro.DeviceFlushes+aRetro.GroupFlushesSkipped != aStore.Groups {
		t.Errorf("DeviceFlushes = %d, GroupFlushesSkipped = %d, want one decision per group (%d)",
			aRetro.DeviceFlushes, aRetro.GroupFlushesSkipped, aStore.Groups)
	}
	if aStore.InvariantViolations != 0 {
		t.Errorf("invariant_violations = %d, want 0", aStore.InvariantViolations)
	}
}

// TestGroupCommitBatchesFlushes pins group commit's flush accounting: a
// lone writer's groups have one member, so every commit takes its own
// flush, and concurrent writers take exactly one flush decision per
// group. Writers insert into private tables (disjoint pages, no
// conflict aborts) and tag every commit with a snapshot, so each commit
// archives pre-images and its group's flush is mandatory. How many
// groups eight writers form is the scheduler's choice (nothing holds
// the leader in its flush), so it is logged, not asserted; that
// batching does form groups is pinned deterministically by storage's
// TestGroupCommitBatches, whose gate hook holds the leader. Only
// counters are asserted, never wall time.
func TestGroupCommitBatchesFlushes(t *testing.T) {
	const ops = 10
	run := func(writers int) (rql.StorageStats, rql.RetroStats) {
		t.Helper()
		db, err := rql.Open(rql.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		setup := db.Conn()
		for w := 0; w < writers; w++ {
			if err := setup.Exec(fmt.Sprintf(`CREATE TABLE gc_%d (i INTEGER)`, w), nil); err != nil {
				t.Fatal(err)
			}
		}
		// Open the capture window so the first commit archives too.
		if _, err := setup.DeclareSnapshot(""); err != nil {
			t.Fatal(err)
		}
		db.ResetStats()
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := db.Conn()
				for i := 0; i < ops; i++ {
					stmt := fmt.Sprintf(`BEGIN; INSERT INTO gc_%d VALUES (%d); COMMIT WITH SNAPSHOT`, w, i)
					if err := c.Exec(stmt, nil); err != nil {
						errs <- fmt.Errorf("writer %d op %d: %w", w, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		return db.StorageStats(), db.RetroStats()
	}

	ss, rs := run(1)
	if ss.Commits != ops || rs.DeviceFlushes != ss.Commits {
		t.Errorf("1 writer: %d commits, %d device flushes, want %d of each", ss.Commits, rs.DeviceFlushes, ops)
	}

	ss, rs = run(8)
	t.Logf("8 writers: %d commits in %d groups, %d flushes (%d skipped)",
		ss.Commits, ss.Groups, rs.DeviceFlushes, rs.GroupFlushesSkipped)
	if ss.Commits != 8*ops {
		t.Errorf("8 writers: %d commits, want %d", ss.Commits, 8*ops)
	}
	if rs.DeviceFlushes+rs.GroupFlushesSkipped != ss.Groups {
		t.Errorf("8 writers: %d flushes + %d skipped for %d groups, want one decision per group",
			rs.DeviceFlushes, rs.GroupFlushesSkipped, ss.Groups)
	}
	if ss.InvariantViolations != 0 || ss.Conflicts != 0 {
		t.Errorf("8 writers on private tables: invariant_violations = %d, conflicts = %d, want 0 and 0",
			ss.InvariantViolations, ss.Conflicts)
	}
}
