package rql_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rql"
)

// TestCompactionSerialEquivalence is the tiering acceptance property:
// the identical single-threaded workload run with the background
// compactor ON (aggressive geometry, sealing underneath the queries)
// and OFF must produce byte-identical mechanism results AND
// byte-identical paper-mode counter series. Sealing changes where
// bytes live and what a read physically transfers — never what is
// billed: PagelogReads, CacheHits, DeviceReads, and every other
// figure-series counter stay exactly equal. Only the physical-side
// fields (DeviceBytesRead, the tier gauges, the compactor counters)
// and wall-time accumulators are excluded from the comparison.
func TestCompactionSerialEquivalence(t *testing.T) {
	run := func(copts rql.CompactionOptions) (map[string][]string, rql.StorageStats, rql.RetroStats) {
		db, err := rql.Open(rql.Options{
			PagelogPath: filepath.Join(t.TempDir(), "pagelog"),
			Compaction:  copts,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		var hook func()
		if copts.Enabled {
			// Seal deterministically before the mechanisms run, so the
			// retro reads are guaranteed to cross sealed segments even if
			// the background ticker never got a turn.
			hook = func() {
				if _, err := db.SealPagelog(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return runRetroWorkloadHook(t, db, hook)
	}

	fRes, fStore, fRetro := run(rql.CompactionOptions{})
	cRes, cStore, cRetro := run(rql.CompactionOptions{
		Enabled:      true,
		SegmentPages: 8,
		MinTailPages: -1,
		Interval:     time.Millisecond,
	})

	for _, key := range []string{"collate", "aggvar", "aggtab", "intervals", "asof"} {
		if !reflect.DeepEqual(fRes[key], cRes[key]) {
			t.Errorf("%s results diverge:\n     flat: %v\ncompacted: %v", key, fRes[key], cRes[key])
		}
	}

	if cRetro.SegmentSeals == 0 {
		t.Error("compacted side never sealed a segment; the equivalence is vacuous")
	}
	// Wall-time accumulators measure elapsed time, not logical work. The
	// deterministic series (PagelogReads, CacheHits, SPT*,
	// BatchMapScanned, Delta*, DeviceReads, flush decisions) all stay in.
	fStore.QueueWaitNS, cStore.QueueWaitNS = 0, 0
	fRetro.DeviceBusyNS, cRetro.DeviceBusyNS = 0, 0
	// Physical-side series: tiering is SUPPOSED to change these.
	for _, rs := range []*rql.RetroStats{&fRetro, &cRetro} {
		rs.DeviceBytesRead = 0
		rs.SegmentSeals, rs.SealedPages = 0, 0
		rs.RetentionDrops, rs.RetentionDroppedPages = 0, 0
		rs.SegBlockHits = 0
		rs.Segments, rs.SegmentPages, rs.TailPages = 0, 0, 0
		rs.PagelogLogicalBytes, rs.PagelogDiskBytes = 0, 0
	}
	if fStore != cStore {
		t.Errorf("storage counters diverge:\n     flat: %+v\ncompacted: %+v", fStore, cStore)
	}
	if fRetro != cRetro {
		t.Errorf("retro counters diverge:\n     flat: %+v\ncompacted: %+v", fRetro, cRetro)
	}
}

// TestCompactionColdResweep forces the whole archive cold (sealed +
// cache reset) and re-runs the AS OF sweep: the answers must match the
// ones computed while the history was still flat-and-warm.
func TestCompactionColdResweep(t *testing.T) {
	db, err := rql.Open(rql.Options{
		PagelogPath: filepath.Join(t.TempDir(), "pagelog"),
		Compaction: rql.CompactionOptions{
			Enabled:      true,
			SegmentPages: 8,
			MinTailPages: -1,
			Interval:     time.Hour, // only explicit seals
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, _, _ := runRetroWorkload(t, db)

	sealed, err := db.SealPagelog()
	if err != nil {
		t.Fatal(err)
	}
	if sealed == 0 {
		t.Fatal("workload archived too little to seal; geometry drifted")
	}
	logical, disk := db.PagelogFootprint()
	if disk >= logical {
		t.Errorf("sealed archive not smaller than flat: %d disk vs %d logical", disk, logical)
	}
	db.ResetSnapshotCache()

	conn := db.Conn()
	rows, err := conn.Query(`SELECT snap_id FROM SnapIds ORDER BY snap_id`)
	if err != nil {
		t.Fatal(err)
	}
	var cold []string
	for _, r := range rows.Rows {
		q, err := conn.Query(fmt.Sprintf(`SELECT AS OF %s COUNT(*), SUM(balance) FROM accounts`, r[0].String()))
		if err != nil {
			t.Fatal(err)
		}
		for _, qr := range q.Rows {
			cold = append(cold, qr[0].String()+"|"+qr[1].String())
		}
	}
	if !reflect.DeepEqual(cold, res["asof"]) {
		t.Errorf("cold sealed AS OF sweep diverges:\n warm: %v\n cold: %v", res["asof"], cold)
	}
}
