package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestViewSmokeSubscription is the wire-level view smoke (make
// view-smoke): a subscriber client receives pushed view extensions
// while a concurrent writer drives RF1/RF2-style refresh commits, and
// every batch is checked against a shadow model of the table's state at
// that snapshot — contiguous snapshots, exactly once, in order, rows
// identical. Ends with the drop path: dropping the view terminates the
// subscriber's stream.
func TestViewSmokeSubscription(t *testing.T) {
	_, addr := startServer(t, Config{})
	w := dial(t, addr)
	mustExec := func(sqlText string) {
		t.Helper()
		if err := w.Exec(sqlText, nil); err != nil {
			t.Fatalf("%s: %v", sqlText, err)
		}
	}
	mustExec(`CREATE TABLE orders_live (k INTEGER, v INTEGER)`)
	mustExec(`CREATE RETRO VIEW live AS CollateData('SELECT k, v, current_snapshot() AS sid FROM orders_live')`)

	// A subscription consumes its connection, so it gets a dedicated one.
	sc := dial(t, addr)
	stream, err := sc.SubscribeView("live")
	if err != nil {
		t.Fatal(err)
	}
	start := stream.StartSnap

	// Reader: drain pushed batches concurrently with the writer below.
	type pushed struct {
		snap uint64
		cols string
		rows []string
	}
	batches := make(chan pushed, 256)
	readErr := make(chan error, 1)
	go func() {
		defer close(batches)
		for {
			b, err := stream.Next()
			if err != nil {
				readErr <- err
				return
			}
			rows := make([]string, 0, len(b.Rows))
			for _, r := range b.Rows {
				cells := make([]string, len(r))
				for i, v := range r {
					cells[i] = v.String()
				}
				rows = append(rows, strings.Join(cells, "|"))
			}
			sort.Strings(rows)
			batches <- pushed{snap: b.Snap, cols: strings.Join(b.Cols, ","), rows: rows}
		}
	}()

	// Writer: RF1/RF2-style refreshes — each snapshot inserts a burst of
	// new keys and deletes the oldest live ones — with the expected view
	// rows recorded in the shadow model as each snapshot commits.
	const snaps = 30
	live := map[int]int{}
	shadow := make([][]string, 0, snaps)
	nextKey, oldest := 0, 0
	for s := 0; s < snaps; s++ {
		mustExec(`BEGIN`)
		for i := 0; i < 3; i++ { // RF1: new orders
			v := nextKey * 7
			mustExec(fmt.Sprintf(`INSERT INTO orders_live VALUES (%d, %d)`, nextKey, v))
			live[nextKey] = v
			nextKey++
		}
		for i := 0; i < 2 && oldest < nextKey-3; i++ { // RF2: age out the oldest
			mustExec(fmt.Sprintf(`DELETE FROM orders_live WHERE k = %d`, oldest))
			delete(live, oldest)
			oldest++
		}
		mustExec(`COMMIT WITH SNAPSHOT`)
		sid := start + uint64(s) + 1
		want := make([]string, 0, len(live))
		for k, v := range live {
			want = append(want, fmt.Sprintf("%d|%d|%d", k, v, sid))
		}
		sort.Strings(want)
		shadow = append(shadow, want)
	}

	// Check every pushed batch against the shadow, in order.
	for s := 0; s < snaps; s++ {
		var b pushed
		select {
		case b = <-batches:
		case err := <-readErr:
			t.Fatalf("stream ended at batch %d: %v", s, err)
		case <-time.After(20 * time.Second):
			t.Fatalf("no batch for snapshot %d", start+uint64(s)+1)
		}
		if want := start + uint64(s) + 1; b.snap != want {
			t.Fatalf("batch %d: snapshot %d, want %d (contiguous, exactly once, in order)", s, b.snap, want)
		}
		if b.cols != "k,v,sid" {
			t.Fatalf("batch %d: cols %q, want k,v,sid", s, b.cols)
		}
		if got, want := strings.Join(b.rows, ";"), strings.Join(shadow[s], ";"); got != want {
			t.Fatalf("snapshot %d rows diverge from shadow model:\ngot:  %s\nwant: %s", b.snap, got, want)
		}
	}

	// The introspection side agrees with what was pushed.
	views, err := w.Views()
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 {
		t.Fatalf("%d views, want 1", len(views))
	}
	v := views[0]
	if v.Name != "live" || v.LastSnap < start+snaps || v.Subscribers != 1 {
		t.Fatalf("view status %+v, want live at snapshot >= %d with 1 subscriber", v, start+snaps)
	}
	if v.RowsPushed == 0 || v.Refreshes < snaps {
		t.Fatalf("view counters %+v, want >= %d refreshes and pushed rows", v, snaps)
	}
	// Every commit group the refresh traffic produced kept the group
	// accounting consistent.
	ss, err := w.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if n := ss.Value("invariant_violations"); n != 0 || ss.Value("commit_groups") == 0 {
		t.Fatalf("invariant_violations = %d over %d commit groups, want 0 over some", n, ss.Value("commit_groups"))
	}

	// Dropping the view ends the subscription.
	mustExec(`DROP RETRO VIEW live`)
	deadline := time.Now().Add(20 * time.Second)
	for range batches {
		if time.Now().After(deadline) {
			t.Fatal("stream still open after DROP RETRO VIEW")
		}
	}
	if err := <-readErr; err != io.EOF {
		t.Logf("stream ended with %v after drop", err)
	}
	stream.Close()
}
