package repl_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"rql/internal/wire"
)

// frameProxy stands between a replica and its primary. The replica's
// frames pass verbatim; of the primary's, the handshake, bootstrap and
// delta frames pass and every other frame is held — in stream order, so
// nothing behind it passes either — until the test ends.
type frameProxy struct {
	addr    string
	release chan struct{}

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func startFrameProxy(t *testing.T, primary string) *frameProxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	px := &frameProxy{addr: lis.Addr().String(), release: make(chan struct{})}
	px.wg.Add(1)
	go func() {
		defer px.wg.Done()
		for {
			rc, err := lis.Accept()
			if err != nil {
				return
			}
			pc, err := net.Dial("tcp", primary)
			if err != nil {
				rc.Close()
				continue
			}
			px.mu.Lock()
			px.conns = append(px.conns, rc, pc)
			px.mu.Unlock()
			px.wg.Add(2)
			go func() {
				defer px.wg.Done()
				io.Copy(pc, rc)
				pc.Close()
			}()
			go func() {
				defer px.wg.Done()
				px.pump(rc, pc)
			}()
		}
	}()
	t.Cleanup(func() {
		close(px.release)
		lis.Close()
		px.mu.Lock()
		for _, c := range px.conns {
			c.Close()
		}
		px.mu.Unlock()
		px.wg.Wait()
	})
	return px
}

// pump copies the primary's frames to the replica, holding every frame
// that is not a handshake, bootstrap or delta frame until release.
func (px *frameProxy) pump(replica, primary net.Conn) {
	defer replica.Close()
	br := bufio.NewReader(primary)
	for {
		op, payload, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		switch op {
		case wire.RespHello, wire.RespReplBoot, wire.RespReplDelta:
		default:
			<-px.release
		}
		if err := wire.WriteFrame(replica, op, payload); err != nil {
			return
		}
	}
}

// TestReplicaHorizonCoversSnapIdsRow pins prefix consistency for
// SnapIds: once a replica's horizon reaches a declared snapshot, the
// replica's first SnapIds query already holds that snapshot's row. The
// stream reaches the replica through a proxy that passes only
// bootstrap and delta frames, so the row cannot arrive in a frame of
// its own.
func TestReplicaHorizonCoversSnapIdsRow(t *testing.T) {
	pdb, _, addr := startPrimary(t)
	pc := pdb.Conn()
	mustExec(t, pc, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	first, err := pc.DeclareSnapshot("boot")
	if err != nil {
		t.Fatal(err)
	}
	px := startFrameProxy(t, addr)
	rdb, r := startReplica(t, px.addr, "proxied", nil)
	waitHorizon(t, r, first)

	mustExec(t, pc, `INSERT INTO m VALUES (1, 'g', 7)`)
	h, err := pc.DeclareSnapshot("x")
	if err != nil {
		t.Fatal(err)
	}
	waitHorizon(t, r, h)
	got := sortedRows(t, rdb.Conn(), `SELECT snap_id, label FROM SnapIds`)
	want := []string{fmt.Sprintf("%d|boot", first), fmt.Sprintf("%d|x", h)}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("replica at horizon %d: SnapIds %v, want %v", h, got, want)
	}
}

// TestReplicaBootstrapShipsCarriedRegistrations covers a bootstrap cut
// that lands between a snapshot's commit and its SnapIds insert on the
// primary: the row is not in the table the bootstrap reads, but the
// retained declaring commit carries it, so the replica still gets it —
// and a row in both places arrives once.
func TestReplicaBootstrapShipsCarriedRegistrations(t *testing.T) {
	pdb, _, addr := startPrimary(t)
	pc := pdb.Conn()
	mustExec(t, pc, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	a, err := pc.DeclareSnapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	x, err := pc.DeclareSnapshot("x")
	if err != nil {
		t.Fatal(err)
	}
	// Stand in for x's insert not having landed when the bootstrap reads
	// the table.
	mustExec(t, pc, fmt.Sprintf(`DELETE FROM SnapIds WHERE snap_id = %d`, x))

	rdb, r := startReplica(t, addr, "cut", nil)
	waitHorizon(t, r, x)
	got := sortedRows(t, rdb.Conn(), `SELECT snap_id, label FROM SnapIds`)
	want := []string{fmt.Sprintf("%d|a", a), fmt.Sprintf("%d|x", x)}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("bootstrapped SnapIds %v, want %v", got, want)
	}
}
