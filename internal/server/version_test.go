package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"rql"
	"rql/client"
	"rql/internal/obs"
	"rql/internal/repl"
	"rql/internal/wire"
)

// rawHello sends a HELLO at an arbitrary client version and returns the
// server's reply frame.
func rawHello(t *testing.T, br *bufio.Reader, bw *bufio.Writer, ver uint64) (op byte, payload []byte) {
	t.Helper()
	e := &wire.Enc{}
	e.String(wire.Magic)
	e.Uvarint(ver)
	if err := wire.WriteFrame(bw, wire.ReqHello, e.B); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	op, payload, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	return op, payload
}

// helloAt handshakes at ver and fails the test unless the server
// answers with wire.ProtocolVersion.
func helloAt(t *testing.T, br *bufio.Reader, bw *bufio.Writer, ver uint64) {
	t.Helper()
	op, payload := rawHello(t, br, bw, ver)
	if op != wire.RespHello {
		t.Fatalf("handshake reply %#x, want RespHello", op)
	}
	d := &wire.Dec{B: payload}
	if got := d.Uvarint(); d.Err() != nil || got != wire.ProtocolVersion {
		t.Fatalf("server answered a v%d HELLO with v%d (err %v), want v%d", ver, got, d.Err(), wire.ProtocolVersion)
	}
}

// execSelect1 runs `SELECT 1` under the given trace context and returns
// the trace id RespDone echoes.
func execSelect1(t *testing.T, br *bufio.Reader, bw *bufio.Writer, tc wire.TraceContext) uint64 {
	t.Helper()
	e := &wire.Enc{}
	wire.EncodeTraceContext(e, tc)
	e.Uvarint(0) // asOf
	e.String(`SELECT 1`)
	e.Row(nil)
	if err := wire.WriteFrame(bw, wire.ReqExec, e.B); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	for {
		op, payload, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		switch op {
		case wire.RespError:
			t.Fatalf("exec failed: %v", wire.DecodeError(payload))
		case wire.RespDone:
			d := &wire.Dec{B: payload}
			wire.DecodeCost(d, &rql.ExecStats{})
			d.Uvarint() // last snapshot
			d.Bool()    // in tx
			echo := d.Uvarint()
			if d.Err() != nil {
				t.Fatal(d.Err())
			}
			return echo
		}
	}
}

func rawDial(t *testing.T, addr string) (*bufio.Reader, *bufio.Writer) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return bufio.NewReader(nc), bufio.NewWriter(nc)
}

// TestCrossVersionHandshake pins what is left of version negotiation
// now that the protocol version is also the floor: the three ways two
// differently-built peers can still meet.
func TestCrossVersionHandshake(t *testing.T) {
	_, addr := startServer(t, Config{})

	t.Run("older-client-refused", func(t *testing.T) {
		br, bw := rawDial(t, addr)
		op, payload := rawHello(t, br, bw, wire.ProtocolVersion-1)
		if op != wire.RespError {
			t.Fatalf("v%d HELLO answered with %#x, want RespError", wire.ProtocolVersion-1, op)
		}
		msg := wire.DecodeError(payload).Error()
		if want := fmt.Sprintf("floor v%d", wire.ProtocolVersion); !strings.Contains(msg, want) {
			t.Fatalf("refusal should name the floor (%q), got %q", want, msg)
		}
		// One clean error, then the connection is closed.
		if _, _, err := wire.ReadFrame(br); err != io.EOF {
			t.Fatalf("read after the refusal: %v, want io.EOF", err)
		}
	})

	t.Run("newer-client-capped", func(t *testing.T) {
		br, bw := rawDial(t, addr)
		helloAt(t, br, bw, wire.ProtocolVersion+1)
		execSelect1(t, br, bw, wire.TraceContext{})
	})

	// wire.ClientHello reads any RespError at HELLO as a version
	// mismatch, which stops a replica for good. That holds only while the
	// version is all handshake refuses a well-formed HELLO for: a refusal
	// added for another reason (draining, a connection limit) has to
	// change ClientHello with it.
	t.Run("well-formed-hello-refused-for-its-version-only", func(t *testing.T) {
		for _, v := range []uint64{1, wire.ProtocolVersion - 1, wire.ProtocolVersion, wire.ProtocolVersion + 1, 1 << 40} {
			br, bw := rawDial(t, addr)
			if op, _ := rawHello(t, br, bw, v); (op == wire.RespError) != (v < wire.ProtocolVersion) {
				t.Fatalf("v%d HELLO answered with %#x", v, op)
			}
		}
	})

	// A stub "primary" of another protocol version: an older build
	// answers any HELLO with its own number, a newer one either does the
	// same or — as this tree's server would — refuses a HELLO below its
	// floor. Client and replica refuse each with ErrVersionMismatch, and
	// the replica stops there: redialing a build of another version can
	// never succeed.
	hello := func(v uint64) (byte, []byte) {
		e := &wire.Enc{}
		e.Uvarint(v)
		e.String("rqld")
		return wire.RespHello, e.B
	}
	older, newer := uint64(wire.ProtocolVersion-1), uint64(wire.ProtocolVersion+1)
	for _, peer := range []struct {
		name  string
		reply func() (byte, []byte)
		want  string // both versions, named by the error
	}{
		{"older", func() (byte, []byte) { return hello(older) },
			fmt.Sprintf("peer speaks v%d, this build speaks v%d", older, wire.ProtocolVersion)},
		{"newer", func() (byte, []byte) { return hello(newer) },
			fmt.Sprintf("peer speaks v%d, this build speaks v%d", newer, wire.ProtocolVersion)},
		{"newer-refusing", func() (byte, []byte) {
			return wire.RespError, wire.EncodeError(fmt.Errorf("server: protocol v%d is below the supported floor v%d", wire.ProtocolVersion, newer))
		}, fmt.Sprintf("v%d HELLO refused: server: protocol v%d is below the supported floor v%d", wire.ProtocolVersion, wire.ProtocolVersion, newer)},
	} {
		t.Run(peer.name+"-server-refused-by-client-and-replica", func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			go func() {
				for {
					nc, err := lis.Accept()
					if err != nil {
						return
					}
					go func() {
						defer nc.Close()
						if _, _, err := wire.ReadFrame(nc); err != nil {
							return
						}
						op, payload := peer.reply()
						wire.WriteFrame(nc, op, payload)
					}()
				}
			}()
			want := peer.want
			_, err = client.Dial(lis.Addr().String())
			if !errors.Is(err, client.ErrVersionMismatch) || !strings.Contains(err.Error(), want) {
				t.Fatalf("client.Dial: %v, want ErrVersionMismatch with %q", err, want)
			}

			db, err := rql.Open(rql.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			rep, err := repl.NewReplica(db, repl.ReplicaConfig{Primary: lis.Addr().String(), ReconnectMin: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			rep.Start()
			defer rep.Close()
			stopped := make(chan error, 1)
			go func() { stopped <- rep.Wait() }()
			select {
			case err := <-stopped:
				if !errors.Is(err, wire.ErrVersionMismatch) {
					t.Fatalf("replica stopped on %v, want ErrVersionMismatch", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("replica is still redialing: %+v", rep.Stats())
			}
			if st := rep.Stats(); st.Reconnects != 0 || !strings.Contains(st.LastError, want) {
				t.Fatalf("replica: %d reconnects, last error %q, want 0 and %q", st.Reconnects, st.LastError, want)
			}
		})
	}
}

// TestTraceContextPrefix pins the request prefix: a caller's trace
// context roots the server's spans in the caller's trace, and an
// unsampled context records nothing.
func TestTraceContextPrefix(t *testing.T) {
	_, addr := startServer(t, Config{})
	resetObs(t)
	obs.SetTracing(true)
	br, bw := rawDial(t, addr)
	helloAt(t, br, bw, wire.ProtocolVersion)

	// Mint a caller trace ID by hand and send it as the prefix; RespDone
	// echoes the trace the request ran under.
	const caller = uint64(1<<63 | 0x5eed)
	if echo := execSelect1(t, br, bw, wire.TraceContext{Trace: caller, Sampled: true}); echo != caller {
		t.Fatalf("RespDone echoed trace %#x, want %#x", echo, caller)
	}
	spans := obs.TraceSpans(caller)
	if len(spans) == 0 {
		t.Fatalf("no server spans joined caller trace %#x", caller)
	}
	for _, sp := range spans {
		if sp.Trace != caller {
			t.Fatalf("span %s in trace %#x, want %#x", sp.Name, sp.Trace, caller)
		}
	}

	// The caller said don't sample: even with the recorder on, the
	// server records nothing for this trace.
	const unsampled = uint64(1<<63 | 0xdead)
	execSelect1(t, br, bw, wire.TraceContext{Trace: unsampled, Sampled: false})
	if spans := obs.TraceSpans(unsampled); len(spans) != 0 {
		t.Fatalf("unsampled request left %d spans in trace %#x", len(spans), unsampled)
	}
}
