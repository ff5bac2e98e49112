package server

import (
	"errors"
	"fmt"
	"time"

	"rql/internal/repl"
	"rql/internal/wire"
)

// noDeadline clears a connection deadline.
var noDeadline = time.Time{}

// SetPrimary attaches a replication primary: the server accepts
// ReqReplSub streams and feeds them from p. Call before Serve.
func (s *Server) SetPrimary(p *repl.Primary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.primary = p
}

// SetReplica marks this server as a replica: HORIZON and replication
// stats report the replica's applied state, and clients get redirected
// to the primary on writes (enforced by the storage layer). Call
// before Serve.
func (s *Server) SetReplica(r *repl.Replica) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replica = r
}

// Primary returns the attached replication primary, if any.
func (s *Server) Primary() *repl.Primary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.primary
}

// Replica returns the attached replica state, if any.
func (s *Server) Replica() *repl.Replica {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replica
}

// HorizonInfo reports this server's role and applied-snapshot horizon.
func (s *Server) HorizonInfo() wire.HorizonInfo {
	if r := s.Replica(); r != nil {
		return wire.HorizonInfo{
			Role:    wire.RoleReplica,
			Horizon: r.Horizon(),
			LSN:     s.db.Engine().MainStore().LSN(),
			Primary: r.PrimaryAddr(),
		}
	}
	return wire.HorizonInfo{
		Role:    wire.RolePrimary,
		Horizon: uint64(s.db.Engine().Retro().LastSnapshot()),
		LSN:     s.db.Engine().MainStore().LSN(),
	}
}

// ReplStats reports replication statistics for this server's role.
func (s *Server) ReplStats() wire.ReplStats {
	if r := s.Replica(); r != nil {
		return r.Stats()
	}
	if p := s.Primary(); p != nil {
		return p.Stats()
	}
	// Plain single-node server: a primary with no streams.
	return wire.ReplStats{
		Role:    wire.RolePrimary,
		Horizon: uint64(s.db.Engine().Retro().LastSnapshot()),
		LSN:     s.db.Engine().MainStore().LSN(),
	}
}

// handleHorizon serves ReqHorizon.
func (ss *session) handleHorizon() error {
	e := &wire.Enc{}
	wire.EncodeHorizonInfo(e, ss.srv.HorizonInfo())
	return ss.writeFrame(wire.RespHorizon, e.B)
}

// handleReplStats serves ReqReplStats.
func (ss *session) handleReplStats() error {
	e := &wire.Enc{}
	wire.EncodeReplStats(e, ss.srv.ReplStats())
	return ss.writeFrame(wire.RespReplStats, e.B)
}

// errStreamDone marks a session whose connection was consumed by a
// replication stream; the session loop exits without another read.
var errStreamDone = errors.New("server: replication stream ended")

// handleReplSub hands the session's connection over to the primary's
// stream feeder. It never returns nil: the connection cannot go back
// to request/response framing afterwards.
func (ss *session) handleReplSub(payload []byte) error {
	p := ss.srv.Primary()
	if p == nil {
		var err error
		if r := ss.srv.Replica(); r != nil {
			err = fmt.Errorf("server: this rqld is a replica; subscribe to the primary at %s", r.PrimaryAddr())
		} else {
			err = errors.New("server: replication is not enabled on this rqld")
		}
		ss.writeError(err)
		ss.flush()
		return err
	}
	d := &wire.Dec{B: payload}
	sub := wire.DecodeReplSubscribe(d)
	if d.Err() != nil {
		return d.Err()
	}
	// Clear the session's idle deadline: the stream manages its own
	// write deadlines, and reads (acks) are expected to be sparse.
	ss.nc.SetReadDeadline(noDeadline)
	if err := p.ServeStream(ss.nc, ss.br, ss.bw, sub); err != nil {
		return err
	}
	return errStreamDone
}
