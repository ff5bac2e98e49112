// Package server implements rqld, the RQL network service: a TCP server
// speaking the internal/wire frame protocol. Each accepted connection
// becomes a session that owns one rql.Conn — an independent read context
// over the MVCC/Retro stack — so any number of clients read snapshots
// and the current state concurrently while writes funnel through the
// store's single-writer commit path.
//
// The server shuts down gracefully: Shutdown stops accepting, lets
// in-flight requests finish (bounded by the drain timeout), then closes
// the remaining connections. Every request is also bounded by a
// per-request deadline so one runaway query cannot wedge a session
// forever.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rql"
	"rql/internal/obs"
	"rql/internal/repl"
)

// DefaultAddr is the default rqld listen address.
const DefaultAddr = "localhost:7427"

// Config tunes the server. Zero values select the defaults.
type Config struct {
	// Addr is the TCP listen address for ListenAndServe.
	Addr string
	// RequestTimeout bounds one request's wall-clock time (default 30s).
	// Streaming queries that exceed it are aborted mid-stream with an
	// error frame.
	RequestTimeout time.Duration
	// IdleTimeout closes sessions with no request activity (default 5m).
	IdleTimeout time.Duration
	// WriteTimeout bounds one response-frame flush (default 30s).
	WriteTimeout time.Duration
	// DrainTimeout bounds Shutdown's wait for in-flight requests
	// (default 5s); connections still busy afterwards are force-closed.
	DrainTimeout time.Duration
	// TimelinePeriod is the telemetry sampler's interval: every period
	// the server snapshots its counters into a fixed ring served at
	// /timeline and over the TIMELINE request (rqlshell .top). Zero
	// selects the 1s default; negative disables the sampler.
	TimelinePeriod time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = DefaultAddr
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.TimelinePeriod == 0 {
		c.TimelinePeriod = time.Second
	}
	return c
}

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// Server serves one rql.DB over TCP.
type Server struct {
	db  *rql.DB
	cfg Config

	mu       sync.Mutex
	lis      net.Listener
	sessions map[*session]struct{}
	draining bool

	// Replication roles. primary feeds subscriber streams;
	// replica, when set, marks this server as a read-only replica.
	primary *repl.Primary
	replica *repl.Replica

	wg      sync.WaitGroup
	stats   serverStats
	metrics *obs.Set // over stats

	// timeline samples the counters into a fixed ring for /timeline
	// and the TIMELINE request; nil when cfg.TimelinePeriod < 0.
	timeline *obs.Timeline
}

// New creates a server over db. The caller keeps ownership of db and
// closes it after the server has shut down.
func New(db *rql.DB, cfg Config) *Server {
	s := &Server{
		db:       db,
		cfg:      cfg.withDefaults(),
		sessions: make(map[*session]struct{}),
	}
	s.metrics = obs.NewSet(&s.stats)
	if s.cfg.TimelinePeriod > 0 {
		s.timeline = obs.NewTimeline(s.cfg.TimelinePeriod, obs.DefaultTimelinePoints, s.Metrics)
		s.timeline.Start()
	}
	return s
}

// Addr returns the bound listen address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// ListenAndServe binds cfg.Addr and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Serve accepts connections on lis until Shutdown. It takes ownership
// of the listener.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		lis.Close()
		return ErrServerClosed
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		nc, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.ServeConn(nc)
	}
}

// ServeConn starts a session on nc as if it had been accepted from the
// listener — nc may be any net.Conn, such as one end of a net.Pipe for
// an in-process client. It returns at once; Shutdown drains the session
// with the rest.
func (s *Server) ServeConn(nc net.Conn) {
	sess := newSession(s, nc)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()

	s.stats.ConnsAccepted.Add(1)
	s.stats.ConnsActive.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.stats.ConnsActive.Add(-1)
		defer s.dropSession(sess)
		sess.run()
	}()
}

func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
}

// Shutdown drains and stops the server: stop accepting, let in-flight
// requests finish for up to cfg.DrainTimeout, then force-close whatever
// is left and wait for every session to exit.
func (s *Server) Shutdown() {
	if s.timeline != nil {
		s.timeline.Stop()
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	lis := s.lis
	primary := s.primary
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	if lis != nil {
		lis.Close()
	}
	// Replication streams are long-lived "busy" sessions; sever them so
	// the drain below is not held hostage by a feeder waiting for
	// commits that will never come.
	if primary != nil {
		primary.DisconnectAll()
	}
	// Idle sessions close immediately; busy ones finish their request.
	for _, sess := range sessions {
		sess.beginShutdown()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.mu.Lock()
		for sess := range s.sessions {
			sess.forceClose()
		}
		s.mu.Unlock()
		<-done
	}
}

// ResetStats zeroes the server's cumulative counters (latency histogram
// included) and the served database's storage/snapshot-system counters
// and last-run statistics. The active-connections gauge and all page
// state are untouched.
func (s *Server) ResetStats() {
	s.metrics.Reset()
	s.db.ResetStats()
}

// deadlineError is sent to clients whose request exceeded the
// per-request deadline.
func deadlineError(limit time.Duration) error {
	return fmt.Errorf("server: request exceeded the %v deadline", limit)
}
