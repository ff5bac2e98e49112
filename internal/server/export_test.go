package server

import (
	"rql"
	"rql/internal/obs"
)

// Timeline exposes the telemetry sampler (nil when disabled).
func (s *Server) Timeline() *obs.Timeline { return s.timeline }

// DB returns the served database.
func (s *Server) DB() *rql.DB { return s.db }
