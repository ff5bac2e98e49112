package retro

// SnapshotLSN returns the commit LSN at which the snapshot was declared.
func (s *System) SnapshotLSN(id SnapshotID) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id < 1 || int(id) > len(s.snapLSN) {
		return 0, ErrNoSnapshot
	}
	return s.snapLSN[id-1], nil
}

// InjectPagelogReadError makes the next Pagelog read fail (tests).
// Exactly one read takes the error, however many run concurrently.
func (s *System) InjectPagelogReadError(err error) {
	s.pl.injectReadErr.Store(&err)
}

// Snapshot returns the snapshot id the reader serves.
func (r *SnapshotReader) Snapshot() SnapshotID { return r.spt.Snap }
