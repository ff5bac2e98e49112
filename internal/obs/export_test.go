package obs

import "time"

// EndAt records the span with an explicit duration, for tests that
// need a span of a known length. Nil-safe.
func (s *Span) EndAt(d time.Duration) {
	if s == nil {
		return
	}
	s.Duration = d
	record(*s)
}
