package vtime

// QueueLen is the number of events on s's queue, for the tests outside
// the package.
func (s *Sim) QueueLen() int { return len(s.events) }
