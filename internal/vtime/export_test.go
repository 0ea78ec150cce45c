package vtime

import (
	"runtime"
	"strings"
)

// QueueLen is the number of events on s's queue, for the tests outside
// the package.
func (s *Sim) QueueLen() int { return len(s.events) }

// Allocs sums the bytes allocated so far by code in package vtime, as the
// memory profile records it (every allocation, at MemProfileRate 1): the
// records whose first frame outside the runtime is in vtime, except
// Allocs' own and the sudogs the runtime allocates for itself when a
// goroutine blocks on a channel and its cache of them is empty.
func Allocs() int64 {
	// A profile is published by the collection after the one it was made
	// in.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		panic("memory profile grew while read")
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		f, more := frames.Next()
		if f.Function == "runtime.acquireSudog" {
			continue
		}
		for more && strings.HasPrefix(f.Function, "runtime.") {
			f, more = frames.Next()
		}
		if strings.HasPrefix(f.Function, "algorand/internal/vtime.") && f.Function != "algorand/internal/vtime.Allocs" {
			total += r.AllocBytes
		}
	}
	return total
}
