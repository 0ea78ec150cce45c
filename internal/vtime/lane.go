package vtime

import (
	"fmt"
	"time"
)

// Lane is a FIFO of scheduled work whose times never decrease: the
// deliveries that finish on one link, say, each due when the link is free
// again. Only its head waits on the event queue; the rest wait in the
// lane, linked through the items themselves, and the next is queued when
// the head runs. Every item takes its sequence number when it is pushed,
// as an event scheduled then would, so work on a lane runs at exactly the
// place in the (at, seq) order it would hold on the queue itself, and the
// queue holds an entry per lane with work in it, not one per item.
type Lane struct {
	sim        *Sim
	head, tail *LaneItem
}

// LaneItem is one entry of a lane, embedded in the record the work lives
// in, so that waiting in a lane allocates nothing. An item is in at most
// one lane at a time; it may be pushed again once it has run.
type LaneItem struct {
	next *LaneItem
	at   time.Duration
	seq  uint64
	run  Runner
}

// NewLane returns an empty lane on s.
func (s *Sim) NewLane() *Lane { return &Lane{sim: s} }

// Push schedules r to run at the given virtual time (now, if it has
// passed), through it. A lane runs its work in the order pushed, so a time
// earlier than that of the last item still waiting is a bug in the caller
// and panics.
func (l *Lane) Push(at time.Duration, it *LaneItem, r Runner) {
	s := l.sim
	if at < s.now {
		at = s.now
	}
	if l.tail != nil && at < l.tail.at {
		panic(fmt.Sprintf("vtime: lane push at %v behind its tail at %v", at, l.tail.at))
	}
	s.seq++
	it.next, it.at, it.seq, it.run = nil, at, s.seq, r
	if l.tail == nil {
		l.head = it
		s.events.push(event{at: at, seq: it.seq, run: laneHead{l}})
	} else {
		l.tail.next = it
	}
	l.tail = it
}

// laneHead is the lane's entry on the queue. Like wakeProc, a struct of
// one pointer converts to Runner without allocating.
type laneHead struct{ l *Lane }

// Run takes the head off the lane, queues the next item, and runs the
// head's work.
func (h laneHead) Run() {
	l := h.l
	it := l.head
	l.head, it.next = it.next, nil
	if next := l.head; next != nil {
		l.sim.events.push(event{at: next.at, seq: next.seq, run: h})
	} else {
		l.tail = nil
	}
	r := it.run
	it.run = nil
	r.Run()
}
