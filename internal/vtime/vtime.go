// Package vtime is a deterministic discrete-event simulation runtime
// with a goroutine-per-process programming model.
//
// The Algorand paper's pseudocode (Algorithms 3-8) is written in a
// blocking style: CountVotes reads messages until a vote threshold or a
// timeout λ elapses, BinaryBA⋆ loops over steps, and so on. The protocol
// logic itself is kept in pure state machines (agreement.Machine,
// blockprop.Fetcher); vtime lets the code that drives them for each
// simulated user run as an ordinary goroutine that blocks on virtual
// time: Sleep and mailbox receives with deadlines.
//
// Exactly one goroutine (a process or the scheduler) executes at any
// instant; control is handed off through channels acting as a baton.
// Virtual time advances only when every process is parked, jumping to
// the earliest pending event. Simultaneous events are ordered by a
// monotonically increasing sequence number, so a run is a deterministic
// function of the program and its seeds — crucial for reproducible
// experiments (see DESIGN.md "Determinism").
//
// The cost of this fidelity is that simulations use real goroutines but
// no real parallelism; throughput is bounded by event rate, which is
// ample for the scales in EXPERIMENTS.md.
package vtime

import (
	"fmt"
	"time"
)

// Package note: the simulation normally runs in virtual time (events
// execute back-to-back, clock jumps). Realtime() switches a Sim to
// wall-clock execution: the scheduler sleeps until each event's time
// and external goroutines feed work in through Inject. Protocol code is
// identical in both modes — this is what lets the same node
// implementation run deterministically simulated *and* as a real
// networked process (cmd/algorand-node).

// Sim is a virtual-time simulation. Create one with New, add processes
// with Spawn, then call Run.
type Sim struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	// dead counts the cancelled events still in events (see cancel).
	dead int

	running  *Proc // the currently executing process, nil if scheduler
	yield    chan struct{}
	live     int // processes spawned and not yet finished
	stopped  bool
	panicVal any

	// realtime mode (see Realtime).
	realtime bool
	inject   chan func()

	// Stats
	EventCount uint64
}

// Runner is scheduled work that needs no closure of its own: a caller
// that schedules the same kind of work millions of times (the network's
// deliveries) passes a record it recycles instead of allocating a
// function value per event. Run executes in scheduler context and must
// not block.
type Runner interface {
	Run()
}

// runFunc adapts a closure to Runner. A func value is pointer-shaped, so
// the conversion to the interface allocates nothing.
type runFunc func()

func (f runFunc) Run() { f() }

// wakeProc is the Runner that wakes a parked process: it hands the baton
// to the process and waits for it to park or exit. A struct of one
// pointer converts to the interface without allocating, too.
type wakeProc struct{ p *Proc }

func (w wakeProc) Run() {
	s := w.p.sim
	s.running = w.p
	w.p.resume <- wake{}
	<-s.yield
}

// event is a scheduled occurrence: work to run in scheduler context,
// which for a parked process is its wake-up.
type event struct {
	at        time.Duration
	seq       uint64
	run       Runner
	cancelled *bool // optional cancellation flag (shared with waiter)
}

// before is the queue's order: time, then scheduling order. seq is
// unique, so the order is total and any correct heap pops the same
// sequence.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events held by value: one slice, no
// object per event, and a comparison the compiler inlines.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	e := q[n]
	q[n] = event{} // drop the references the vacated slot holds
	q = q[:n]
	*h = q
	if n > 0 {
		q.down(0, e)
	}
	return top
}

// down places e, bound for slot i, where it belongs below i.
func (q eventHeap) down(i int, e event) {
	n := len(q)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&e) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = e
}

// Proc is a simulated process. All its methods must be called from
// within the process's own goroutine.
type Proc struct {
	sim  *Sim
	name string
	// resume is the baton handing control back to this process.
	resume chan wake
	done   bool
}

// wake tells a parked process why it resumed.
type wake struct {
	timeout bool
}

// New returns an empty simulation at virtual time zero.
func New() *Sim {
	return &Sim{yield: make(chan struct{})}
}

// Now returns the current virtual time. Valid from process goroutines
// and event closures.
func (s *Sim) Now() time.Duration { return s.now }

// Epoch returns the clock reading in nanoseconds on a scale that never
// restarts: virtual time, or in realtime mode the wall clock's Unix
// time (Now restarts at zero with every Run, so two processes that
// succeed one another read the same small values from it). Counters
// that must not repeat across incarnations of a node start here.
func (s *Sim) Epoch() uint64 {
	if s.realtime {
		return uint64(time.Now().UnixNano())
	}
	return uint64(s.now)
}

// schedule pushes an event.
func (s *Sim) schedule(at time.Duration, run Runner, cancelled *bool) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, run: run, cancelled: cancelled})
}

// cancel sets the flag an event was scheduled with. The event stays on
// the queue, skipped when it comes up; but a deadline that a message beat
// lies far ahead, and a node waits for every message with one, so left
// there they would outnumber the live events. Once they are half the
// queue, and at least 64, compact drops them all: a cost linear in the
// queue, paid once per as many cancellations.
func (s *Sim) cancel(flag *bool) {
	*flag = true
	if s.dead++; s.dead >= 64 && 2*s.dead >= len(s.events) {
		s.compact()
	}
}

// compact drops the cancelled events from the queue and rebuilds the heap
// in place. seq is unique, so the rebuilt heap pops the same sequence.
func (s *Sim) compact() {
	q := s.events
	n := 0
	for _, e := range q {
		if e.cancelled == nil || !*e.cancelled {
			q[n] = e
			n++
		}
	}
	clear(q[n:])
	q = q[:n]
	for i := n/2 - 1; i >= 0; i-- {
		q.down(i, q[i])
	}
	s.events, s.dead = q, 0
}

// wakeAt schedules p to resume at the given time.
func (s *Sim) wakeAt(at time.Duration, p *Proc, cancelled *bool) {
	s.schedule(at, wakeProc{p}, cancelled)
}

// After schedules fn to run in scheduler context after delay d. fn must
// not block; it may send to mailboxes, spawn processes, and schedule
// further events. Callable from process goroutines and event closures.
func (s *Sim) After(d time.Duration, fn func()) {
	s.schedule(s.now+d, runFunc(fn), nil)
}

// AfterRun is After for work the caller holds as a Runner.
func (s *Sim) AfterRun(d time.Duration, r Runner) {
	s.schedule(s.now+d, r, nil)
}

// Spawn creates a new process running fn, starting at the current
// virtual time. It may be called before Run or from within the
// simulation.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, resume: make(chan wake)}
	s.live++
	s.wakeAt(s.now, p, nil)
	go func() {
		<-p.resume // wait for the scheduler to start us
		defer func() {
			p.done = true
			s.live--
			if r := recover(); r != nil {
				s.panicVal = fmt.Sprintf("vtime: process %q panicked: %v", p.name, r)
			}
			s.running = nil
			s.yield <- struct{}{}
		}()
		fn(p)
	}()
	return p
}

// Run executes the simulation until no events remain, the optional
// horizon elapses, or Stop is called. It returns the final virtual time.
// Processes still parked when events run out are abandoned (the paper's
// HangForever is expressed this way).
func (s *Sim) Run(horizon time.Duration) time.Duration {
	if s.realtime {
		return s.runRealtime(horizon)
	}
	for !s.stopped && len(s.events) > 0 {
		// Look before popping: an event past the horizon stays queued for
		// the next Run.
		if e := &s.events[0]; e.cancelled != nil && *e.cancelled {
			s.events.pop()
			s.dead--
			continue
		} else if horizon > 0 && e.at > horizon {
			s.now = horizon
			break
		}
		e := s.events.pop()
		s.now = e.at
		s.EventCount++
		e.run.Run()
		if s.panicVal != nil {
			panic(s.panicVal)
		}
	}
	return s.now
}

// Realtime switches the simulation to wall-clock execution: Run sleeps
// until each event's scheduled time, and Inject feeds in work from
// other goroutines (e.g. network readers). Call before Run.
func (s *Sim) Realtime() *Sim {
	s.realtime = true
	s.inject = make(chan func(), 4096)
	return s
}

// Inject schedules fn to run in scheduler context as soon as possible.
// It is the only Sim entry point safe to call from outside the
// simulation, and only in realtime mode.
func (s *Sim) Inject(fn func()) {
	if !s.realtime {
		panic("vtime: Inject requires realtime mode")
	}
	s.inject <- fn
}

// InjectStop is Inject with an abort channel: it enqueues fn unless
// stop is closed first, and reports whether fn was enqueued. Network
// readers use it so that a full scheduler queue on a stopped or
// shutting-down simulation cannot wedge them forever (the enqueued fn
// may still never run if the simulation has already stopped; callers
// must tolerate that, as gossip tolerates loss at shutdown).
func (s *Sim) InjectStop(stop <-chan struct{}, fn func()) bool {
	if !s.realtime {
		panic("vtime: InjectStop requires realtime mode")
	}
	select {
	case s.inject <- fn:
		return true
	case <-stop:
		return false
	}
}

// runRealtime is the wall-clock event loop.
func (s *Sim) runRealtime(horizon time.Duration) time.Duration {
	start := time.Now()
	wall := func() time.Duration { return time.Since(start) }
	runInjected := func(fn func()) {
		s.now = wall()
		fn()
		if s.panicVal != nil {
			panic(s.panicVal)
		}
	}
	for !s.stopped {
		// Drain pending injections first.
		for {
			select {
			case fn := <-s.inject:
				runInjected(fn)
				continue
			default:
			}
			break
		}
		if s.stopped {
			break
		}
		if horizon > 0 && wall() >= horizon {
			break
		}
		if len(s.events) == 0 {
			// Idle: wait for external input (or the horizon).
			var timer <-chan time.Time
			if horizon > 0 {
				timer = time.After(horizon - wall())
			}
			select {
			case fn := <-s.inject:
				runInjected(fn)
			case <-timer:
				return wall()
			}
			continue
		}
		// The earliest event stays queued while the loop waits for it: an
		// injection may schedule an earlier one, or cancel it.
		if e := &s.events[0]; e.cancelled != nil && *e.cancelled {
			s.events.pop()
			s.dead--
			continue
		} else if wait := e.at - wall(); wait > 0 {
			select {
			case fn := <-s.inject:
				runInjected(fn)
				continue
			case <-time.After(wait):
			}
		}
		e := s.events.pop()
		s.now = wall()
		if s.now < e.at {
			s.now = e.at
		}
		s.EventCount++
		e.run.Run()
		if s.panicVal != nil {
			panic(s.panicVal)
		}
	}
	return wall()
}

// Stop halts the simulation after the current event completes. Callable
// from processes and event closures.
func (s *Sim) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Sim) Stopped() bool { return s.stopped }

// park yields control to the scheduler and blocks until resumed,
// reporting whether the wake was a timeout.
func (p *Proc) park() wake {
	p.sim.running = nil
	p.sim.yield <- struct{}{}
	return <-p.resume
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Sleep suspends the process for virtual duration d.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.sim.wakeAt(p.sim.now+d, p, nil)
	p.park()
}
