package vtime

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"
)

// TestEventHeapMatchesSort drives the queue with random interleavings of
// pushes and pops, times drawn from a handful of values so that most
// comparisons fall through to the sequence number, and holds every pop
// against a model that sorts.
func TestEventHeapMatchesSort(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var model []event
		var seq uint64
		for op := 0; op < 4000; op++ {
			if len(model) == 0 || rng.Intn(5) < 3 {
				seq++
				e := event{at: time.Duration(rng.Intn(8)), seq: seq}
				h.push(e)
				model = append(model, e)
				continue
			}
			sort.Slice(model, func(i, j int) bool {
				if model[i].at != model[j].at {
					return model[i].at < model[j].at
				}
				return model[i].seq < model[j].seq
			})
			want := model[0]
			model = model[1:]
			if got := h.pop(); got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d op %d: popped (at %d, seq %d), the sort oracle has (at %d, seq %d)",
					seed, op, got.at, got.seq, want.at, want.seq)
			}
		}
		if len(h) != len(model) {
			t.Fatalf("seed %d: %d events left, the model has %d", seed, len(h), len(model))
		}
	}
}

// TestEventOrderProperty runs random schedules of After (nested), Sleep,
// lane pushes and deadline receives that a Send may cancel, and checks
// that what ran is exactly what was scheduled and not cancelled, in (at,
// seq) order: the order every simulated run's determinism rests on,
// whatever the queue is built from. Lane times never decrease and often
// tie; most deadlines are an hour out and cancelled, enough to compact the
// queue several times a seed; and half the seeds stop at a random horizon
// and resume, which must lose nothing. The test tags each event with the
// sequence number the simulation is about to give it.
func TestEventOrderProperty(t *testing.T) {
	type planned struct {
		at        time.Duration
		seq       uint64
		cancelled bool
	}
	cancels, timeouts, compactions, laneRuns := 0, 0, 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		compacted := compactions
		var plan []*planned
		var ran []*planned
		// next records the event the very next scheduling call creates.
		next := func(at time.Duration) *planned {
			p := &planned{at: at, seq: s.seq + 1}
			plan = append(plan, p)
			return p
		}
		// Few distinct delays, zero among them: ties are the common case.
		delay := func() time.Duration { return time.Duration(rng.Intn(4)) * time.Millisecond }

		lanes := []*Lane{s.NewLane(), s.NewLane(), s.NewLane()}
		var after, push func(depth int)
		spawn := func(depth int) {
			for i := rng.Intn(3); depth > 0 && i > 0; i-- {
				if rng.Intn(2) == 0 {
					after(depth - 1)
				} else {
					push(depth - 1)
				}
			}
		}
		after = func(depth int) {
			d := delay()
			e := next(s.now + d)
			s.After(d, func() {
				ran = append(ran, e)
				spawn(depth)
			})
		}
		push = func(depth int) {
			l := lanes[rng.Intn(len(lanes))]
			at := s.now
			if l.tail != nil {
				at = max(at, l.tail.at)
			}
			e := next(at + delay())
			l.Push(e.at, new(LaneItem), runFunc(func() {
				ran = append(ran, e)
				laneRuns++
				spawn(depth)
			}))
		}
		for i := 0; i < 10; i++ {
			after(3)
			push(3)
		}
		for i := 0; i < 4; i++ {
			naps := 1 + rng.Intn(6)
			start := next(s.now)
			s.Spawn("sleeper", func(p *Proc) {
				ran = append(ran, start)
				for ; naps > 0; naps-- {
					d := delay()
					e := next(s.now + d)
					p.Sleep(d)
					ran = append(ran, e)
					push(1)
				}
			})
		}
		// Receivers take one message a lap, senders send one a lap.
		const receivers, laps = 40, 8
		for i := 0; i < receivers; i++ {
			m := s.NewMailbox()
			var woken *planned // the wake-up a Send scheduled for the receiver
			start := next(s.now)
			s.Spawn("receiver", func(p *Proc) {
				ran = append(ran, start)
				for lap := 0; lap < laps; lap++ {
					// Yield once, so that a sender due at this instant runs
					// first and the receive finds its message queued.
					nap := next(s.now)
					p.Sleep(0)
					ran = append(ran, nap)
					deadline := s.now + delay()
					if rng.Intn(4) > 0 {
						deadline = s.now + time.Hour
					}
					var timeout *planned
					if m.Len() == 0 && deadline > s.now {
						timeout = next(deadline)
					}
					woken = nil
					_, ok := p.RecvDeadline(m, deadline)
					switch {
					case ok && woken != nil:
						timeout.cancelled = true
						ran = append(ran, woken)
						cancels++
					case !ok && timeout != nil:
						ran = append(ran, timeout)
						timeouts++
					}
				}
			})
			var send func(lap int)
			send = func(lap int) {
				d := 2*time.Millisecond + delay()
				e := next(s.now + d)
				s.After(d, func() {
					ran = append(ran, e)
					if m.waiter != nil {
						woken = next(s.now)
					}
					dead := s.dead
					m.Send(lap)
					if dead > 0 && s.dead == 0 {
						compactions++
					}
					if lap+1 < laps {
						send(lap + 1)
					}
				})
			}
			send(0)
		}
		if seed%2 == 0 {
			h := time.Duration(1 + rng.Intn(int(20*time.Millisecond)))
			if end := s.Run(h); end != h {
				t.Fatalf("seed %d: Run(%v) returned %v", seed, h, end)
			}
		}
		s.Run(0)

		var want []*planned
		for _, p := range plan {
			if !p.cancelled {
				want = append(want, p)
			}
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		if len(ran) != len(want) {
			t.Fatalf("seed %d: %d events ran, %d were scheduled and not cancelled", seed, len(ran), len(want))
		}
		for i := range want {
			if ran[i] != want[i] {
				t.Fatalf("seed %d: event %d to run was (at %v, seq %d), the sort oracle has (at %v, seq %d)",
					seed, i, ran[i].at, ran[i].seq, want[i].at, want[i].seq)
			}
		}
		if compactions-compacted < 2 {
			t.Fatalf("seed %d: the queue was compacted %d times, want several", seed, compactions-compacted)
		}
	}
	t.Logf("200 schedules: %d cancelled deadlines, %d expired, %d compactions, %d lane items run", cancels, timeouts, compactions, laneRuns)
	if cancels == 0 || timeouts == 0 || laneRuns == 0 {
		t.Fatalf("schedules exercised %d cancelled deadlines, %d expired ones and %d lane items, want all three", cancels, timeouts, laneRuns)
	}
}

// TestLanePushBehindTailPanics: a lane runs its items in the order they
// were pushed, so one due before the item ahead of it is refused.
func TestLanePushBehindTailPanics(t *testing.T) {
	s := New()
	l := s.NewLane()
	l.Push(2*time.Millisecond, new(LaneItem), runFunc(func() {}))
	l.Push(2*time.Millisecond, new(LaneItem), runFunc(func() {})) // a tie is in order
	defer func() {
		if recover() == nil {
			t.Fatal("a push behind the lane's tail did not panic")
		}
	}()
	l.Push(time.Millisecond, new(LaneItem), runFunc(func() {}))
}

type countRunner struct{ n int }

func (c *countRunner) Run() { c.n++ }

// TestAllocBudgetAfter guards the event queue: an event is a value in
// the queue's one slice, so scheduling a closure costs the closure and
// scheduling a Runner the caller holds costs nothing.
func TestAllocBudgetAfter(t *testing.T) {
	s := New()
	// Grow the queue first: the budget is the steady state.
	for i := 0; i < 64; i++ {
		s.After(time.Millisecond, func() {})
	}
	s.Run(0)
	ran := 0
	if n := testing.AllocsPerRun(500, func() {
		for i := 0; i < 32; i++ {
			s.After(time.Duration(i)*time.Millisecond, func() { ran += i })
		}
		s.Run(0)
	}); n > 32 {
		t.Errorf("After: %.2f allocations per event, want at most 1 (the closure)", n/32)
	}
	r := &countRunner{}
	if n := testing.AllocsPerRun(500, func() {
		for i := 0; i < 32; i++ {
			s.AfterRun(time.Duration(i)*time.Millisecond, r)
		}
		s.Run(0)
	}); n != 0 {
		t.Errorf("AfterRun: %.2f allocations per event, want 0", n/32)
	}
	if ran == 0 || r.n == 0 {
		t.Fatal("scheduled work did not run")
	}
}

// TestAllocBudgetMailboxSteadyState guards the mailbox's queue: a mailbox
// that is filled and drained, lap after lap, uses the array of its first
// lap for all of them — it used to slide along it a slot a receive and
// allocate a new one whenever it fell off the end — and one that is never
// quite drained does not grow for it. What a receive hands over the
// mailbox no longer holds: it is collectable while the mailbox, with
// later messages still queued, lives on.
func TestAllocBudgetMailboxSteadyState(t *testing.T) {
	s := New()
	mb := s.NewMailbox()
	const k = 48
	msgs := make([]*int, k)
	for i := range msgs {
		msgs[i] = new(int)
	}
	lap := func(p *Proc, keep int) {
		for _, m := range msgs {
			mb.Send(m)
		}
		for mb.Len() > keep {
			if got := p.Recv(mb).(*int); got == nil {
				t.Error("received nil")
			}
		}
	}
	var drained, backlog uint64
	collected := make(chan struct{})
	s.Spawn("laps", func(p *Proc) {
		measure := func(keep int) uint64 {
			lap(p, keep)
			lap(p, keep)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 100; i++ {
				lap(p, keep)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		drained = measure(0)
		backlog = measure(5)
		for mb.Len() > 0 {
			p.Recv(mb)
		}

		first := new([64]byte)
		runtime.SetFinalizer(first, func(*[64]byte) { close(collected) })
		mb.Send(first)
		mb.Send(new(int))
		first = nil
		p.Recv(mb)
	})
	s.Run(0)
	if drained != 0 {
		t.Errorf("100 laps of %d sends and %d receives allocated %d bytes after the first, want 0", k, k, drained)
	}
	if backlog != 0 {
		t.Errorf("100 laps over a backlog of 5 allocated %d bytes, want 0: the queue moves up in its array", backlog)
	}
	if mb.Len() != 1 {
		t.Fatalf("%d messages queued, want the one behind the received", mb.Len())
	}
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(mb)
			return
		case <-time.After(10 * time.Millisecond):
		}
		if i == 100 {
			t.Fatal("a received message is still reachable from the mailbox it came through")
		}
	}
}
