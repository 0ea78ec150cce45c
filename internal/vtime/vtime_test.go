package vtime

import (
	"testing"
	"time"
)

func TestSleepAdvancesTime(t *testing.T) {
	s := New()
	var woke time.Duration
	s.Spawn("a", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	end := s.Run(0)
	if woke != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", woke)
	}
	if end != 5*time.Second {
		t.Fatalf("sim ended at %v", end)
	}
}

func TestInterleaving(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("a", func(p *Proc) {
		p.Sleep(1 * time.Second)
		order = append(order, "a1")
		p.Sleep(2 * time.Second)
		order = append(order, "a3")
	})
	s.Spawn("b", func(p *Proc) {
		p.Sleep(2 * time.Second)
		order = append(order, "b2")
		p.Sleep(2 * time.Second)
		order = append(order, "b4")
	})
	s.Run(0)
	want := []string{"a1", "b2", "a3", "b4"}
	if len(order) != len(want) {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsOrderedBySpawn(t *testing.T) {
	// Two procs waking at the same instant run in scheduling order,
	// deterministically.
	for trial := 0; trial < 10; trial++ {
		s := New()
		var order []string
		s.Spawn("a", func(p *Proc) {
			p.Sleep(time.Second)
			order = append(order, "a")
		})
		s.Spawn("b", func(p *Proc) {
			p.Sleep(time.Second)
			order = append(order, "b")
		})
		s.Run(0)
		if order[0] != "a" || order[1] != "b" {
			t.Fatalf("trial %d: nondeterministic order %v", trial, order)
		}
	}
}

func TestMailboxSendRecv(t *testing.T) {
	s := New()
	mb := s.NewMailbox()
	var got any
	var at time.Duration
	s.Spawn("recv", func(p *Proc) {
		got = p.Recv(mb)
		at = p.Now()
	})
	s.Spawn("send", func(p *Proc) {
		p.Sleep(3 * time.Second)
		mb.Send("hello")
	})
	s.Run(0)
	if got != "hello" {
		t.Fatalf("got %v", got)
	}
	if at != 3*time.Second {
		t.Fatalf("received at %v", at)
	}
}

func TestMailboxBufferedBeforeRecv(t *testing.T) {
	s := New()
	mb := s.NewMailbox()
	var got []any
	s.Spawn("send", func(p *Proc) {
		mb.Send(1)
		mb.Send(2)
	})
	s.Spawn("recv", func(p *Proc) {
		p.Sleep(time.Second)
		got = append(got, p.Recv(mb), p.Recv(mb))
	})
	s.Run(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want FIFO [1 2]", got)
	}
}

func TestRecvDeadlineTimeout(t *testing.T) {
	s := New()
	mb := s.NewMailbox()
	var ok bool
	var at time.Duration
	s.Spawn("recv", func(p *Proc) {
		_, ok = p.RecvTimeout(mb, 7*time.Second)
		at = p.Now()
	})
	s.Run(0)
	if ok {
		t.Fatal("expected timeout")
	}
	if at != 7*time.Second {
		t.Fatalf("timed out at %v", at)
	}
}

func TestRecvDeadlineMessageBeatsTimeout(t *testing.T) {
	s := New()
	mb := s.NewMailbox()
	var v any
	var ok bool
	s.Spawn("recv", func(p *Proc) {
		v, ok = p.RecvTimeout(mb, 10*time.Second)
	})
	s.After(2*time.Second, func() { mb.Send(42) })
	s.Run(0)
	if !ok || v != 42 {
		t.Fatalf("got %v ok=%v", v, ok)
	}
	// The cancelled timeout event must not wake anything later.
	if s.Now() != 2*time.Second {
		t.Fatalf("sim time %v, want 2s", s.Now())
	}
}

func TestRecvAfterTimeoutStillWorks(t *testing.T) {
	s := New()
	mb := s.NewMailbox()
	var first, second bool
	var v any
	s.Spawn("recv", func(p *Proc) {
		_, first = p.RecvTimeout(mb, time.Second)
		v, second = p.RecvTimeout(mb, 10*time.Second)
	})
	s.After(5*time.Second, func() { mb.Send("late") })
	s.Run(0)
	if first {
		t.Fatal("first recv should time out")
	}
	if !second || v != "late" {
		t.Fatalf("second recv got %v ok=%v", v, second)
	}
}

func TestAfterClosure(t *testing.T) {
	s := New()
	var times []time.Duration
	s.After(3*time.Second, func() { times = append(times, s.Now()) })
	s.After(1*time.Second, func() { times = append(times, s.Now()) })
	s.Run(0)
	if len(times) != 2 || times[0] != time.Second || times[1] != 3*time.Second {
		t.Fatalf("times %v", times)
	}
}

func TestNestedSpawnAndAfter(t *testing.T) {
	s := New()
	var done time.Duration
	s.Spawn("outer", func(p *Proc) {
		p.Sleep(time.Second)
		p.Sim().Spawn("inner", func(q *Proc) {
			q.Sleep(2 * time.Second)
			done = q.Now()
		})
		p.Sim().After(time.Second, func() {})
	})
	s.Run(0)
	if done != 3*time.Second {
		t.Fatalf("inner finished at %v, want 3s", done)
	}
}

func TestHorizonStopsSim(t *testing.T) {
	s := New()
	ticks := 0
	s.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	end := s.Run(10 * time.Second)
	if end != 10*time.Second {
		t.Fatalf("ended at %v", end)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
}

func TestStop(t *testing.T) {
	s := New()
	ticks := 0
	s.Spawn("ticker", func(p *Proc) {
		for !p.Sim().Stopped() {
			p.Sleep(time.Second)
			ticks++
			if ticks == 3 {
				p.Sim().Stop()
			}
		}
	})
	s.Run(0)
	if ticks != 3 {
		t.Fatalf("ticks = %d", ticks)
	}
}

func TestAbandonedProcessLikeHangForever(t *testing.T) {
	s := New()
	mb := s.NewMailbox()
	reached := false
	s.Spawn("hung", func(p *Proc) {
		p.Recv(mb) // never satisfied
		reached = true
	})
	s.Spawn("other", func(p *Proc) { p.Sleep(time.Second) })
	end := s.Run(0)
	if reached {
		t.Fatal("hung process should not run past Recv")
	}
	if end != time.Second {
		t.Fatalf("end = %v", end)
	}
}

func TestPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic to propagate from Run")
		}
	}()
	s := New()
	s.Spawn("bad", func(p *Proc) {
		p.Sleep(time.Second)
		panic("boom")
	})
	s.Run(0)
}

func TestDeterministicEventCount(t *testing.T) {
	run := func() uint64 {
		s := New()
		mb := s.NewMailbox()
		s.Spawn("recv", func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Recv(mb)
			}
		})
		s.Spawn("send", func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Sleep(time.Millisecond)
				mb.Send(i)
			}
		})
		s.Run(0)
		return s.EventCount
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("event counts differ: %d vs %d", a, b)
	}
}

func TestManyProcs(t *testing.T) {
	s := New()
	const n = 2000
	count := 0
	for i := 0; i < n; i++ {
		s.Spawn("p", func(p *Proc) {
			p.Sleep(time.Duration(i%10) * time.Second)
			count++
		})
	}
	s.Run(0)
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
}

func BenchmarkSleepEvents(b *testing.B) {
	s := New()
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	b.ResetTimer()
	s.Run(0)
}

func BenchmarkMailboxPingPong(b *testing.B) {
	s := New()
	m1 := s.NewMailbox()
	m2 := s.NewMailbox()
	s.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			m2.Send(i)
			p.Recv(m1)
		}
	})
	s.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Recv(m2)
			m1.Send(i)
		}
	})
	b.ResetTimer()
	s.Run(0)
}

func TestRealtimeBasics(t *testing.T) {
	s := New().Realtime()
	var order []string
	s.Spawn("worker", func(p *Proc) {
		p.Sleep(20 * time.Millisecond)
		order = append(order, "slept")
	})
	go func() {
		time.Sleep(5 * time.Millisecond)
		s.Inject(func() { order = append(order, "injected") })
	}()
	start := time.Now()
	s.Run(200 * time.Millisecond)
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("realtime run returned too fast: %v", elapsed)
	}
	if len(order) != 2 || order[0] != "injected" || order[1] != "slept" {
		t.Fatalf("order %v", order)
	}
}

func TestRealtimeInjectWakesIdleLoop(t *testing.T) {
	s := New().Realtime()
	mb := s.NewMailbox()
	var got any
	s.Spawn("recv", func(p *Proc) {
		got = p.Recv(mb)
		s.Stop()
	})
	go func() {
		time.Sleep(10 * time.Millisecond)
		s.Inject(func() { mb.Send("external") })
	}()
	s.Run(time.Second)
	if got != "external" {
		t.Fatalf("got %v", got)
	}
}

func TestRealtimeHorizon(t *testing.T) {
	s := New().Realtime()
	start := time.Now()
	s.Run(30 * time.Millisecond) // no events: returns at horizon
	if e := time.Since(start); e < 25*time.Millisecond || e > 500*time.Millisecond {
		t.Fatalf("horizon wait %v", e)
	}
}

func TestInjectPanicsInVirtualMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Inject(func() {})
}

// TestCancelledEventNeitherRunsNorMovesTheClock: an event AfterUnless
// scheduled and Cancel called off does not run, and Run ends at the last
// event that did, not at the called-off one's time.
func TestCancelledEventNeitherRunsNorMovesTheClock(t *testing.T) {
	s := New()
	var off, kept bool
	ran := false
	s.AfterUnless(20*time.Second, func() { ran = true }, &off)
	s.AfterUnless(3*time.Second, func() {}, &kept)
	s.After(time.Second, func() { s.Cancel(&off) })
	if end := s.Run(0); ran || end != 3*time.Second {
		t.Fatalf("called-off event ran %v, Run ended at %v; want not run, 3s", ran, end)
	}
}
