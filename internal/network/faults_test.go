package network

import (
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/vtime"
)

// directMsg builds a unique unicast payload.
func directMsg(tag string, size int) *testMsg {
	return &testMsg{id: crypto.HashBytes("fault.msg", []byte(tag)), size: size}
}

// runUnicast sends one message from->to and reports whether it arrived.
func runUnicast(nw *Network, sim *vtime.Sim, from, to int, tag string) bool {
	got := false
	nw.SetHandler(to, HandlerFunc(func(src int, m Message) Verdict {
		got = true
		return Verdict{}
	}))
	sim.Spawn("u-"+tag, func(p *vtime.Proc) { nw.Unicast(from, to, directMsg(tag, 100)) })
	sim.Run(time.Minute)
	return got
}

func TestPartitionsCompose(t *testing.T) {
	// Two independently installed faults — a world split and a targeted
	// DoS — must both apply at once, and each heals when its window ends.
	sim := vtime.New()
	nw := New(sim, DefaultConfig(), 10)

	const cut, heal = 5, time.Hour
	open := func() bool { return sim.Now() < heal }
	nw.AddPartition(func(a, b int) bool { return open() && (a < cut) != (b < cut) }) // split {0..4} | {5..9}
	nw.AddPartition(func(a, b int) bool { return open() && (a == 2 || b == 2) })     // silence node 2

	if !nw.Partitioned(1, 7) || !nw.Partitioned(7, 1) {
		t.Fatal("world split not applied while DoS filter installed")
	}
	if !nw.Partitioned(2, 3) || !nw.Partitioned(3, 2) {
		t.Fatal("targeted DoS not applied while split filter installed")
	}
	if nw.Partitioned(0, 1) || nw.Partitioned(8, 9) {
		t.Fatal("intra-half traffic between unaffected nodes wrongly blocked")
	}

	// End-to-end: a message across the cut is dropped, one inside a half
	// (avoiding node 2) is delivered.
	if runUnicast(nw, sim, 1, 7, "cross") {
		t.Fatal("message crossed the world split")
	}
	if runUnicast(nw, sim, 3, 4, "intra") != true {
		t.Fatal("message between unaffected nodes dropped")
	}
	if runUnicast(nw, sim, 2, 3, "dos") {
		t.Fatal("silenced node's message delivered")
	}

	// Past the window both filters let everything through.
	sim.After(heal-sim.Now(), func() {})
	sim.Run(0)
	if nw.Partitioned(1, 7) || nw.Partitioned(2, 3) {
		t.Fatal("heal did not clear all filters")
	}
}

// lossTrace runs a fixed unicast workload under a 30% loss fault seeded
// with the given value, returning which sends were dropped.
func lossTrace(t *testing.T, seed int64) []bool {
	t.Helper()
	sim := vtime.New()
	cfg := defaults(DefaultConfig())
	cfg.jitter = 0
	nw := newNetwork(sim, cfg, 4)
	nw.SeedFaults(seed)
	nw.AddLinkFault(LinkFault{LossProb: 0.3})

	const sends = 64
	delivered := make([]bool, sends)
	nw.SetHandler(1, HandlerFunc(func(from int, m Message) Verdict { return Verdict{} }))
	sim.Spawn("o", func(p *vtime.Proc) {
		for i := 0; i < sends; i++ {
			before := nw.TotalLost()
			nw.Unicast(0, 1, directMsg(string(rune('a'+i%26))+string(rune('0'+i/26)), 100))
			delivered[i] = nw.TotalLost() == before
			p.Sleep(time.Second)
		}
	})
	sim.Run(5 * time.Minute)
	return delivered
}

func TestLinkFaultLossReproducible(t *testing.T) {
	a := lossTrace(t, 42)
	b := lossTrace(t, 42)
	c := lossTrace(t, 43)

	lostA := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at send %d", i)
		}
		if !a[i] {
			lostA++
		}
	}
	if lostA == 0 || lostA == len(a) {
		t.Fatalf("loss fault degenerate: %d/%d dropped", lostA, len(a))
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical loss pattern")
	}
}

// delayTrace measures per-message delivery times under an extra-delay
// fault with jitter, for a fixed seed.
func delayTrace(t *testing.T, seed int64) []time.Duration {
	t.Helper()
	sim := vtime.New()
	cfg := defaults(DefaultConfig())
	cfg.jitter = 0
	nw := newNetwork(sim, cfg, 4)
	nw.SeedFaults(seed)
	nw.AddLinkFault(LinkFault{
		ExtraDelay:  200 * time.Millisecond,
		ExtraJitter: 300 * time.Millisecond,
	})

	const sends = 16
	var times []time.Duration
	var sentAt []time.Duration
	nw.SetHandler(1, HandlerFunc(func(from int, m Message) Verdict {
		times = append(times, sim.Now()-sentAt[len(times)])
		return Verdict{}
	}))
	sim.Spawn("o", func(p *vtime.Proc) {
		for i := 0; i < sends; i++ {
			sentAt = append(sentAt, sim.Now())
			nw.Unicast(0, 1, directMsg("d"+string(rune('a'+i)), 100))
			p.Sleep(5 * time.Second)
		}
	})
	sim.Run(5 * time.Minute)
	if len(times) != sends {
		t.Fatalf("delivered %d of %d delayed messages", len(times), sends)
	}
	return times
}

func TestLinkFaultDelayReproducible(t *testing.T) {
	a := delayTrace(t, 7)
	b := delayTrace(t, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed delay diverged at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 200*time.Millisecond {
			t.Fatalf("message %d arrived in %v, below the 200ms floor", i, a[i])
		}
		if a[i] > 600*time.Millisecond {
			t.Fatalf("message %d took %v, above floor+jitter+latency bound", i, a[i])
		}
	}
	// Jitter must actually vary across messages.
	allSame := true
	for i := 1; i < len(a); i++ {
		if a[i] != a[0] {
			allSame = false
			break
		}
	}
	if allSame {
		t.Fatal("jitter produced identical delays for every message")
	}
}

func TestLinkFaultWindowAndMatch(t *testing.T) {
	// A fault gated to [10s, 20s) on the 0->1 link only: sends outside
	// the window or on other links are untouched.
	sim := vtime.New()
	cfg := defaults(DefaultConfig())
	cfg.jitter = 0
	nw := newNetwork(sim, cfg, 4)
	nw.SeedFaults(99)
	nw.AddLinkFault(LinkFault{
		Match:    func(from, to int) bool { return from == 0 && to == 1 },
		Active:   func(now time.Duration) bool { return now >= 10*time.Second && now < 20*time.Second },
		LossProb: 1.0,
	})

	got01, got02 := 0, 0
	nw.SetHandler(1, HandlerFunc(func(from int, m Message) Verdict { got01++; return Verdict{} }))
	nw.SetHandler(2, HandlerFunc(func(from int, m Message) Verdict { got02++; return Verdict{} }))
	sim.Spawn("o", func(p *vtime.Proc) {
		nw.Unicast(0, 1, directMsg("pre", 100)) // t=0: before window
		nw.Unicast(0, 2, directMsg("x1", 100))
		p.Sleep(15 * time.Second) // t=15: inside window
		nw.Unicast(0, 1, directMsg("mid", 100))
		nw.Unicast(0, 2, directMsg("x2", 100))
		p.Sleep(10 * time.Second) // t=25: after window
		nw.Unicast(0, 1, directMsg("post", 100))
	})
	sim.Run(time.Minute)

	if got01 != 2 {
		t.Fatalf("0->1 deliveries = %d, want 2 (window send dropped)", got01)
	}
	if got02 != 2 {
		t.Fatalf("0->2 deliveries = %d, want 2 (unmatched link untouched)", got02)
	}
	if nw.TotalLost() != 1 {
		t.Fatalf("TotalLost = %d, want 1", nw.TotalLost())
	}
	if nw.NodeStats(0).MsgsLost != 1 {
		t.Fatalf("sender MsgsLost = %d, want 1", nw.NodeStats(0).MsgsLost)
	}
}
