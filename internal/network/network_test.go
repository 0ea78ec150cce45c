package network

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"algorand/internal/crypto"
	"algorand/internal/vtime"
)

// testMsg is a trivial relayed message under a relay budget of one: that
// of its limit key, or without one a key of its own, which allows what its
// ID does anyway.
type testMsg struct {
	id    crypto.Digest
	size  int
	limit LimitKey
}

func (m *testMsg) WireSize() int     { return m.size }
func (m *testMsg) ID() crypto.Digest { return m.id }
func (m *testMsg) RelayLimit() int   { return 1 }
func (m *testMsg) LimitKey() LimitKey {
	if m.limit == (LimitKey{}) {
		return LimitKey{Kind: 't', Sender: [8]byte(m.id[:8])}
	}
	return m.limit
}

func msg(tag string, size int) *testMsg {
	return &testMsg{id: crypto.HashBytes("test.msg", []byte(tag)), size: size}
}

// install a relay-everything handler on all nodes, recording receipt times.
func installRecorders(nw *Network, cpu time.Duration) []time.Duration {
	n := len(nw.eps)
	recv := make([]time.Duration, n)
	for i := range recv {
		recv[i] = -1
	}
	for i := 0; i < n; i++ {
		i := i
		nw.SetHandler(i, HandlerFunc(func(from int, m Message) Verdict {
			if recv[i] < 0 {
				recv[i] = nw.sim.Now()
			}
			return Verdict{Relay: true, CPU: cpu}
		}))
	}
	return recv
}

func TestLatencyTableSane(t *testing.T) {
	// NY <-> London should be tens of ms; symmetric; intra-city small.
	nyLon := CityLatency(0, 1)
	if nyLon < 20*time.Millisecond || nyLon > 60*time.Millisecond {
		t.Fatalf("NY-London latency %v", nyLon)
	}
	if CityLatency(0, 1) != CityLatency(1, 0) {
		t.Fatal("latency not symmetric")
	}
	if CityLatency(3, 3) > 5*time.Millisecond {
		t.Fatal("intra-city latency too high")
	}
	// Antipodal pairs should be slower than nearby ones.
	if CityLatency(0, 4) <= CityLatency(0, 9) { // NY-Sydney vs NY-Toronto
		t.Fatal("distance ordering violated")
	}
}

func TestGossipReachesEveryone(t *testing.T) {
	sim := vtime.New()
	nw := New(sim, DefaultConfig(), 100)
	recv := installRecorders(nw, 0)

	sim.Spawn("origin", func(p *vtime.Proc) {
		nw.Gossip(0, msg("hello", 200))
	})
	sim.Run(time.Minute)

	missing := 0
	for i := 1; i < len(recv); i++ {
		if recv[i] < 0 {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d of 99 nodes never received the message", missing)
	}
}

func TestSmallMessagePropagationTime(t *testing.T) {
	// §10.5 / §9: ~200-byte priority messages propagate in about a
	// second; well under λ_priority = 5s.
	sim := vtime.New()
	nw := New(sim, DefaultConfig(), 200)
	recv := installRecorders(nw, 0)
	sim.Spawn("origin", func(p *vtime.Proc) {
		nw.Gossip(0, msg("priority", 200))
	})
	sim.Run(time.Minute)

	var worst time.Duration
	for i := 1; i < len(recv); i++ {
		if recv[i] > worst {
			worst = recv[i]
		}
	}
	if worst <= 0 || worst > 5*time.Second {
		t.Fatalf("small message worst-case propagation %v", worst)
	}
}

func TestLargeBlockPropagationScalesWithSize(t *testing.T) {
	// Gossiping a 1 MB block at 20 Mbit/s takes ~0.4s per hop per copy;
	// the paper measures ~10s to reach the whole network.
	measure := func(size int) time.Duration {
		sim := vtime.New()
		cfg := DefaultConfig()
		nw := New(sim, cfg, 100)
		recv := installRecorders(nw, 0)
		sim.Spawn("origin", func(p *vtime.Proc) {
			nw.Gossip(0, msg(fmt.Sprintf("block-%d", size), size))
		})
		sim.Run(10 * time.Minute)
		var worst time.Duration
		for i := 1; i < len(recv); i++ {
			if recv[i] > worst {
				worst = recv[i]
			}
		}
		return worst
	}
	t1 := measure(1 << 20)
	t10 := measure(10 << 20)
	if t1 < 2*time.Second || t1 > 60*time.Second {
		t.Fatalf("1MB propagation %v, expected ~10s scale", t1)
	}
	if t10 < 3*t1 {
		t.Fatalf("10MB (%v) should be much slower than 1MB (%v)", t10, t1)
	}
}

func TestNoRelayVerdictStopsPropagation(t *testing.T) {
	sim := vtime.New()
	nw := New(sim, DefaultConfig(), 50)
	received := make([]bool, 50)
	for i := 0; i < 50; i++ {
		i := i
		nw.SetHandler(i, HandlerFunc(func(from int, m Message) Verdict {
			received[i] = true
			return Verdict{Relay: false} // invalid message: do not relay
		}))
	}
	sim.Spawn("origin", func(p *vtime.Proc) {
		nw.Gossip(7, msg("junk", 100))
	})
	sim.Run(time.Minute)
	count := 0
	for _, r := range received {
		if r {
			count++
		}
	}
	// Only the origin's direct neighbors can have seen it.
	if count > 2*fanout+4 {
		t.Fatalf("junk reached %d nodes despite no-relay verdicts", count)
	}
}

func TestRelayLimitPerSenderRoundStep(t *testing.T) {
	// Two *different* messages sharing a LimitKey (equivocation): both
	// are delivered to apps that see them, but each node relays only the
	// first, so the second spreads much less.
	sim := vtime.New()
	nw := New(sim, DefaultConfig(), 80)
	type seen struct{ a, b bool }
	got := make([]seen, 80)
	for i := 0; i < 80; i++ {
		i := i
		nw.SetHandler(i, HandlerFunc(func(from int, m Message) Verdict {
			tm := m.(*testMsg)
			if tm.size == 111 {
				got[i].a = true
			} else {
				got[i].b = true
			}
			return Verdict{Relay: true}
		}))
	}
	a := &testMsg{id: crypto.HashBytes("ek", []byte("a")), size: 111, limit: LimitKey{Kind: 'v', Sender: [8]byte{5}, Round: 1, Step: 1}}
	b := &testMsg{id: crypto.HashBytes("ek", []byte("b")), size: 112, limit: LimitKey{Kind: 'v', Sender: [8]byte{5}, Round: 1, Step: 1}}
	sim.Spawn("origin", func(p *vtime.Proc) {
		nw.Gossip(5, a)
		nw.Gossip(5, b)
	})
	sim.Run(time.Minute)

	countA, countB := 0, 0
	for _, s := range got {
		if s.a {
			countA++
		}
		if s.b {
			countB++
		}
	}
	if countA < 70 {
		t.Fatalf("first message reached only %d nodes", countA)
	}
	if countB >= countA {
		t.Fatalf("limited message reached %d >= %d", countB, countA)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// A sender with 8 neighbors pushing a 1MB message must serialize
	// ~8 copies: ~0.42s each at 20 Mbit/s, so the last copy leaves
	// several seconds after the first.
	sim := vtime.New()
	cfg := defaults(DefaultConfig())
	cfg.jitter = 0
	nw := newNetwork(sim, cfg, 20)
	recv := installRecorders(nw, 0)
	sim.Spawn("origin", func(p *vtime.Proc) {
		nw.Gossip(0, msg("big", 1<<20))
	})
	sim.Run(time.Minute)

	neighbors := nw.eps[0].neighbors
	if len(neighbors) < 4 {
		t.Fatalf("origin has %d neighbors", len(neighbors))
	}
	var first, last time.Duration = time.Hour, 0
	for _, p := range neighbors {
		if recv[p] < 0 {
			continue
		}
		if recv[p] < first {
			first = recv[p]
		}
		if recv[p] > last {
			last = recv[p]
		}
	}
	txTime := 420 * time.Millisecond
	if last-first < time.Duration(len(neighbors)-2)*txTime/2 {
		t.Fatalf("uplink not serialized: first %v last %v over %d peers", first, last, len(neighbors))
	}
}

func TestSharedVMBandwidthSlowsDelivery(t *testing.T) {
	run := func(shared bool) time.Duration {
		sim := vtime.New()
		cfg := defaults(DefaultConfig())
		cfg.jitter = 0
		if shared {
			cfg.ProcsPerVM = 10 // 10 procs share one 20 Mbit/s NIC
		}
		nw := newNetwork(sim, cfg, 60)
		recv := installRecorders(nw, 0)
		sim.Spawn("origins", func(p *vtime.Proc) {
			// Several origins transmit large messages at once.
			for o := 0; o < 10; o++ {
				nw.Gossip(o, msg(fmt.Sprintf("m%d", o), 1<<20))
			}
		})
		sim.Run(10 * time.Minute)
		var worst time.Duration
		for _, r := range recv {
			if r > worst {
				worst = r
			}
		}
		return worst
	}
	solo := run(false)
	shared := run(true)
	if shared < 2*solo {
		t.Fatalf("shared-VM run (%v) should be much slower than dedicated (%v)", shared, solo)
	}
}

func TestCPUChargingDelaysRelay(t *testing.T) {
	run := func(cpu time.Duration) time.Duration {
		sim := vtime.New()
		cfg := defaults(DefaultConfig())
		cfg.jitter = 0
		nw := newNetwork(sim, cfg, 60)
		recv := installRecorders(nw, cpu)
		sim.Spawn("origin", func(p *vtime.Proc) {
			nw.Gossip(0, msg("cpu", 300))
		})
		sim.Run(time.Minute)
		var worst time.Duration
		for i := 1; i < 60; i++ {
			if recv[i] > worst {
				worst = recv[i]
			}
		}
		return worst
	}
	fast := run(0)
	slow := run(50 * time.Millisecond)
	if slow <= fast {
		t.Fatalf("CPU cost should delay propagation: %v vs %v", slow, fast)
	}
	// CPU accounting recorded.
	sim := vtime.New()
	nw := New(sim, DefaultConfig(), 10)
	installRecorders(nw, 5*time.Millisecond)
	sim.Spawn("o", func(p *vtime.Proc) { nw.Gossip(0, msg("x", 100)) })
	sim.Run(time.Minute)
	var cpu time.Duration
	for i := 0; i < 10; i++ {
		cpu += nw.NodeStats(i).CPUUsed
	}
	if cpu == 0 {
		t.Fatal("no CPU recorded")
	}
}

func TestWeightedPeerSelection(t *testing.T) {
	sim := vtime.New()
	cfg := DefaultConfig()
	nw := New(sim, cfg, 100)
	w := make([]uint64, 100)
	for i := range w {
		w[i] = 1
	}
	w[7] = 1000 // a whale
	nw.SetWeights(w)

	inDegree := make([]int, 100)
	for i := 0; i < 100; i++ {
		for _, p := range nw.Peers(i) {
			inDegree[p]++
		}
	}
	avg := 0
	for i, d := range inDegree {
		if i != 7 {
			avg += d
		}
	}
	if inDegree[7] < 3*avg/99 {
		t.Fatalf("whale in-degree %d vs average %d/99", inDegree[7], avg)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, uint64) {
		sim := vtime.New()
		nw := New(sim, DefaultConfig(), 50)
		installRecorders(nw, time.Millisecond)
		sim.Spawn("o", func(p *vtime.Proc) {
			nw.Gossip(0, msg("d1", 500))
			nw.Gossip(3, msg("d2", 700))
		})
		sim.Run(time.Minute)
		return nw.TotalBytes(), sim.EventCount
	}
	b1, e1 := run()
	b2, e2 := run()
	if b1 != b2 || e1 != e2 {
		t.Fatalf("nondeterministic: bytes %d/%d events %d/%d", b1, b2, e1, e2)
	}
}

func TestStatsAccounting(t *testing.T) {
	sim := vtime.New()
	nw := New(sim, DefaultConfig(), 20)
	installRecorders(nw, 0)
	sim.Spawn("o", func(p *vtime.Proc) { nw.Gossip(0, msg("s", 1000)) })
	sim.Run(time.Minute)
	if nw.TotalMsgs() == 0 || nw.TotalBytes() == 0 {
		t.Fatal("global stats empty")
	}
	st := nw.NodeStats(0)
	if st.BytesSent == 0 {
		t.Fatal("origin sent nothing")
	}
	var recvTotal int64
	for i := 0; i < 20; i++ {
		recvTotal += nw.NodeStats(i).BytesReceived
	}
	if recvTotal == 0 {
		t.Fatal("nothing received")
	}
}

func TestResetSeenAllowsReGossip(t *testing.T) {
	sim := vtime.New()
	nw := New(sim, DefaultConfig(), 20)
	count := 0
	for i := 0; i < 20; i++ {
		nw.SetHandler(i, HandlerFunc(func(from int, m Message) Verdict {
			count++
			return Verdict{Relay: true}
		}))
	}
	m := msg("repeat", 100)
	sim.Spawn("o", func(p *vtime.Proc) {
		nw.Gossip(0, m)
		p.Sleep(10 * time.Second)
		first := count
		nw.ResetSeen()
		nw.Gossip(0, m)
		p.Sleep(10 * time.Second)
		if count <= first {
			t.Errorf("re-gossip after reset delivered nothing (%d then %d)", first, count)
		}
	})
	sim.Run(time.Minute)
}

func TestUnicast(t *testing.T) {
	sim := vtime.New()
	nw := New(sim, DefaultConfig(), 10)
	got := false
	relayedTo := 0
	for i := 0; i < 10; i++ {
		i := i
		nw.SetHandler(i, HandlerFunc(func(from int, m Message) Verdict {
			if i == 4 {
				got = true
			} else {
				relayedTo++
			}
			return Verdict{Relay: false}
		}))
	}
	sim.Spawn("o", func(p *vtime.Proc) { nw.Unicast(1, 4, msg("uni", 100)) })
	sim.Run(time.Minute)
	if !got {
		t.Fatal("unicast not delivered")
	}
	if relayedTo != 0 {
		t.Fatal("unicast leaked to other nodes")
	}
}

func BenchmarkGossip1000Nodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := vtime.New()
		nw := New(sim, DefaultConfig(), 1000)
		installRecorders(nw, 0)
		sim.Spawn("o", func(p *vtime.Proc) { nw.Gossip(0, msg(fmt.Sprint(i), 300)) })
		sim.Run(time.Minute)
	}
}

// multiMsg allows two relays per limit key (equivocation evidence).
type multiMsg struct {
	testMsg
}

func (m *multiMsg) RelayLimit() int { return 2 }

func TestMultiRelayLimit(t *testing.T) {
	sim := vtime.New()
	nw := New(sim, DefaultConfig(), 60)
	got := make(map[int]int) // size -> nodes that saw it
	for i := 0; i < 60; i++ {
		nw.SetHandler(i, HandlerFunc(func(from int, m Message) Verdict {
			got[m.WireSize()]++
			return Verdict{Relay: true}
		}))
	}
	mk := func(tag string, size int) *multiMsg {
		return &multiMsg{testMsg{id: crypto.HashBytes("mr", []byte(tag)), size: size, limit: LimitKey{Kind: 'p', Round: 1}}}
	}
	sim.Spawn("o", func(p *vtime.Proc) {
		nw.Gossip(3, mk("a", 101))
		nw.Gossip(3, mk("b", 102))
		nw.Gossip(3, mk("c", 103))
	})
	sim.Run(time.Minute)

	// With a relay limit of 2 per key, the first two variants flood; the
	// third reaches only the origin's direct neighbors.
	if got[101] < 50 || got[102] < 50 {
		t.Fatalf("first two variants under-delivered: %d/%d", got[101], got[102])
	}
	if got[103] >= got[101]/2 {
		t.Fatalf("third variant should be suppressed: %d vs %d", got[103], got[101])
	}
}

// countingMsg counts how often the network asks it what it is.
type countingMsg struct {
	testMsg
	ids, sizes, keys int
}

func (m *countingMsg) ID() crypto.Digest  { m.ids++; return m.testMsg.ID() }
func (m *countingMsg) WireSize() int      { m.sizes++; return m.testMsg.WireSize() }
func (m *countingMsg) LimitKey() LimitKey { m.keys++; return m.testMsg.LimitKey() }

// TestAllocBudgetMessageSealedOnce guards the envelope: a message is
// asked for its ID, size and relay-limit key once, when it enters Gossip
// or Unicast, and no hop, first delivery or duplicate delivery asks
// again. For a transaction batch one ID() hashes every transaction in it.
// Envelopes and transfer records are recycled: once their pools have
// grown, a unicast of a message that is already built allocates nothing,
// and a flood allocates no envelope and nothing per hop.
func TestAllocBudgetMessageSealedOnce(t *testing.T) {
	if size := unsafe.Sizeof(transfer{}); size != 64 {
		t.Errorf("a transfer record is %d bytes, want 64: a round is hundreds of thousands of them", size)
	}
	sim := vtime.New()
	nw := New(sim, DefaultConfig(), 30)
	installRecorders(nw, 0)

	flood := &countingMsg{testMsg: *msg("sealed", 200)}
	flood.limit = LimitKey{Kind: 'v', Round: 1, Step: 1}
	direct := &countingMsg{testMsg: *msg("sealed-direct", 200)}
	sim.Spawn("origin", func(p *vtime.Proc) {
		nw.Gossip(0, flood)
		nw.Unicast(0, 1, direct)
		nw.Unicast(0, 1, direct) // the second copy is delivered as a duplicate
	})
	sim.Run(time.Minute)

	if nw.TotalMsgs() < 30 || nw.NodeStats(1).DupsDropped == 0 {
		t.Fatalf("%d first deliveries, %d duplicates at node 1: the flood did not exercise relay and duplicate paths",
			nw.TotalMsgs(), nw.NodeStats(1).DupsDropped)
	}
	if flood.ids != 1 || flood.sizes != 1 || flood.keys != 1 {
		t.Errorf("gossiped message: %d ID(), %d WireSize() and %d LimitKey() calls over %d deliveries, want 1 of each",
			flood.ids, flood.sizes, flood.keys, nw.TotalMsgs())
	}
	if direct.ids != 2 || direct.sizes != 2 {
		t.Errorf("message unicast twice: %d ID() and %d WireSize() calls, want 2 and 2", direct.ids, direct.sizes)
	}

	// A duplicate delivery on its own: nothing asked, nothing allocated.
	env := nw.seal(flood)
	flood.ids, flood.sizes = 0, 0
	dups := nw.NodeStats(1).DupsDropped
	if got := testing.AllocsPerRun(100, func() { nw.deliver(0, 1, env) }); got != 0 {
		t.Errorf("duplicate delivery: %.0f allocations, want 0", got)
	}
	if nw.NodeStats(1).DupsDropped == dups {
		t.Fatal("the re-delivery was not treated as a duplicate")
	}
	if flood.ids != 0 || flood.sizes != 0 {
		t.Errorf("duplicate deliveries made %d ID() and %d WireSize() calls, want none", flood.ids, flood.sizes)
	}

	// A unicast of a built message, delivered and released: nothing.
	if got := testing.AllocsPerRun(100, func() {
		nw.Unicast(0, 1, direct)
		sim.Run(0)
	}); got != 0 {
		t.Errorf("a unicast once the pools are warm: %.0f allocations, want 0", got)
	}

	// A second flood reuses the first one's envelope and transfer records:
	// what it allocates does not grow with the number of hops, and the
	// pool of envelopes does not grow at all.
	const floods = 5
	spares := func() (k int) {
		for env := nw.spare; env != nil; env = env.next {
			k++
		}
		return k
	}
	sent, n, pool := nw.TotalBytes(), 0, spares()
	perFlood := testing.AllocsPerRun(floods, func() {
		n++
		nw.Gossip(0, msg(fmt.Sprint("sealed-again-", n), 200))
		sim.Run(0)
	})
	hops := float64(nw.TotalBytes()-sent) / 200 / (floods + 1) // AllocsPerRun warms up with one more
	if hops < 100 {
		t.Fatalf("a later flood makes %.0f transfers, want a flood", hops)
	}
	if perFlood > 10 {
		t.Errorf("a later flood: %.0f allocations over %.0f transfers, want the message's own few", perFlood, hops)
	}
	if got := spares(); pool == 0 || got != pool {
		t.Errorf("%d envelopes in the pool before %d floods and %d after, want the same, not none", pool, floods+1, got)
	}
}
