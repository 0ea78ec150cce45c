package vtime_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/network"
	"algorand/internal/vtime"
)

// floodMsg is a relayed message under a relay budget of its own.
type floodMsg struct{ id crypto.Digest }

func (m *floodMsg) WireSize() int     { return 300 }
func (m *floodMsg) ID() crypto.Digest { return m.id }
func (m *floodMsg) RelayLimit() int   { return 1 }
func (m *floodMsg) LimitKey() network.LimitKey {
	return network.LimitKey{Kind: 'f', Sender: [8]byte(m.id[:8])}
}
func newFloodMsg(name string, i int) *floodMsg {
	return &floodMsg{crypto.HashBytes(name, []byte{byte(i)})}
}

// TestAllocBudgetQueue: the event queue holds what is due, not everything
// in flight. Sixty-four endpoints, each with a process parked on its
// mailbox as a node is and a modeled verification that delays its relays,
// flood four messages at once while a ticker keeps a timer pending. At
// every delivery and every tick the queue holds at most an entry per lane
// (a downlink and a relay lane per endpoint), per process and per timer,
// where a queue of every event would hold each transfer in flight. And
// once the queue has grown, a flood allocates nothing in vtime.
func TestAllocBudgetQueue(t *testing.T) {
	const n, msgs = 64, 4
	sim := vtime.New()
	nw := network.New(sim, network.DefaultConfig(), n)
	procs, timers := n+1, 1
	bound := 2*n + procs + timers
	peak := 0
	sample := func() { peak = max(peak, sim.QueueLen()) }
	for i := 0; i < n; i++ {
		mb := sim.NewMailbox()
		sim.Spawn("node", func(p *vtime.Proc) {
			for {
				p.Recv(mb)
			}
		})
		nw.SetHandler(i, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
			sample()
			mb.Send(m)
			return network.Verdict{Relay: true, CPU: 200 * time.Microsecond}
		}))
	}
	flooding := false
	var tick func()
	tick = func() {
		sample()
		if flooding {
			sim.After(time.Millisecond, tick)
		}
	}
	// The driver is spawned once: a process costs vtime its record.
	start := sim.NewMailbox()
	sim.Spawn("flood", func(p *vtime.Proc) {
		for round := 0; ; round++ {
			p.Recv(start)
			for i := 0; i < msgs; i++ {
				nw.Gossip(i*n/msgs, newFloodMsg(fmt.Sprint("queue-", round), i))
			}
			p.Sleep(2 * time.Second)
			flooding = false
		}
	})
	flood := func() {
		flooding = true
		start.Send(nil)
		sim.After(0, tick)
		sim.Run(0)
	}

	flood()
	if got := nw.TotalMsgs(); got != msgs*(n-1) {
		t.Fatalf("a flood of %d messages made %d first deliveries, want %d", msgs, got, msgs*(n-1))
	}
	t.Logf("a flood: %d transfers, the queue at most %d long (bound %d)", nw.TotalBytes()/300, peak, bound)
	if peak > bound {
		t.Errorf("the queue held %d events, more than %d lanes, %d processes and %d timer: transfers wait on the queue, not in their lanes",
			peak, 2*n, procs, timers)
	}

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := vtime.Allocs()
	flood()
	if got := vtime.Allocs() - before; got != 0 {
		t.Errorf("a flood after the first allocated %d bytes in vtime, want 0", got)
	}
}
