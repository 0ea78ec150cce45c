package realnet

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"algorand/internal/blockprop"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	nodepkg "algorand/internal/node"
	"algorand/internal/vtime"
)

// endpoints is the size of each network a contract case runs on. With
// four, both topologies are a full mesh — the simulator draws
// min(fanout, n−1) = 3 peers, the TCP transport's neighbours are the
// address book — so a case reads the same on both: what endpoints 2 and 3
// handle of a flooded message sent to endpoint 1 alone is what 1 relayed.
const endpoints = 4

// contractNet is one network of four endpoints, driven through
// node.Transport alone. Every handler logs what it handles and from whom,
// and relays as relay says (nil: always).
type contractNet struct {
	tr     [endpoints]nodepkg.Transport
	ttl    time.Duration         // the transport's SeenTTL
	settle func()                // lets every message in flight land
	wait   func(d time.Duration) // lets d pass
	// stall holds what from sends to `to` in from's queue until the
	// returned release has run: the simulator's uplink queues it anyway,
	// and the TCP transport parks from's writer to `to`.
	stall func(from, to int) (release func())

	mu    sync.Mutex
	log   []delivery
	relay func(at int) bool
}

type delivery struct {
	at, from int
	m        network.Message
}

// listen installs the logging handlers and checks the topology.
func (c *contractNet) listen(t *testing.T) {
	for i, tr := range c.tr {
		tr.SetHandler(i, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.log = append(c.log, delivery{i, from, m})
			return network.Verdict{Relay: c.relay == nil || c.relay(i)}
		}))
		if got := len(tr.Neighbors(i)); got != endpoints-1 {
			t.Fatalf("endpoint %d has %d neighbours, want the full mesh's %d", i, got, endpoints-1)
		}
	}
}

// verdict sets what every handler answers from now on.
func (c *contractNet) verdict(relay func(at int) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.relay = relay
}

// froms lists whom endpoint at handled m from, once per handling. A
// message is m if it encodes to m's frame: the simulator hands over m
// itself, the TCP transport a copy decoded from the wire.
func (c *contractNet) froms(at int, m network.Message) []int {
	tag, frame, _ := nodepkg.EncodeMessage(m)
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for _, d := range c.log {
		if dt, df, _ := nodepkg.EncodeMessage(d.m); d.at == at && dt == tag && bytes.Equal(df, frame) {
			out = append(out, d.from)
		}
	}
	return out
}

// order returns where endpoint at first handled each of ms, counting only
// what at handled; -1 where it did not.
func (c *contractNet) order(at int, ms ...network.Message) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = -1
		tag, frame, _ := nodepkg.EncodeMessage(m)
		k := 0
		for _, d := range c.log {
			if d.at != at {
				continue
			}
			if dt, df, _ := nodepkg.EncodeMessage(d.m); dt == tag && bytes.Equal(df, frame) {
				out[i] = k
				break
			}
			k++
		}
	}
	return out
}

// handled fails t unless endpoint i handled m want[i] times.
func (c *contractNet) handled(t *testing.T, what string, m network.Message, want [endpoints]int) {
	t.Helper()
	var got [endpoints]int
	for i := range got {
		got[i] = len(c.froms(i, m))
	}
	if got != want {
		t.Errorf("%s: handled %v times by endpoints 0–3, want %v", what, got, want)
	}
}

// from fails t unless each endpoint of at handled m once, from sender.
func (c *contractNet) from(t *testing.T, what string, m network.Message, sender int, at ...int) {
	t.Helper()
	for _, i := range at {
		if got := c.froms(i, m); !slices.Equal(got, []int{sender}) {
			t.Errorf("%s: endpoint %d handled it from %v, want once from %d", what, i, got, sender)
		}
	}
}

// simContract is one network.Network serving all four endpoints on
// virtual time: a settle runs every event due, and a wait costs nothing.
func simContract(t *testing.T) *contractNet {
	sim := vtime.New()
	nw := network.New(sim, network.DefaultConfig(), endpoints)
	c := &contractNet{ttl: network.SeenTTL, settle: func() { sim.Run(0) }, wait: func(d time.Duration) {
		sim.After(d, func() {})
		sim.Run(0)
	}, stall: func(int, int) func() { return func() {} }}
	for i := range c.tr {
		c.tr[i] = nw
	}
	c.listen(t)
	return c
}

// tcpContract is four TCP transports on loopback, each on a wall-clock
// scheduler of its own, with a SeenTTL of a second: long against the
// settles a case makes within one, short enough to wait out two. A settle
// lasts until no handler has run for quiet. Connections are dialled on
// first use, so each endpoint first sends every other one a message that
// is never relayed, and the log starts after those.
func tcpContract(t *testing.T) *contractNet {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	const quiet = 150 * time.Millisecond
	cfg := testConfig()
	cfg.seenTTL = time.Second
	c := &contractNet{ttl: cfg.seenTTL, wait: time.Sleep}
	c.settle = func() {
		for n, since := -1, time.Now(); time.Since(since) < quiet; time.Sleep(quiet / 8) {
			c.mu.Lock()
			if len(c.log) != n {
				n, since = len(c.log), time.Now()
			}
			c.mu.Unlock()
		}
	}
	lns, addrs := listenLoopback(t, endpoints)
	var trs [endpoints]*Transport
	for i := range trs {
		trs[i] = newTransport(vtime.New().Realtime(), i, addrs, lns[i], cfg)
		c.tr[i] = trs[i]
	}
	// A stall quarantines the peer at the sender for a moment: the writer
	// parks with its queue intact and sends it on the next connection.
	c.stall = func(from, to int) func() {
		p := trs[from].peers[to]
		until := time.Now().Add(quiet)
		p.mu.Lock()
		p.quarantinedUntil = until
		p.mu.Unlock()
		return func() { time.Sleep(time.Until(until)) }
	}
	c.listen(t)
	for i, tr := range trs {
		done := make(chan struct{})
		tr.Start()
		go func() {
			defer close(done)
			tr.sim.Run(time.Minute)
		}()
		t.Cleanup(func() {
			tr.Close()
			tr.sim.Inject(tr.sim.Stop)
			<-done
		})
		tr.Gossip(i, &nodepkg.TxBatch{})
	}
	c.settle()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.log) != endpoints*(endpoints-1) {
		t.Fatalf("%d deliveries of the warm-up batches, want %d", len(c.log), endpoints*(endpoints-1))
	}
	c.log = nil
	return c
}

// vote is a VoteMsg (relay limit 1) named by tag, under step's budget.
func vote(step uint64, tag string) *nodepkg.VoteMsg {
	return &nodepkg.VoteMsg{Vote: ledger.Vote{Round: 1, Step: step, Value: crypto.HashBytes("contract.vote", []byte(tag))}}
}

// priority is a PriorityGossip (relay limit 2) named by tag, all under one
// budget.
func priority(tag string) *nodepkg.PriorityGossip {
	return &nodepkg.PriorityGossip{M: blockprop.PriorityMsg{Round: 1, BlockHash: crypto.HashBytes("contract.priority", []byte(tag))}}
}

// contractCases are the §8.4 rules both transports keep. A flooded message
// is handled once by each endpoint and relayed only if its handler says so
// and its LimitKey's budget allows; any other message is handled as often
// as it arrives and never relayed; a suppression record lives between one
// and two SeenTTLs. Every handler relays unless a case says otherwise.
var contractCases = []struct {
	name string
	run  func(t *testing.T, c *contractNet)
}{
	{"once", func(t *testing.T, c *contractNet) {
		// Copies return to the origin by every path; it marked the vote
		// seen when it gossiped it.
		v := vote(1, "once")
		c.tr[0].Gossip(0, v)
		c.tr[0].Gossip(0, v)
		c.settle()
		c.handled(t, "a vote gossiped twice", v, [endpoints]int{0, 1, 1, 1})
	}},
	{"relay and from", func(t *testing.T, c *contractNet) {
		c.verdict(func(at int) bool { return at == 1 })
		v := vote(1, "relayed")
		c.tr[0].Unicast(0, 1, v)
		c.settle()
		c.handled(t, "a vote unicast to 1, which alone relays", v, [endpoints]int{0, 1, 1, 1})
		c.from(t, "a vote unicast to 1", v, 0, 1)
		c.from(t, "a vote 1 relayed", v, 1, 2, 3)
	}},
	{"budget", func(t *testing.T, c *contractNet) {
		first, second := vote(3, "first"), vote(3, "second")
		c.tr[0].Unicast(0, 1, first)
		c.settle()
		c.tr[0].Unicast(0, 1, second)
		c.settle()
		c.handled(t, "a vote", first, [endpoints]int{1, 1, 1, 1})
		c.handled(t, "a second vote under its key", second, [endpoints]int{0, 1, 0, 0})
		p := []*nodepkg.PriorityGossip{priority("1"), priority("2"), priority("3")}
		for _, m := range p {
			c.tr[0].Unicast(0, 1, m)
			c.settle()
		}
		c.handled(t, "a priority", p[0], [endpoints]int{1, 1, 1, 1})
		c.handled(t, "a second priority under its key", p[1], [endpoints]int{1, 1, 1, 1})
		c.handled(t, "a third priority under its key", p[2], [endpoints]int{0, 1, 0, 0})
	}},
	{"verdict", func(t *testing.T, c *contractNet) {
		c.verdict(func(at int) bool { return at != 1 })
		v := vote(1, "invalid at 1")
		c.tr[0].Unicast(0, 1, v)
		c.settle()
		c.handled(t, "a vote endpoint 1 refused to relay", v, [endpoints]int{0, 1, 0, 0})
	}},
	{"one hop", func(t *testing.T, c *contractNet) {
		req := &nodepkg.BlockRequest{Hash: crypto.HashBytes("contract.request")}
		c.tr[0].Unicast(0, 1, req)
		c.tr[0].Unicast(0, 1, req)
		batch := &nodepkg.TxBatch{Txns: []*ledger.Transaction{{Amount: 5}}}
		c.tr[0].Gossip(0, batch)
		c.settle()
		c.handled(t, "a block request unicast twice", req, [endpoints]int{0, 2, 0, 0})
		c.from(t, "a gossiped batch", batch, 0, 1, 2, 3)
	}},
	{"replies yield", func(t *testing.T, c *contractNet) {
		// Fills queued to a peer ahead of a vote: the vote waits at most for
		// the fill being sent, and the fills keep their order.
		c.verdict(func(int) bool { return false })
		release := c.stall(0, 1)
		var ms []network.Message
		for i := range 8 {
			fill := &nodepkg.BlockFill{Block: &ledger.Block{Round: uint64(i + 1), PayloadPadding: blockprop.PieceSize}}
			c.tr[0].Unicast(0, 1, fill)
			ms = append(ms, fill)
		}
		v := vote(1, "behind replies")
		c.tr[0].Unicast(0, 1, v)
		release()
		c.settle()
		got := c.order(1, append(ms, v)...)
		fills, at := got[:len(ms)], got[len(ms)]
		if !slices.IsSorted(fills) || fills[0] < 0 {
			t.Errorf("fills handled at places %v, want every one in the order sent", fills)
		}
		if at < 0 || at > fills[1] {
			t.Errorf("the vote was handled at place %d, the fills at %v: want it before the second fill", at, fills)
		}
	}},
	{"seen TTL", func(t *testing.T, c *contractNet) {
		// Two votes flood under two keys. Within a TTL the first's resend
		// is dropped and a new vote under its key is not relayed. Two TTLs
		// on, a tick between them driving rotation, the first's resend and
		// a new vote under the other key are both handled and relayed.
		a, b := vote(6, "a"), vote(6, "b")
		a2, c2 := vote(7, "a2"), vote(7, "c2")
		c.tr[0].Unicast(0, 1, a)
		c.tr[0].Unicast(0, 1, a2)
		c.settle()
		c.tr[0].Unicast(0, 1, a)
		c.tr[0].Unicast(0, 1, b)
		c.settle()
		c.handled(t, "within a TTL, a vote sent twice", a, [endpoints]int{1, 1, 1, 1})
		c.handled(t, "within a TTL, a new vote under a spent key", b, [endpoints]int{0, 1, 0, 0})
		c.handled(t, "a vote under a second key", a2, [endpoints]int{1, 1, 1, 1})

		c.wait(c.ttl)
		c.tr[0].Gossip(0, vote(8, "tick"))
		c.settle()
		c.wait(c.ttl)
		c.tr[0].Unicast(0, 1, a)
		c.tr[0].Unicast(0, 1, c2)
		c.settle()
		c.handled(t, "two TTLs on, the vote sent again", a, [endpoints]int{2, 2, 2, 2})
		c.handled(t, "two TTLs on, a new vote under the second key", c2, [endpoints]int{1, 1, 1, 1})
	}},
}

// TestTransportContract runs each of contractCases on a network of four
// endpoints of the simulator and of the TCP transport. The TCP half skips
// under -short.
func TestTransportContract(t *testing.T) {
	transports := []struct {
		name  string
		build func(*testing.T) *contractNet
	}{{"sim", simContract}, {"tcp", tcpContract}}
	for _, tc := range contractCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, tr := range transports {
				t.Run(tr.name, func(t *testing.T) { tc.run(t, tr.build(t)) })
			}
		})
	}
}
