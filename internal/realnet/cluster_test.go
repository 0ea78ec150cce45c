package realnet

import (
	"net"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	nodepkg "algorand/internal/node"
	"algorand/internal/params"
	"algorand/internal/vtime"
)

// soakScale reads the REALNET_SOAK env knob (like chaos's
// CHAOS_SCENARIOS): CI and soak runs scale iteration counts up with it.
func soakScale() int {
	if s := os.Getenv("REALNET_SOAK"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 1
}

// fast wall-clock parameters so tests finish in a few seconds.
func realParams() params.Params {
	p := params.Default()
	p.TauProposer = 6
	p.TauStep = 30
	p.TauFinal = 60
	p.LambdaPriority = 150 * time.Millisecond
	p.LambdaStepVar = 100 * time.Millisecond
	p.LambdaBlock = time.Second
	p.LambdaStep = 500 * time.Millisecond
	p.MaxSteps = 12
	p.BlockSize = 8 << 10
	return p
}

// testConfig returns transport tuning suited to fast loopback tests:
// quick redials and short deadlines, so healing happens on the test's
// timescale rather than production's.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.DialTimeout = time.Second
	cfg.RedialMin = 25 * time.Millisecond
	cfg.RedialMax = 500 * time.Millisecond
	cfg.WriteTimeout = 2 * time.Second
	cfg.IdleTimeout = 10 * time.Second
	cfg.KeepaliveInterval = 2 * time.Second
	return cfg
}

// realCluster boots n full Algorand nodes, each with its own wall-clock
// scheduler and TCP transport on 127.0.0.1. Nodes can be crashed,
// restarted on the same address, and run under fault-injecting
// listeners/dialers.
type realCluster struct {
	t      *testing.T
	n      int
	rounds uint64
	prm    params.Params
	// cfg returns node i's transport config (fault-injecting dialers go
	// here); nil means testConfig().
	cfg func(i int) Config
	// wrapListener decorates node i's listener (inbound faults); nil
	// means identity.
	wrapListener func(i int, ln net.Listener) net.Listener
	// wrapHandler decorates node i's message handler (observers and
	// scripted misbehaviour); nil means the node's own.
	wrapHandler func(i int, nd *nodepkg.Node) network.Handler

	addrs      []string
	sims       []*vtime.Sim
	transports []*Transport
	nodes      []*nodepkg.Node
	done       []chan struct{} // closed when node i's sim.Run returns
	provider   crypto.Provider
	ids        []crypto.Identity
	genesis    map[crypto.PublicKey]uint64
	seed0      crypto.Digest
	nodeCfg    nodepkg.Config

	// pendingListeners carries the pre-bound listeners from construction
	// to startAll (so option hooks set after newRealCluster still apply).
	pendingListeners []net.Listener

	// doneCount tracks how many nodes have reached the round target;
	// watchers keep their schedulers alive until everyone has, so a
	// restarted straggler can still sync blocks from finished peers.
	doneCount atomic.Int32
}

func newRealCluster(t *testing.T, n int, rounds uint64) *realCluster {
	c := &realCluster{
		t:        t,
		n:        n,
		rounds:   rounds,
		prm:      realParams(),
		provider: crypto.NewReal(),
		genesis:  make(map[crypto.PublicKey]uint64),
		seed0:    crypto.HashBytes("realnet-genesis"),
	}
	c.sims = make([]*vtime.Sim, n)
	c.transports = make([]*Transport, n)
	c.nodes = make([]*nodepkg.Node, n)
	c.done = make([]chan struct{}, n)

	// Bind ephemeral ports first to build the address book.
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		c.addrs = append(c.addrs, ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		c.ids = append(c.ids, c.provider.NewIdentity(crypto.SeedFromUint64(uint64(7000+i))))
		c.genesis[c.ids[i].PublicKey()] = 10
	}
	c.nodeCfg = nodepkg.Config{Params: c.prm, LedgerCfg: ledger.DefaultConfig()}
	// Defer transport/node construction until startAll so tests can
	// install cfg/wrapListener hooks first; stash the listeners.
	c.pendingListeners = listeners
	return c
}

func (c *realCluster) transportConfig(i int) Config {
	if c.cfg != nil {
		return c.cfg(i)
	}
	return testConfig()
}

// build constructs sim+transport+node for slot i on the given listener.
func (c *realCluster) build(i int, ln net.Listener) {
	if c.wrapListener != nil {
		ln = c.wrapListener(i, ln)
	}
	sim := vtime.New().Realtime()
	tr := NewWithConfig(sim, i, c.addrs, ln, c.transportConfig(i))
	nd := nodepkg.New(i, sim, tr, c.provider, c.ids[i], c.nodeCfg, c.genesis, c.seed0)
	nd.StopAfterRound = c.rounds
	if c.wrapHandler != nil {
		tr.SetHandler(i, c.wrapHandler(i, nd))
	}
	c.sims[i] = sim
	c.transports[i] = tr
	c.nodes[i] = nd
	c.done[i] = make(chan struct{})
}

// watch spawns the in-scheduler watcher that stops node i's sim once
// its chain reaches the target — but only after every node has: a
// finished node must stay up to serve blocks to a lagging or restarted
// peer (the paper's network-healing assumption cuts both ways).
func (c *realCluster) watch(i int) {
	nd, sim := c.nodes[i], c.sims[i]
	rounds, n := c.rounds, int32(c.n)
	sim.Spawn("watcher", func(p *vtime.Proc) {
		reached := false
		for {
			if !reached && nd.Ledger().ChainLength() >= rounds {
				reached = true
				c.doneCount.Add(1)
			}
			if reached && c.doneCount.Load() >= n {
				// Serve any in-flight final fills, then stop.
				p.Sleep(500 * time.Millisecond)
				p.Sim().Stop()
				return
			}
			p.Sleep(100 * time.Millisecond)
		}
	})
}

// runAsync launches node i's scheduler in a goroutine; done[i] closes
// when it returns.
func (c *realCluster) runAsync(i int, deadline time.Duration) {
	sim, ch := c.sims[i], c.done[i]
	go func() {
		defer close(ch)
		sim.Run(deadline)
	}()
}

// startAll builds and starts every node and returns; callers wait via
// waitAll (or orchestrate crashes in between).
func (c *realCluster) startAll(deadline time.Duration) {
	for i := 0; i < c.n; i++ {
		if c.pendingListeners[i] != nil {
			c.build(i, c.pendingListeners[i])
		}
	}
	for i := 0; i < c.n; i++ {
		if c.nodes[i] == nil {
			continue // a late joiner (see joinLater)
		}
		c.transports[i].Start()
		c.nodes[i].Start()
		c.watch(i)
		c.runAsync(i, deadline)
	}
}

// joinLater keeps slot i out of startAll: a token-stake account (its
// offline money must not cost the others a quorum) whose address nobody
// listens on until a test brings it up through restartFrom.
func (c *realCluster) joinLater(i int) {
	c.genesis[c.ids[i].PublicKey()] = 1
	c.pendingListeners[i].Close()
	c.pendingListeners[i] = nil
}

// waitAll blocks until every node's scheduler has returned, then closes
// the transports.
func (c *realCluster) waitAll() {
	for i := 0; i < c.n; i++ {
		<-c.done[i]
	}
	for _, tr := range c.transports {
		if tr != nil {
			tr.Close()
		}
	}
}

// run is startAll+waitAll for tests without mid-run orchestration.
func (c *realCluster) run(deadline time.Duration) {
	c.startAll(deadline)
	c.waitAll()
}

// crash kills node i the way a process dies: the node goes silent, its
// scheduler stops, and its sockets close. The node's Store survives
// (the machine's disk). Safe to call from the test goroutine.
func (c *realCluster) crash(i int) {
	sim, nd := c.sims[i], c.nodes[i]
	sim.Inject(func() {
		nd.Halt()
		sim.Stop()
	})
	<-c.done[i]
	c.transports[i].Close()
}

// restart replaces crashed node i with a fresh process on the same
// address: it rebinds the listener and brings the replacement up
// through Rejoin from the crashed node's archive (mirrors
// internal/sim.Cluster.RestartNode over real sockets).
func (c *realCluster) restart(i int, syncBudget, deadline time.Duration) {
	c.restartFrom(i, c.nodes[i].Store(), syncBudget, deadline)
}

// restartFrom is restart with an explicit archive to replay; nil is a
// replacement that lost its disk and takes everything from peers.
func (c *realCluster) restartFrom(i int, src *ledger.Store, syncBudget, deadline time.Duration) {
	c.build(i, c.rebind(i))
	c.transports[i].Start()
	if _, err := c.nodes[i].Rejoin(src, syncBudget); err != nil {
		c.t.Fatalf("restart node %d: archive replay: %v", i, err)
	}
	c.watch(i)
	c.runAsync(i, deadline)
}

// rebind re-listens on node i's original address, retrying briefly (the
// old socket may still be tearing down).
func (c *realCluster) rebind(i int) net.Listener {
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		var ln net.Listener
		ln, err = net.Listen("tcp", c.addrs[i])
		if err == nil {
			return ln
		}
		time.Sleep(50 * time.Millisecond)
	}
	c.t.Fatalf("rebind %s: %v", c.addrs[i], err)
	return nil
}

// checkAgreement asserts that all completed chains agree block for
// block and that at least minDone nodes reached the full round target.
func (c *realCluster) checkAgreement(minDone int) {
	c.t.Helper()
	done := 0
	for i := 0; i < c.n; i++ {
		if c.nodes[i].Ledger().ChainLength() >= c.rounds {
			done++
		}
	}
	if done < minDone {
		c.t.Fatalf("only %d/%d nodes completed %d rounds", done, c.n, c.rounds)
	}
	ref := c.nodes[0].Ledger()
	for i := 1; i < c.n; i++ {
		l := c.nodes[i].Ledger()
		upTo := l.ChainLength()
		if ref.ChainLength() < upTo {
			upTo = ref.ChainLength()
		}
		for r := uint64(1); r <= upTo; r++ {
			a, _ := ref.BlockAt(r)
			b, _ := l.BlockAt(r)
			if a.Hash() != b.Hash() {
				c.t.Fatalf("round %d: chain mismatch between node 0 and %d", r, i)
			}
		}
	}
}

// --- transport-only fixtures -------------------------------------------------

// miniTransport is a transport with a counting handler and a running
// realtime scheduler, for tests that exercise the transport without a
// full node on top.
type miniTransport struct {
	tr    *Transport
	sim   *vtime.Sim
	count func() int
}

// newMiniAt builds one transport at slot id of addrs with a counting
// handler, starts it, and runs its scheduler for the horizon.
func newMiniAt(t *testing.T, id int, addrs []string, ln net.Listener, conf Config, horizon time.Duration) *miniTransport {
	t.Helper()
	sim := vtime.New().Realtime()
	tr := NewWithConfig(sim, id, addrs, ln, conf)
	var got []network.Message
	ch := make(chan network.Message, 4096)
	tr.SetHandler(id, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
		select {
		case ch <- m:
		default:
		}
		return network.Verdict{Relay: true}
	}))
	// count drains the delivery channel; call it from one goroutine only
	// (the test's).
	count := func() int {
		for {
			select {
			case m := <-ch:
				got = append(got, m)
				continue
			default:
			}
			break
		}
		return len(got)
	}
	tr.Start()
	go sim.Run(horizon)
	t.Cleanup(tr.Close)
	return &miniTransport{tr: tr, sim: sim, count: count}
}

// newMiniNet builds n connected transports with counting handlers and
// starts their schedulers for the given horizon.
func newMiniNet(t *testing.T, n int, cfg func(i int) Config, horizon time.Duration) []*miniTransport {
	t.Helper()
	var lns []net.Listener
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	out := make([]*miniTransport, n)
	for i := 0; i < n; i++ {
		conf := testConfig()
		if cfg != nil {
			conf = cfg(i)
		}
		out[i] = newMiniAt(t, i, addrs, lns[i], conf, horizon)
	}
	return out
}
