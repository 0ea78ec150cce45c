package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/ledger/diskstore"
	"algorand/internal/metrics"
	"algorand/internal/node"
	"algorand/internal/params"
	"algorand/internal/realnet"
	"algorand/internal/trace"
	"algorand/internal/txflow"
	"algorand/internal/vtime"
)

// realSpec sizes the loopback workload: n nodes of equal stake. The run
// is scripted in rounds of node 0's chain, not in seconds, so that every
// run covers the same chain positions: a round is λ-bound at about a
// third of a second, whatever the box.
type realSpec struct {
	name        string
	n           int
	rounds      uint64 // chain length at which every node stops
	txPerSec    float64
	lateLimit   time.Duration
	setupBudget time.Duration
}

func realSpecFor(secs int, toy bool) realSpec {
	s := realSpec{name: "realnet-loopback", n: 5, rounds: 3 * uint64(secs), txPerSec: 50,
		lateLimit: 2 * time.Second, setupBudget: setupBudget}
	if toy || s.rounds < 5 {
		s.rounds = 5
	}
	if toy {
		s.setupBudget = toySetupBudget
	}
	return s
}

// realMember is one process-in-a-goroutine: its own wall-clock
// scheduler, TCP transport, archive, registry and tracer, as
// cmd/algorand-node wires them.
type realMember struct {
	id        int
	sim       *vtime.Sim
	transport *realnet.Transport
	archive   *diskstore.Store
	reg       *metrics.Registry
	tracer    *trace.Tracer
	node      *node.Node
	started   time.Time // wall time at which the scheduler's clock read zero
	running   sync.WaitGroup
}

// realCluster is the deployment of one loopback run.
type realCluster struct {
	spec     realSpec
	seed     int64
	dir      string
	prm      params.Params
	provider *crypto.Real
	ids      []crypto.Identity
	genesis  map[crypto.PublicKey]uint64
	seed0    crypto.Digest
	addrs    []string
	members  []*realMember
	servers  []*txflow.Server // submission endpoints of nodes 0 and 1
}

func (c *realCluster) dataDir(id int) string {
	return filepath.Join(c.dir, fmt.Sprintf("node-%d", id))
}

// member builds node id on listener ln with its archive in dir.
func (c *realCluster) member(id int, ln net.Listener, dir string) (*realMember, error) {
	m := &realMember{id: id, sim: vtime.New().Realtime(), reg: metrics.NewRegistry()}
	born := time.Now()
	wall := func() time.Duration { return time.Since(born) }
	var err error
	if m.archive, err = diskstore.Open(dir, diskstore.Options{Metrics: m.reg}); err != nil {
		return nil, fmt.Errorf("opening node %d's archive: %w", id, err)
	}
	tcfg := realnet.DefaultConfig()
	tcfg.Seed, tcfg.Metrics = c.seed, m.reg
	m.transport = realnet.NewWithConfig(m.sim, id, c.addrs, ln, tcfg)
	m.tracer = trace.New(wall, 0)
	cfg := node.Config{Params: c.prm, LedgerCfg: ledger.DefaultConfig(), TxFlowWorkers: 2,
		Metrics: m.reg, Tracer: m.tracer, Archive: m.archive}
	// The submission server calls into the pipeline from its own
	// goroutines, so the pipeline reads the wall clock, not the scheduler's.
	cfg.TxFlow.Now = wall
	m.node = node.New(id, m.sim, m.transport, c.provider, c.ids[id], cfg, c.genesis, c.seed0)
	m.node.StopAfterRound = c.spec.rounds
	return m, nil
}

// run starts the member's scheduler on its own goroutine.
func (m *realMember) run() {
	m.running.Add(1)
	m.started = time.Now()
	go func() {
		defer m.running.Done()
		m.sim.Run(10 * time.Minute)
	}()
}

// on runs fn on the member's scheduler — the only place its node's
// state may be touched while it runs — and waits for it.
func (m *realMember) on(fn func()) error {
	done := make(chan struct{})
	m.sim.Inject(func() { fn(); close(done) })
	select {
	case <-done:
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("node %d's scheduler did not answer within 10 s", m.id)
	}
}

// stop ends the member: scheduler, transport, verification workers,
// archive.
func (m *realMember) stop() error {
	err := m.on(func() { m.node.Halt(); m.sim.Stop() })
	m.running.Wait()
	m.transport.Close()
	m.node.TxFlow().Close()
	if cerr := m.archive.Close(); err == nil {
		err = cerr
	}
	return err
}

// realSetup builds the deployment up to, but not including, the first
// Start: keys, genesis, listeners, data directories with their
// archives, transports, nodes and the two submission endpoints.
func realSetup(spec realSpec, seed int64, dir string) (*realCluster, error) {
	prm := params.Default()
	prm.TauProposer, prm.TauStep, prm.TauFinal = 8, 200, 400
	prm.LambdaPriority = 150 * time.Millisecond
	prm.LambdaStepVar = 100 * time.Millisecond
	prm.LambdaStep = 500 * time.Millisecond
	prm.LambdaBlock = time.Second
	prm.MaxSteps = 12
	prm.BlockSize = 4 << 10
	c := &realCluster{spec: spec, seed: seed, dir: dir, prm: prm, provider: crypto.NewReal(),
		genesis: make(map[crypto.PublicKey]uint64), seed0: crypto.HashUint64("bench.realnet.genesis", uint64(seed))}
	listeners := make([]net.Listener, spec.n)
	for i := 0; i < spec.n; i++ {
		id := c.provider.NewIdentity(crypto.SeedFromUint64(uint64(seed)<<20 | uint64(i)))
		c.ids = append(c.ids, id)
		c.genesis[id.PublicKey()] = 1 << 20
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
		c.addrs = append(c.addrs, ln.Addr().String())
	}
	for i := 0; i < spec.n; i++ {
		m, err := c.member(i, listeners[i], c.dataDir(i))
		if err != nil {
			return nil, err
		}
		c.members = append(c.members, m)
	}
	for i := 0; i < 2; i++ {
		srv, err := txflow.ListenAndServe("127.0.0.1:0", c.members[i].node.TxFlow())
		if err != nil {
			return nil, err
		}
		c.servers = append(c.servers, srv)
	}
	return c, nil
}

// discard releases a deployment that was only built to time set-up,
// data directory included.
func (c *realCluster) discard() error {
	for _, s := range c.servers {
		s.Close()
	}
	var err error
	for _, m := range c.members {
		m.transport.Close()
		if cerr := m.archive.Close(); err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(c.dir); err == nil {
		err = rerr
	}
	return err
}

// wallLoad is the open-loop client: one goroutine, one persistent TCP
// connection to each of the two submission endpoints, a payment every
// 1/rate seconds whether or not the previous one was answered quickly.
type wallLoad struct {
	epoch    time.Time
	sent     map[crypto.Digest]sentTx
	lateness []time.Duration
	stop     atomic.Bool
	done     chan error
}

func (l *wallLoad) start(c *realCluster, spans *spanLog, parent int) {
	l.sent = make(map[crypto.Digest]sentTx)
	l.done = make(chan error, 1)
	l.epoch = time.Now()
	go func() { l.done <- l.loop(c, spans, parent) }()
}

func (l *wallLoad) loop(c *realCluster, spans *spanLog, parent int) error {
	type client struct {
		conn net.Conn
		enc  *json.Encoder
		dec  *json.Decoder
	}
	var clients []client
	for _, s := range c.servers {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			return err
		}
		defer conn.Close()
		clients = append(clients, client{conn, json.NewEncoder(conn), json.NewDecoder(bufio.NewReader(conn))})
	}
	rng := rand.New(rand.NewSource(c.seed))
	nonce := make([]uint64, c.spec.n)
	interval := time.Duration(float64(time.Second) / c.spec.txPerSec)
	for i := 0; !l.stop.Load(); i++ {
		due := time.Duration(i) * interval
		if d := due - time.Since(l.epoch); d > 0 {
			time.Sleep(d)
		}
		from := rng.Intn(c.spec.n)
		to := rng.Intn(c.spec.n - 1)
		if to >= from {
			to++
		}
		tx := &ledger.Transaction{From: c.ids[from].PublicKey(), To: c.ids[to].PublicKey(), Amount: 1, Nonce: nonce[from]}
		tx.Sign(c.ids[from])
		e := i % len(clients)
		l.lateness = append(l.lateness, time.Since(l.epoch)-due)
		sp := spans.begin(parent, "txflow.tcp-submit", ref(c.spec.name, 0, 0))
		var reply struct {
			Ok    bool   `json:"ok"`
			Error string `json:"error"`
		}
		err := clients[e].enc.Encode(txflow.FromTransaction(tx))
		if err == nil {
			err = clients[e].dec.Decode(&reply)
		}
		spans.end(sp)
		if err != nil {
			return fmt.Errorf("submitting over TCP: %w", err)
		}
		l.sent[tx.ID()] = sentTx{due: due, node: e}
		if reply.Ok {
			nonce[from]++
		}
	}
	return nil
}

// runRealnet executes the loopback workload.
func runRealnet(spec realSpec, seed int64, outDir string, spans *spanLog, profile bool) (*run, error) {
	r := newRun()
	root := spans.begin(0, "workload", ref(spec.name, 0, 0))
	defer spans.end(root)

	c, setup, err := timeSetups(spec.setupBudget, func(rep int) (*realCluster, error) {
		sp := spans.begin(root, "realnet.setup", ref(spec.name, rep, 0))
		defer spans.end(sp)
		return realSetup(spec, seed, filepath.Join(outDir, fmt.Sprintf("data-%d", rep)))
	}, (*realCluster).discard)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.e2e["setup_s"] = setup

	// The measured phase: start everything, load, wind down.
	cost, err := startMeter(profile)
	if err != nil {
		return nil, err
	}
	phase := spans.begin(root, "realnet.run", ref(spec.name, 0, 0))
	started := time.Now()
	deadline := time.Duration(spec.rounds)*time.Second + time.Minute
	for _, m := range c.members {
		m.transport.Start()
		m.node.Start()
		m.run()
	}
	load := &wallLoad{}
	load.start(c, spans, phase)

	// waitFor polls cond on m's own scheduler until it holds.
	waitFor := func(m *realMember, what string, cond func() bool) error {
		for ok := false; !ok; {
			if time.Since(started) > deadline {
				return fmt.Errorf("node %d: %s did not happen within %v", m.id, what, deadline)
			}
			time.Sleep(5 * time.Millisecond)
			if err := m.on(func() { ok = cond() }); err != nil {
				return err
			}
		}
		return nil
	}
	// The load stops two rounds before the end, so every admitted payment
	// has time to commit.
	n0 := c.members[0].node
	err = waitFor(c.members[0], fmt.Sprintf("round %d", spec.rounds-2), func() bool { return n0.Ledger().ChainLength() >= spec.rounds-2 })
	load.stop.Store(true)
	if lerr := <-load.done; err == nil {
		err = lerr
	}
	for _, m := range c.members {
		if err == nil {
			err = waitFor(m, "the last round", m.node.Done)
		}
	}
	spans.end(phase)
	if err != nil {
		return nil, err
	}
	last := spec.rounds
	if err := cost.stop(r, last); err != nil {
		return nil, err
	}
	var frames, sentBytes, drops, redials uint64
	for _, m := range c.members {
		for _, ps := range m.transport.Stats().Peers {
			frames += ps.FramesOut
			sentBytes += ps.BytesOut
			drops += ps.QueueDrops
			redials += ps.Redials
		}
	}
	r.layer["realnet.frames_per_round"] = float64(frames) / float64(last)
	r.layer["realnet.bytes_per_round"] = float64(sentBytes) / float64(last)
	r.layer["realnet.queue_drops"] = float64(drops)
	r.layer["realnet.redials"] = float64(redials)

	// Everything stops; from here the nodes' state is read directly.
	for _, m := range c.members {
		if err := m.stop(); err != nil {
			return nil, fmt.Errorf("stopping node %d: %w", m.id, err)
		}
	}
	for _, s := range c.servers {
		s.Close()
	}

	var views []nodeView
	endOf := make([]map[uint64]time.Duration, spec.n)
	for i, m := range c.members {
		views = append(views, nodeView{id: m.id, stats: m.node.Stats, tracer: m.tracer, reg: m.reg})
		endOf[i] = roundEnds(m.node.Stats)
	}
	const firstMeasured = 2
	roundTimings(r, views, firstMeasured, last, true)

	// Payments: due time → end of the committing round on the node whose
	// endpoint took the submission, both brought onto one wall clock.
	l0 := n0.Ledger()
	if l0.ChainLength() != last {
		return nil, fmt.Errorf("node 0 stopped at round %d, want %d", l0.ChainLength(), last)
	}
	if len(n0.Stats) < int(last) {
		return nil, fmt.Errorf("node 0 closed %d of %d rounds", len(n0.Stats), last)
	}
	window := endOf[0][last] - n0.Stats[firstMeasured-1].Start
	err = paymentMetrics(r, l0, firstMeasured, load.sent, spec.lateLimit, window,
		func(node int, rd uint64) (time.Duration, bool) {
			end, ok := endOf[node][rd]
			return c.members[node].started.Add(end).Sub(load.epoch), ok
		})
	if err != nil {
		return nil, err
	}
	loadMetrics(r, spec.txPerSec, load.lateness, n0.TxFlow().Stats())
	as := c.members[0].archive.Stats()
	r.layer["diskstore.appends_per_round"] = float64(as.Appends) / float64(last)
	r.layer["diskstore.bytes_per_round"] = float64(dirBytes(c.dataDir(0))) / float64(last)
	for _, names := range [][]string{networkReadouts, recoveryReadouts} {
		for _, name := range names {
			r.layer[name] = 0 // no simulated network and no crash in the socket run
		}
	}

	gate := spans.begin(root, "gate", ref(spec.name, 0, last))
	err = gateRealnet(c)
	spans.end(gate)
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	return r, nil
}

// gateRealnet is the correctness gate of the socket run: one block per
// round across all nodes, one head, node 0's chain re-validated from
// genesis under real crypto, and every archive re-opened offline and
// compared with the live chain.
func gateRealnet(c *realCluster) error {
	l0 := c.members[0].node.Ledger()
	byRound := make(map[uint64]crypto.Digest)
	for _, m := range c.members {
		if got := m.node.Ledger().HeadHash(); got != l0.HeadHash() {
			return fmt.Errorf("node %d head %v (round %d) differs from node 0's %v (round %d)",
				m.id, got, m.node.Ledger().ChainLength(), l0.HeadHash(), l0.ChainLength())
		}
		for _, st := range m.node.Stats {
			if prev, ok := byRound[st.Round]; ok && prev != st.Value {
				return fmt.Errorf("round %d: node %d committed %v, others %v", st.Round, m.id, st.Value, prev)
			}
			byRound[st.Round] = st.Value
		}
		if n := m.node.PersistErrors(); n != 0 {
			return fmt.Errorf("node %d has %d commits that are not durable", m.id, n)
		}
	}
	if err := revalidate(c.provider, c.prm, ledger.DefaultConfig(), c.genesis, c.seed0, l0); err != nil {
		return fmt.Errorf("re-validating node 0's chain: %w", err)
	}
	for id := range c.members {
		ds, err := diskstore.Open(c.dataDir(id), diskstore.Options{})
		if err != nil {
			return fmt.Errorf("re-opening node %d's archive: %w", id, err)
		}
		err = sameChain(ds.Recovered(), l0)
		ds.Close()
		if err != nil {
			return fmt.Errorf("node %d's archive: %w", id, err)
		}
	}
	return nil
}
