package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/sim"
	"algorand/internal/vtime"
)

// victim is the node crash-rejoin takes down and brings back: the one
// whose rejoin and cold restore are timed. It is never a payment
// sender, so no submission lands on a node that is down, and holds a
// token stake, so consensus does not depend on it.
const victim = 3

// simSpec sizes one virtual-time workload.
type simSpec struct {
	name       string
	n          int
	realCrypto bool
	blockSize  int
	txPerSec   float64 // open-loop payments per virtual second
	lateLimit  time.Duration
	// lambdaBlock and lambdaStep override the block-wait and BA⋆ step
	// timeouts (0 = the paper's 1 min and 20 s).
	lambdaBlock, lambdaStep time.Duration
	// rounds is the chain length at which every node stops.
	rounds uint64
	// crashAt > 0 makes the run a fault run: every node keeps an archive,
	// the victim is crashed as soon as its own chain reaches crashAt, so
	// its disk always holds exactly that many rounds, restarted when
	// node 0's chain reaches restartAt, and its archive is restored
	// offline coldRestores times afterwards. The other workloads run in
	// memory and undisturbed.
	crashAt, restartAt uint64
	checkpointEvery    uint64
	coldRestores       int
	setupBudget        time.Duration
}

// faulty reports whether the run crashes and restarts the victim.
func (s simSpec) faulty() bool { return s.crashAt > 0 }

// sentTx is one payment the load generator attempted.
type sentTx struct {
	due  time.Duration // when the open loop scheduled it
	node int           // the node it was submitted to
}

// simLoad is the benchmark's own open-loop payment generator: it runs
// as one process on the simulation, submits each payment to its
// sender's own node at the moment it falls due, and never waits for a
// reply before sending the next.
type simLoad struct {
	sent     map[crypto.Digest]sentTx
	lateness []time.Duration
}

func (l *simLoad) start(c *sim.Cluster, spec simSpec, seed int64, spans *spanLog, parent int) {
	l.sent = make(map[crypto.Digest]sentTx)
	rng := rand.New(rand.NewSource(seed))
	var senders []int
	for i := 0; i < spec.n; i++ {
		if !spec.faulty() || i != victim {
			senders = append(senders, i)
		}
	}
	nonce := make([]uint64, spec.n)
	interval := time.Duration(float64(time.Second) / spec.txPerSec)
	// The generator stops two rounds before the end, so every admitted
	// payment has time to commit.
	stopAt := spec.rounds - 2
	c.Sim.Spawn("bench-loadgen", func(p *vtime.Proc) {
		for i := 0; !c.Sim.Stopped(); i++ {
			due := time.Duration(i) * interval
			if d := due - p.Now(); d > 0 {
				p.Sleep(d)
			}
			if c.Nodes[0].Ledger().ChainLength() >= stopAt {
				return
			}
			from := senders[rng.Intn(len(senders))]
			to := rng.Intn(spec.n - 1)
			if to >= from {
				to++
			}
			tx := &ledger.Transaction{
				From:   c.Identity(from).PublicKey(),
				To:     c.Identity(to).PublicKey(),
				Amount: 1,
				Nonce:  nonce[from],
			}
			tx.Sign(c.Identity(from))
			l.lateness = append(l.lateness, p.Now()-due)
			sp := spans.begin(parent, "node.SubmitTx", ref(spec.name, 0, c.Nodes[from].Ledger().NextRound()))
			err := c.Nodes[from].SubmitTx(tx)
			spans.end(sp)
			l.sent[tx.ID()] = sentTx{due: due, node: from}
			if err == nil {
				nonce[from]++
			}
		}
	})
}

// simSetup builds the deployment up to, but not including, the first
// Start: identities, genesis, the simulated network, every node and, on
// the fault run, every node's archive.
func simSetup(spec simSpec, seed int64, dir string) *sim.Cluster {
	cfg := sim.DefaultConfig(spec.n, spec.rounds)
	cfg.Params.TauProposer = 8
	if cfg.Params.TauProposer > uint64(spec.n)/2 {
		cfg.Params.TauProposer = uint64(spec.n)/2 + 1
	}
	cfg.Params.TauStep = 200
	cfg.Params.TauFinal = 400
	cfg.Params.BlockSize = spec.blockSize
	if spec.lambdaBlock > 0 {
		cfg.Params.LambdaBlock = spec.lambdaBlock
	}
	if spec.lambdaStep > 0 {
		cfg.Params.LambdaStep = spec.lambdaStep
	}
	cfg.Seed = seed
	// Every sender's stake funds the whole payment stream.
	cfg.Weights = make([]uint64, spec.n)
	for i := range cfg.Weights {
		cfg.Weights[i] = 1 << 20
	}
	cfg.UseRealCrypto = spec.realCrypto
	cfg.ChargeCrypto = !spec.realCrypto
	if spec.faulty() {
		// The victim's stake is a token one: sortition then never selects
		// it, so its crash cannot take a round's chosen proposer or a
		// committee seat with it, which on one seed in ten cost a round its
		// block.
		cfg.Weights[victim] = 1 << 10
		cfg.CheckpointInterval = spec.checkpointEvery
		cfg.DataDir = dir
	}
	return sim.NewCluster(cfg)
}

// crashScript takes the victim down and brings it back on the
// simulation's own clock, and records how the rejoin went.
type crashScript struct {
	rejoin   time.Duration // restart → the victim's chain reaches the head seen at restart
	restored uint64        // rounds the restart took from the victim's own disk
	err      error
}

func (cs *crashScript) start(c *sim.Cluster, spec simSpec, spans *spanLog, parent int) {
	c.Sim.Spawn("bench-crash-script", func(p *vtime.Proc) {
		chain := func() uint64 { return c.Nodes[0].Ledger().ChainLength() }
		for c.Nodes[victim].Ledger().ChainLength() < spec.crashAt {
			p.Sleep(20 * time.Millisecond)
		}
		c.CrashNode(victim)
		for chain() < spec.restartAt {
			p.Sleep(20 * time.Millisecond)
		}
		head := chain()
		restartAt := p.Now()
		sp := spans.begin(parent, "sim.RestartNode", ref(spec.name, 0, head))
		_, cs.restored, cs.err = c.RestartNode(victim, 2*time.Minute)
		spans.end(sp)
		if cs.err != nil {
			return
		}
		for c.Nodes[victim].Ledger().ChainLength() < head {
			if p.Now()-restartAt > 30*time.Minute {
				cs.err = fmt.Errorf("victim did not reach round %d within 30 virtual minutes", head)
				return
			}
			p.Sleep(5 * time.Millisecond)
		}
		cs.rejoin = p.Now() - restartAt
	})
}

// runSim executes one virtual-time workload: set-up (timed, repeated),
// the run with its load generator and, on the fault run, its crash
// script, the correctness gate, and the offline cold restores.
func runSim(spec simSpec, seed int64, outDir string, spans *spanLog, profile bool) (*run, error) {
	r := newRun()
	root := spans.begin(0, "workload", ref(spec.name, 0, 0))
	defer spans.end(root)

	// Set-up, many times over for a steady reading; the last one runs.
	c, setup, err := timeSetups(spec.setupBudget, func(rep int) (*sim.Cluster, error) {
		sp := spans.begin(root, "sim.NewCluster", ref(spec.name, rep, 0))
		defer spans.end(sp)
		return simSetup(spec, seed, filepath.Join(outDir, fmt.Sprintf("data-%d", rep))), nil
	}, func(c *sim.Cluster) error {
		// A discarded build takes its data directory with it.
		err := c.CloseArchives()
		if c.Cfg.DataDir != "" {
			if rerr := os.RemoveAll(c.Cfg.DataDir); err == nil {
				err = rerr
			}
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.e2e["setup_s"] = setup

	// The measured phase. The load generator and the crash script run
	// inside Cluster.Run, so their spans are its children.
	cost, err := startMeter(profile)
	if err != nil {
		return nil, err
	}
	runSpan := spans.begin(root, "sim.Cluster.Run", ref(spec.name, 0, 0))
	load := &simLoad{}
	load.start(c, spec, seed, spans, runSpan)
	var script crashScript
	if spec.faulty() {
		script.start(c, spec, spans, runSpan)
	}
	c.Run()
	spans.end(runSpan)
	chainRounds := c.Nodes[0].Ledger().ChainLength()
	if err := cost.stop(r, chainRounds); err != nil {
		return nil, err
	}
	if script.err != nil {
		return nil, fmt.Errorf("crash script: %w", script.err)
	}
	if spec.faulty() && script.rejoin == 0 {
		return nil, fmt.Errorf("the victim never rejoined")
	}
	if chainRounds != spec.rounds {
		return nil, fmt.Errorf("node 0 stopped at round %d, want %d", chainRounds, spec.rounds)
	}

	// Live nodes: everyone the run did not crash. Round 1 is warm-up.
	var views []nodeView
	endOf := make(map[int]map[uint64]time.Duration)
	for i, n := range c.Nodes {
		if spec.faulty() && i == victim {
			continue
		}
		views = append(views, nodeView{id: i, stats: n.Stats, tracer: c.Tracer(i), reg: c.Registry(i)})
		endOf[i] = roundEnds(n.Stats)
	}
	const firstMeasured = 2
	roundTimings(r, views, firstMeasured, chainRounds, false)

	// Payments: due time → end of the committing round on the sender's node.
	l0 := c.Nodes[0].Ledger()
	window := endOf[0][chainRounds] - c.Nodes[0].Stats[firstMeasured-1].Start
	err = paymentMetrics(r, l0, firstMeasured, load.sent, spec.lateLimit, window,
		func(node int, rd uint64) (time.Duration, bool) { return endOf[node][rd], true })
	if err != nil {
		return nil, err
	}
	loadMetrics(r, spec.txPerSec, load.lateness, c.Nodes[0].TxFlow().Stats())

	// The simulated gossip network. Rates are over the time node 0 took
	// to finish, not over the simulation's own end, which on the fault run
	// comes after the restarted victim has caught up.
	var dups, recvd int64
	for i := range c.Nodes {
		ns := c.Net.NodeStats(i)
		dups += ns.DupsDropped
		recvd += ns.MsgsReceived
	}
	r.layer["network.msgs_per_round"] = float64(c.Net.TotalMsgs()) / float64(chainRounds)
	r.layer["network.bytes_per_round"] = float64(c.Net.TotalBytes()) / float64(chainRounds)
	r.layer["network.dup_drop_share"] = ratio(float64(dups), float64(dups+recvd))
	r.layer["network.lost_msgs"] = float64(c.Net.TotalLost())
	r.layer["network.mbps_per_node_p50"] = median(c.BandwidthPerNode(endOf[0][chainRounds])) / 1e6
	for _, name := range realnetReadouts {
		r.layer[name] = 0 // no sockets in a simulated run
	}

	if err := c.CloseArchives(); err != nil {
		return nil, fmt.Errorf("closing archives: %w", err)
	}
	gate := spans.begin(root, "gate", ref(spec.name, 0, chainRounds))
	err = gateSim(c)
	spans.end(gate)
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	if !spec.faulty() {
		// Nothing is durable and nothing crashed in an in-memory run.
		for _, names := range [][]string{diskReadouts, recoveryReadouts} {
			for _, name := range names {
				r.layer[name] = 0
			}
		}
		return r, nil
	}

	// The fault run's recovery side: the scripted restart, node 0's archive
	// as the run left it, and the victim's restored offline.
	r.layer["node.rejoin_s"] = script.rejoin.Seconds()
	r.layer["node.restore_rounds_replayed"] = float64(script.restored)
	as := c.Archive(0).Stats()
	r.layer["diskstore.appends_per_round"] = float64(as.Appends) / float64(chainRounds)
	r.layer["diskstore.bytes_per_round"] = float64(dirBytes(filepath.Join(c.Cfg.DataDir, "node-0"))) / float64(chainRounds)
	cold, err := coldRestores(restoreReps(spec.coldRestores, profile), c, l0.HeadHash(), spans, root, spec.name)
	if err != nil {
		return nil, fmt.Errorf("cold restore: %w", err)
	}
	r.layer["node.cold_restore_ms"] = quantile(seconds(cold), coldRestoreQuantile) * 1e3
	r.samples["cold_restore"] = len(cold)
	return r, nil
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}
