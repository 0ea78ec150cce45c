package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/params"
	"algorand/internal/sim"
	"algorand/internal/txflow"
	"algorand/internal/vtime"
)

// livenessBudget is how much virtual time a run gets after its last
// fault clears. It covers the worst §8.2 path — a failed in-flight
// round, the sync probe, the sleep to the next recovery checkpoint,
// a full recovery attempt, and re-running every remaining round — with
// slack. Liveness is asserted *within this window* (§3's weak-synchrony
// promise: progress resumes within bounded time of the network healing).
const livenessBudget = 15 * time.Minute

// recoveryInterval for chaos runs: short enough that §8.2 recovery
// fires several times inside the liveness window.
const recoveryInterval = 90 * time.Second

// Result is a completed chaos run, ready for invariant checking.
type Result struct {
	Scenario Scenario
	Cluster  *sim.Cluster
	Elapsed  time.Duration
	// HealAt is the virtual time the last fault cleared; HealChains[i]
	// is node i's chain length at that moment (the liveness baseline).
	HealAt     time.Duration
	HealChains []uint64
	// Down marks nodes crashed without restart; Byzantine marks §10.4
	// equivocators. Both are exempt from liveness (but not safety —
	// whatever they committed while honest must still be consistent).
	Down      map[int]bool
	Byzantine map[int]bool
	// RestartErrs records archive-restore failures during scheduled
	// restarts (always violations: scenarios never tamper archives).
	RestartErrs []error
	// CheckParams are the weakest protocol parameters any node ran with
	// during the run — certificates are re-verified against these.
	CheckParams params.Params
	// DataDir is the scratch directory holding every node's on-disk
	// archive for Durable scenarios ("" otherwise). Call Cleanup when
	// done with the Result to release it.
	DataDir string
	// Grind records the seed-grinding attackers' publish/withhold
	// decisions (nil when the scenario has no grinders).
	Grind *sim.GrindStats
	// ChurnEvents counts crash/restart cycles driven by the continuous
	// churn process (0 when the scenario has no churn).
	ChurnEvents int
	// TxCfg is the effective per-node ingestion configuration — the
	// degradation invariant checks queue bounds against it.
	TxCfg txflow.Config
}

// Cleanup closes any open archives and removes the Durable scratch
// directory. Safe to call on non-durable results and more than once.
func (r *Result) Cleanup() {
	if r.DataDir == "" {
		return
	}
	r.Cluster.CloseArchives()
	os.RemoveAll(r.DataDir)
}

// Run compiles the scenario onto a fresh cluster and runs it to
// completion or the liveness horizon.
func Run(s Scenario) *Result { return RunWith(s, nil) }

// RunWith is Run with a pre-start hook, letting tests sabotage the
// deployment (e.g. install broken parameters on one node) before
// virtual time starts.
func RunWith(s Scenario, preStart func(c *sim.Cluster)) *Result {
	cfg := sim.DefaultConfig(s.Nodes, s.Rounds)
	// The accelerated timeouts every node test uses: rounds complete in
	// a few virtual seconds, so fault windows of tens of seconds span
	// multiple rounds.
	cfg.Params.LambdaPriority = time.Second
	cfg.Params.LambdaStepVar = time.Second
	cfg.Params.LambdaBlock = 5 * time.Second
	cfg.Params.LambdaStep = 2 * time.Second
	cfg.Params.MaxSteps = 8
	cfg.Params.BlockSize = 4096
	if s.BlockSize > 0 {
		cfg.Params.BlockSize = s.BlockSize
	}
	if s.LambdaBlock > 0 {
		cfg.Params.LambdaBlock = s.LambdaBlock
	}
	cfg.RecoveryInterval = recoveryInterval
	cfg.Seed = s.Seed
	cfg.CheckpointInterval = s.Checkpoint

	honest := cfg.Params
	if s.TStepOverride > 0 {
		cfg.Params.TStep = s.TStepOverride
	}
	if len(s.Grinders) > 0 {
		// Grinding only biases sortition when the seed chain reaches it:
		// refresh every round (§5.2 with R = 1) so the publish/withhold
		// choice over round r's seed matters at round r+1.
		cfg.LedgerCfg.SeedRefreshInterval = 1
	}
	cfg.Weights = s.StakeWeights()
	if s.Durable && len(s.Diskless) > 0 {
		mask := make([]bool, s.Nodes)
		for _, i := range s.Diskless {
			if i >= 0 && i < s.Nodes {
				mask[i] = true
			}
		}
		cfg.Diskless = mask
	}
	if s.TxLoad > 0 {
		// Deliberately small pool bounds: at these rates the lowest-fee
		// eviction path fires constantly, which is the point.
		cfg.TxFlow = txflow.Config{Shards: 4, MaxTxs: 256, MaxBytes: 64 << 10, MaxPerSender: 48}
	}
	if s.Overload {
		// Overload scenarios shrink admission hard below the offered
		// TxLoad: pool, bytes, per-sender caps and a rate limiter all
		// saturate, and the degradation invariant demands the pipeline
		// shed with typed rejects instead of growing without bound.
		cfg.TxFlow = txflow.Config{
			Shards: 4, MaxTxs: 96, MaxBytes: 24 << 10, MaxPerSender: 12,
			RateLimit: 10, RateWindow: time.Second,
		}
	}
	healAt := s.LastFaultClear()
	cfg.Horizon = healAt + livenessBudget
	if s.Durable {
		// Every node journals commits to a WAL archive under a scratch
		// dir; crashes keep the disk, so restarts recover through the
		// full diskstore scan rather than the crashed process's memory.
		dir, err := os.MkdirTemp("", "algorand-chaos-")
		if err != nil {
			panic(fmt.Sprintf("chaos: durable scratch dir: %v", err))
		}
		cfg.DataDir = dir
	}

	c := sim.NewCluster(cfg)
	c.Net.SeedFaults(s.Seed)

	res := &Result{
		Scenario:    s,
		Cluster:     c,
		HealAt:      healAt,
		HealChains:  make([]uint64, s.Nodes),
		Down:        make(map[int]bool),
		Byzantine:   make(map[int]bool),
		CheckParams: cfg.Params,
		DataDir:     cfg.DataDir,
		TxCfg:       cfg.TxFlow,
	}

	// --- Compile faults into network hooks and scheduled events.
	for i := 0; i < s.Equivocators; i++ {
		res.Byzantine[i] = true
	}
	c.MakeEquivocatingProposers(s.Equivocators)
	if len(s.Grinders) > 0 {
		for _, g := range s.Grinders {
			res.Byzantine[g] = true
		}
		res.Grind = c.MakeGrindingProposers(s.Grinders, s.GrindHoldBack)
	}

	for _, ids := range [][]int{s.PieceWithholders, s.PieceForgers, s.ManifestStrippers} {
		for _, i := range ids {
			res.Byzantine[i] = true
		}
	}
	c.MakePieceWithholders(s.PieceWithholders)
	c.MakePieceForgers(s.PieceForgers)
	c.MakeManifestStrippers(s.ManifestStrippers)

	for _, p := range s.Partitions {
		p := p
		c.Net.AddPartition(func(a, b int) bool {
			now := c.Sim.Now()
			if now < p.Start || now >= p.End {
				return false
			}
			return (a < p.Cut) != (b < p.Cut)
		})
	}
	for _, d := range s.DoS {
		d := d
		c.Net.AddPartition(func(a, b int) bool {
			now := c.Sim.Now()
			if now < d.Start || now >= d.End {
				return false
			}
			for _, v := range d.Nodes {
				if a == v || b == v {
					return true
				}
			}
			return false
		})
	}
	for _, lf := range s.Limbo {
		lf := lf
		c.Net.AddLimboFault(network.LimboFault{
			Match: func(from, to int) bool {
				if lf.From >= 0 && from != lf.From {
					return false
				}
				if lf.To >= 0 && to != lf.To {
					return false
				}
				return true
			},
			Active:     func(now time.Duration) bool { return now >= lf.Start && now < lf.End },
			HoldProb:   lf.HoldProb,
			HoldFor:    lf.HoldFor,
			HoldJitter: lf.HoldJitter,
		})
	}
	for _, lf := range s.LinkFaults {
		lf := lf
		c.Net.AddLinkFault(network.LinkFault{
			Match: func(from, to int) bool {
				if lf.From >= 0 && from != lf.From {
					return false
				}
				if lf.To >= 0 && to != lf.To {
					return false
				}
				return true
			},
			Active:      func(now time.Duration) bool { return now >= lf.Start && now < lf.End },
			LossProb:    lf.LossProb,
			ExtraDelay:  lf.ExtraDelay,
			ExtraJitter: lf.ExtraJitter,
		})
	}
	for _, cr := range s.Crashes {
		cr := cr
		c.Sim.After(cr.At, func() { c.CrashNode(cr.Node) })
		if cr.RestartAt > 0 {
			c.Sim.After(cr.RestartAt, func() {
				if _, _, err := c.RestartNode(cr.Node, livenessBudget); err != nil {
					res.RestartErrs = append(res.RestartErrs,
						fmt.Errorf("node %d restart at %v: %w", cr.Node, cr.RestartAt, err))
				}
			})
		} else {
			res.Down[cr.Node] = true
		}
	}
	if s.TStepOverride > 0 {
		c.Sim.After(s.TStepRestoreAt, func() {
			for _, n := range c.Nodes {
				n.SetParams(honest)
			}
		})
	}
	if healAt > 0 {
		// Snapshot chain lengths just after the heal instant (restarts
		// scheduled at the same time have installed their replacements).
		c.Sim.After(healAt+time.Millisecond, func() {
			for i, n := range c.Nodes {
				res.HealChains[i] = n.Ledger().ChainLength()
			}
		})
	}

	if s.TxLoad > 0 {
		startTxLoad(c, s.TxLoad, s.Seed)
	}
	if s.Churn != nil {
		startChurn(c, res, s)
	}

	if preStart != nil {
		preStart(c)
	}
	res.Elapsed = c.Run()
	return res
}

// startChurn runs the continuous Poisson crash/restart process of a
// ChurnFault: exponential inter-arrivals at EventsPerMin, each event
// crashing one eligible node and restarting it after a bounded downtime
// (no later than the churn window's end, so LastFaultClear covers every
// cycle). Scripted-crash and Byzantine nodes are exempt — a restart
// would silently heal an attacker, and double-crashing a scripted node
// would entangle two schedules. A restarted node becomes eligible
// again immediately, so churn naturally produces crash-during-catch-up
// (restart-during-restart) interleavings. Every draw comes from one
// sub-seeded RNG, so churned runs replay exactly.
func startChurn(c *sim.Cluster, res *Result, s Scenario) {
	ch := s.Churn
	rng := rand.New(rand.NewSource(s.Seed ^ 0x636875726e)) // "churn"
	scripted := map[int]bool{}
	for _, cr := range s.Crashes {
		scripted[cr.Node] = true
	}
	downNow := map[int]bool{}
	c.Sim.Spawn("chaos-churn", func(p *vtime.Proc) {
		if start := ch.Start - c.Sim.Now(); start > 0 {
			p.Sleep(start)
		}
		for !c.Sim.Stopped() {
			gap := time.Duration(rng.ExpFloat64() * float64(time.Minute) / ch.EventsPerMin)
			p.Sleep(gap)
			now := c.Sim.Now()
			if now >= ch.End {
				return
			}
			if len(downNow) >= ch.MaxConcurrent {
				continue
			}
			span := int64(ch.MaxDown - ch.MinDown)
			down := ch.MinDown
			if span > 0 {
				down += time.Duration(rng.Int63n(span + 1))
			}
			restartAt := now + down
			if restartAt > ch.End {
				restartAt = ch.End
			}
			var eligible []int
			for i, n := range c.Nodes {
				if scripted[i] || res.Byzantine[i] || downNow[i] || res.Down[i] ||
					n.Halted() || n.Done() {
					continue
				}
				eligible = append(eligible, i)
			}
			if len(eligible) == 0 {
				continue
			}
			v := eligible[rng.Intn(len(eligible))]
			downNow[v] = true
			res.ChurnEvents++
			c.CrashNode(v)
			at := restartAt
			c.Sim.After(at-now, func() {
				delete(downNow, v)
				if _, _, err := c.RestartNode(v, livenessBudget); err != nil {
					res.RestartErrs = append(res.RestartErrs,
						fmt.Errorf("churned node %d restart at %v: %w", v, at, err))
				}
			})
		}
	})
}

// startTxLoad drives a seeded, deliberately messy payment stream
// through the ingestion pipeline for the whole run: fresh transactions
// with randomized fees (eviction churn against the shrunken pool
// bounds), duplicate submissions of earlier transactions — often at a
// different node — and stale nonce re-use. Rejections are expected and
// ignored; what matters is the invariant that none of the garbage ever
// reaches a committed block.
func startTxLoad(c *sim.Cluster, txPerSecond float64, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x74786c6f6164)) // "txload"
	interval := time.Duration(float64(time.Second) / txPerSecond)
	nonces := make(map[int]uint64)
	var history []*ledger.Transaction
	c.Sim.Spawn("chaos-txload", func(p *vtime.Proc) {
		for !c.Sim.Stopped() {
			p.Sleep(interval)
			via := rng.Intn(len(c.Nodes))
			var tx *ledger.Transaction
			switch draw := rng.Float64(); {
			case draw < 0.20 && len(history) > 0:
				// Duplicate submission of an already-sent transaction.
				tx = history[rng.Intn(len(history))]
			case draw < 0.30:
				// Stale nonce: re-use the sender's first nonce forever.
				from := rng.Intn(len(c.Nodes))
				tx = &ledger.Transaction{
					From:   c.Identity(from).PublicKey(),
					To:     c.Identity((from + 1) % len(c.Nodes)).PublicKey(),
					Amount: 1,
					Nonce:  0,
				}
				tx.Sign(c.Identity(from))
			default:
				from := rng.Intn(len(c.Nodes))
				to := rng.Intn(len(c.Nodes))
				if to == from {
					to = (to + 1) % len(c.Nodes)
				}
				tx = &ledger.Transaction{
					From:   c.Identity(from).PublicKey(),
					To:     c.Identity(to).PublicKey(),
					Amount: 1,
					Fee:    uint64(rng.Intn(8)),
					Nonce:  nonces[from],
				}
				nonces[from]++
				tx.Sign(c.Identity(from))
				history = append(history, tx)
			}
			if err := c.Nodes[via].SubmitTx(tx); err != nil {
				// Wind down once every node has stopped, so the sim can
				// drain instead of running to the horizon.
				done := true
				for _, n := range c.Nodes {
					if !n.Done() {
						done = false
						break
					}
				}
				if done {
					return
				}
			}
		}
	})
}

// Check runs the full invariant suite against the finished run.
func (r *Result) Check() []Violation {
	opt := CheckOptions{
		Params:              r.CheckParams,
		Rounds:              r.Scenario.Rounds,
		AllowTentativeForks: r.Scenario.TStepOverride > 0,
		RequireProgress:     r.Scenario.TStepOverride == 0,
		Byzantine:           r.Byzantine,
		Down:                r.Down,
		HealChains:          r.HealChains,
	}
	vs := CheckInvariants(r.Cluster, opt)
	for _, err := range r.RestartErrs {
		vs = append(vs, Violation{Kind: "restart-failed", Node: -1, Detail: err.Error()})
	}
	vs = append(vs, CheckDurability(r)...)
	vs = append(vs, CheckSortitionBias(r)...)
	vs = append(vs, CheckDegradation(r)...)
	return vs
}

// Trace renders the per-round history of the run — what every honest
// node committed and when — plus the fault schedule. It is printed on
// invariant violations so a failure is diagnosable from the test log
// alone, and the leading seed line makes the run replayable with
// `go test ./internal/chaos -run TestChaosReplay -chaos.seed=N`.
func (r *Result) Trace() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: %s\n", r.Scenario.String())
	fmt.Fprintf(&b, "replay:   go test ./internal/chaos -run TestChaosReplay -chaos.seed=%d\n", r.Scenario.Seed)
	fmt.Fprintf(&b, "elapsed:  %v virtual (heal at %v)\n", r.Elapsed, r.HealAt)

	// Aggregate Stats per round: value → committing nodes.
	type commit struct {
		nodes []int
		final int
		empty bool
		last  time.Duration
	}
	rounds := map[uint64]map[string]*commit{}
	for _, n := range r.Cluster.Nodes {
		for _, st := range n.Stats {
			if st.End == 0 || st.Round >= ledger.RecoveryRoundBase {
				continue
			}
			byVal := rounds[st.Round]
			if byVal == nil {
				byVal = map[string]*commit{}
				rounds[st.Round] = byVal
			}
			key := fmt.Sprintf("%x", st.Value[:4])
			cm := byVal[key]
			if cm == nil {
				cm = &commit{}
				byVal[key] = cm
			}
			cm.nodes = append(cm.nodes, n.ID)
			if st.Final {
				cm.final++
			}
			cm.empty = st.Empty
			if st.End > cm.last {
				cm.last = st.End
			}
		}
	}
	var order []uint64
	for rd := range rounds {
		order = append(order, rd)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, rd := range order {
		fmt.Fprintf(&b, "round %d:", rd)
		var keys []string
		for k := range rounds[rd] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			cm := rounds[rd][k]
			tag := ""
			if cm.empty {
				tag = " empty"
			}
			fmt.Fprintf(&b, " [%s×%d final=%d%s by %v]", k, len(cm.nodes), cm.final, tag, cm.nodes)
		}
		fmt.Fprintf(&b, " done@%v\n", rounds[rd][keys[len(keys)-1]].last)
	}
	fmt.Fprintf(&b, "chains:  ")
	for i, n := range r.Cluster.Nodes {
		mark := ""
		if r.Byzantine[i] {
			mark = "b"
		}
		if r.Down[i] {
			mark += "d"
		}
		fmt.Fprintf(&b, " n%d%s=%d", i, mark, n.Ledger().ChainLength())
	}
	b.WriteString("\n")
	return b.String()
}
