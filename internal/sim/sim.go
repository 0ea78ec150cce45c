// Package sim builds whole Algorand deployments on the virtual-time
// runtime and measures them: N users on the simulated gossip network,
// each running the full node stack, with optional adversaries. It is
// the workhorse behind every experiment in EXPERIMENTS.md.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/diskfault"
	"algorand/internal/gateway"
	"algorand/internal/ledger"
	"algorand/internal/ledger/diskstore"
	"algorand/internal/metrics"
	"algorand/internal/network"
	"algorand/internal/node"
	"algorand/internal/params"
	"algorand/internal/trace"
	"algorand/internal/txflow"
	"algorand/internal/vtime"
)

// Config describes a deployment.
type Config struct {
	// N is the number of users.
	N int
	// WeightEach gives every user this many currency units (the paper's
	// evaluation assigns equal shares, maximizing message load).
	WeightEach uint64
	// Weights, when non-nil, assigns per-user balances instead of
	// WeightEach (len must equal N). Lets experiments model skewed
	// wealth distributions.
	Weights []uint64
	// Params are the protocol parameters (scaled for simulation size).
	Params params.Params
	// Net configures the gossip network.
	Net network.Config
	// LedgerCfg configures seed rotation and look-back.
	LedgerCfg ledger.Config
	// UseRealCrypto switches from the Fast provider (with modeled CPU
	// costs) to full Ed25519+ECVRF.
	UseRealCrypto bool
	// ChargeCrypto charges the provider's modeled CPU costs on message
	// validation (recommended with Fast).
	ChargeCrypto bool
	// Rounds to run before stopping.
	Rounds uint64
	// Seed drives all randomness.
	Seed int64
	// RecoveryInterval for §8.2 (default 1h).
	RecoveryInterval time.Duration
	// CheckpointInterval makes every node write a state checkpoint
	// (full account table + Merkle root + certificate) each time its
	// chain commits a round on this grid (0 = no checkpoints). A
	// restarted node then re-bases onto the newest verified checkpoint
	// and replays only the delta: from its own disk, or from a peer when
	// it restored nothing (see node.Rejoin). Fast sync verifies
	// checkpoint certificates from genesis context alone, so the
	// checkpointed round must fall inside the first seed-refresh epoch:
	// keep LedgerCfg.SeedRefreshInterval above the chain length a
	// snapshot test expects to checkpoint.
	CheckpointInterval uint64
	// TxFlow overrides every node's ingestion-pipeline configuration
	// (zero value = txflow defaults). Chaos runs shrink the pool bounds
	// here to force eviction churn.
	TxFlow txflow.Config
	// Horizon bounds virtual time (0 = generous default).
	Horizon time.Duration
	// DataDir, when non-empty, gives every node a durable on-disk
	// archive (internal/ledger/diskstore) under DataDir/node-<i>.
	// CrashNode then models a SIGKILL that loses memory but keeps the
	// data directory, and RestartNode recovers from the disk — torn-tail
	// truncation, checksum checks and certificate re-verification
	// included — before delta catch-up from peers.
	DataDir string
	// DiskFS overrides the filesystem the archives write through (nil =
	// the real one). Tests pass a diskfault.Injector to script torn
	// writes, fsync failures and corrupt-sector reads.
	DiskFS diskfault.FS
	// Diskless, with DataDir set, marks nodes that nevertheless run
	// without a durable archive (len must equal N): a mixed
	// durable/diskless fleet, as churn scenarios use. A diskless node's
	// restart replays the certified chain its crashed process's ledger
	// held, like every node does when DataDir is empty.
	Diskless []bool
	// Gateways adds that many access-tier gateway nodes (see
	// internal/gateway) to the deployment, at network ids N..N+G-1.
	// They hold zero stake — the money-weighted peer selection keeps
	// them out of the consensus gossip core while the undirected
	// neighbor union still connects each of them to several consensus
	// nodes, whom each gateway asks in turn for the chain its read
	// model has not applied yet.
	Gateways int
}

// DefaultConfig returns a simulation with the paper's structure at
// reduced absolute scale: committee sizes are *constant in the number
// of users* — exactly the property that makes BA⋆ scale (§8.4) — but
// smaller than the paper's 2,000/10,000 so that a laptop can simulate
// whole networks. The thresholds and timeouts are the paper's. Note
// the smaller committees keep proportionally more selection variance
// than τ_step = 2,000 (quantified in internal/committee), so scaled
// runs see occasional tentative or slow rounds where the paper's
// parameters would not.
func DefaultConfig(n int, rounds uint64) Config {
	p := params.Default()
	p.TauStep = 40
	p.TauFinal = 80
	p.TauProposer = 8
	if p.TauProposer > uint64(n)/2 {
		p.TauProposer = uint64(n)/2 + 1
	}
	return Config{
		N:          n,
		WeightEach: 10,
		Params:     p,
		Net:        network.DefaultConfig(),
		LedgerCfg: ledger.Config{
			SeedRefreshInterval: 10,
			LookbackRounds:      0,
			MaxTimestampSkew:    time.Hour,
		},
		ChargeCrypto: true,
		Rounds:       rounds,
		Seed:         1,
	}
}

// Cluster is a running deployment.
type Cluster struct {
	Cfg      Config
	Sim      *vtime.Sim
	Net      *network.Network
	Provider crypto.Provider
	Nodes    []*node.Node
	ids      []crypto.Identity
	Genesis  map[crypto.PublicKey]uint64
	Seed0    crypto.Digest
	genesis  *ledger.Genesis // what Genesis and Seed0 determine, shared by every node
	nodeCfg  node.Config
	archives []*diskstore.Store
	// Access tier (Config.Gateways). Gateway i has network id N+i;
	// access it via Gateway(i).
	gateways []*gateway.Gateway
	// workload retry/backoff bookkeeping (see Workload).
	workStats *WorkloadStats
}

// NumGateways reports the access-tier size.
func (c *Cluster) NumGateways() int { return len(c.gateways) }

// Gateway returns access-tier node i (0-based; its network id is N+i).
func (c *Cluster) Gateway(i int) *gateway.Gateway { return c.gateways[i] }

// Registry returns node i's metrics registry: the single place that
// node's BA⋆, txflow, trace and round counters are recorded.
func (c *Cluster) Registry(i int) *metrics.Registry { return c.Nodes[i].Metrics() }

// Tracer returns node i's per-round phase tracer.
func (c *Cluster) Tracer(i int) *trace.Tracer { return c.Nodes[i].Tracer() }

// NewCluster builds the deployment (without starting node processes).
func NewCluster(cfg Config) *Cluster {
	if cfg.N <= 0 {
		panic("sim: N must be positive")
	}
	if cfg.WeightEach == 0 {
		cfg.WeightEach = 10
	}
	c := &Cluster{
		Cfg:   cfg,
		Sim:   vtime.New(),
		Seed0: crypto.HashUint64("sim.genesis.seed", uint64(cfg.Seed)),
	}
	if cfg.UseRealCrypto {
		c.Provider = crypto.NewReal()
	} else {
		c.Provider = crypto.NewFast()
	}
	netCfg := cfg.Net
	netCfg.Seed = cfg.Seed
	// The network carries consensus nodes at ids 0..N-1 and gateways at
	// N..N+G-1. Gateways get weight zero: money-weighted peer selection
	// then keeps the consensus core's topology essentially unchanged
	// while each gateway still picks (and is therefore neighbored with)
	// several weighted consensus nodes.
	c.Net = network.New(c.Sim, netCfg, cfg.N+cfg.Gateways)

	if cfg.Weights != nil && len(cfg.Weights) != cfg.N {
		panic("sim: len(Weights) must equal N")
	}
	if cfg.Diskless != nil && len(cfg.Diskless) != cfg.N {
		panic("sim: len(Diskless) must equal N")
	}
	c.Genesis = make(map[crypto.PublicKey]uint64, cfg.N)
	weights := make([]uint64, cfg.N+cfg.Gateways)
	for i := 0; i < cfg.N; i++ {
		id := c.Provider.NewIdentity(crypto.SeedFromUint64(uint64(cfg.Seed)<<32 | uint64(i)))
		c.ids = append(c.ids, id)
		w := cfg.WeightEach
		if cfg.Weights != nil {
			w = cfg.Weights[i]
		}
		c.Genesis[id.PublicKey()] = w
		weights[i] = w
	}
	c.Net.SetWeights(weights)
	// One genesis state for the cluster: each node's ledger shares it
	// instead of hashing and holding an account table of its own.
	c.genesis = ledger.NewGenesis(c.Genesis, c.Seed0)

	c.nodeCfg = node.Config{
		Params:             cfg.Params,
		LedgerCfg:          cfg.LedgerCfg,
		ChargeCrypto:       cfg.ChargeCrypto,
		RecoveryInterval:   cfg.RecoveryInterval,
		CheckpointInterval: cfg.CheckpointInterval,
		TxFlow:             cfg.TxFlow,
	}
	c.archives = make([]*diskstore.Store, cfg.N)
	for i := 0; i < cfg.N; i++ {
		nodeCfg := c.instrumentedNodeCfg()
		if cfg.DataDir != "" && !(cfg.Diskless != nil && cfg.Diskless[i]) {
			ds, err := diskstore.Open(c.nodeDataDir(i), diskstore.Options{FS: c.Cfg.DiskFS})
			if err != nil {
				panic(fmt.Sprintf("sim: opening archive for node %d: %v", i, err))
			}
			c.archives[i] = ds
			nodeCfg.Archive = ds
		}
		n := node.NewFromGenesis(i, c.Sim, c.Net, c.Provider, c.ids[i], nodeCfg, c.genesis)
		n.StopAfterRound = cfg.Rounds
		c.Nodes = append(c.Nodes, n)
	}
	for i := 0; i < cfg.Gateways; i++ {
		// The read model verifies certificates under the same protocol
		// and ledger parameters the consensus nodes run.
		gwCfg := gateway.Config{
			Committee: node.CommitteeParamsFor(cfg.Params),
			LedgerCfg: cfg.LedgerCfg,
			Metrics:   metrics.NewRegistry(),
			Done:      c.allNodesDone,
		}
		gw := gateway.New(cfg.N+i, c.Sim, c.Net, c.Provider, gwCfg, cfg.Params, c.Genesis, c.Seed0)
		c.gateways = append(c.gateways, gw)
	}
	return c
}

// allNodesDone reports whether every consensus node has finished its
// configured rounds (or halted) — the gateways' wind-down signal.
func (c *Cluster) allNodesDone() bool {
	for _, n := range c.Nodes {
		if !n.Done() {
			return false
		}
	}
	return true
}

// instrumentedNodeCfg clones the cluster node config with a fresh
// registry and tracer: every node gets its own, and a restarted slot
// starts its observability from zero, like a fresh process.
func (c *Cluster) instrumentedNodeCfg() node.Config {
	nodeCfg := c.nodeCfg
	nodeCfg.Metrics = metrics.NewRegistry()
	nodeCfg.Tracer = trace.New(c.Sim.Now, 0)
	return nodeCfg
}

// nodeDataDir is node i's archive directory under Config.DataDir.
func (c *Cluster) nodeDataDir(i int) string {
	return filepath.Join(c.Cfg.DataDir, fmt.Sprintf("node-%d", i))
}

// Archive returns node i's durable store (nil without Config.DataDir).
func (c *Cluster) Archive(i int) *diskstore.Store { return c.archives[i] }

// OpenArchiveOffline re-opens node i's data directory with a fresh
// recovery scan, independent of the node's live handle (close that
// first via CloseArchives). The caller owns Close on the result.
func (c *Cluster) OpenArchiveOffline(i int) (*diskstore.Store, error) {
	if c.Cfg.DataDir == "" {
		return nil, fmt.Errorf("sim: no DataDir configured")
	}
	return diskstore.Open(c.nodeDataDir(i), diskstore.Options{FS: c.Cfg.DiskFS})
}

// CloseArchives closes every open archive (end of a durable run, before
// inspecting the data directories offline).
func (c *Cluster) CloseArchives() error {
	var first error
	for _, ds := range c.archives {
		if ds == nil {
			continue
		}
		if err := ds.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CrashNode simulates a crash of node i: it goes silent immediately and
// its process winds down. Its archive survives on disk, and without one
// its ledger survives in memory; RestartNode builds a replacement from
// whichever it has.
func (c *Cluster) CrashNode(i int) { c.Nodes[i].Halt() }

// RestartNode replaces a crashed node i with a fresh node in the same
// network slot and brings it up through node.Rejoin: the replacement
// replays the crashed node's archive — or, for a node without one, the
// certified chain its ledger held (ledger.CertifiedChain) — validating
// every certificate, catches the rest up from peers, and rejoins
// consensus. syncBudget bounds the rejoin phase. It returns the
// replacement (also installed in c.Nodes) and how many rounds were
// restored from the archive.
func (c *Cluster) RestartNode(i int, syncBudget time.Duration) (*node.Node, uint64, error) {
	if c.archives[i] == nil {
		return c.restartWith(i, ledger.CertifiedChain(c.Nodes[i].Ledger()), nil, syncBudget)
	}
	// True disk recovery: drop the crashed process's in-memory state
	// entirely, close its archive handle, and re-open the data directory
	// — running the full recovery scan (torn-tail truncation, checksum
	// checks) before certificate re-verification, which Rejoin does.
	c.archives[i].Close()
	ds, err := diskstore.Open(c.nodeDataDir(i), diskstore.Options{FS: c.Cfg.DiskFS})
	if err != nil {
		return nil, 0, err
	}
	c.archives[i] = ds
	return c.restartWith(i, nil, ds, syncBudget)
}

// RestartNodeFromStore is RestartNode with an explicit archive to
// restore from — a tampered copy, for adversarial tests, or nil for a
// replacement that lost its disk and must take everything from peers
// (snapshot first, see Config.CheckpointInterval); the replacement gets
// no durable archive. If the archive fails validation the replacement
// is installed but not started.
func (c *Cluster) RestartNodeFromStore(i int, src *ledger.Store, syncBudget time.Duration) (*node.Node, uint64, error) {
	return c.restartWith(i, src, nil, syncBudget)
}

// restartWith installs a replacement for node i that replays src (when
// non-nil) and then Rejoins, which replays archive (when non-nil).
func (c *Cluster) restartWith(i int, src *ledger.Store, archive *diskstore.Store, syncBudget time.Duration) (*node.Node, uint64, error) {
	old := c.Nodes[i]
	if !old.Halted() {
		old.Halt()
	}
	nodeCfg := c.instrumentedNodeCfg()
	nodeCfg.Archive = archive
	n := node.NewFromGenesis(i, c.Sim, c.Net, c.Provider, c.ids[i], nodeCfg, c.genesis)
	n.StopAfterRound = c.Cfg.Rounds
	c.Nodes[i] = n
	var restored uint64
	if src != nil {
		var err error
		if restored, err = n.RestoreFromArchive(src); err != nil {
			return n, restored, err
		}
	}
	fromDisk, err := n.Rejoin(syncBudget)
	return n, restored + fromDisk, err
}

// Identity exposes user i's identity (for crafting transactions).
func (c *Cluster) Identity(i int) crypto.Identity { return c.ids[i] }

// Run starts every node and runs the simulation to completion (all
// nodes stopped) or the horizon.
func (c *Cluster) Run() time.Duration {
	for _, n := range c.Nodes {
		n.Start()
	}
	for _, gw := range c.gateways {
		gw.Start()
	}
	horizon := c.Cfg.Horizon
	if horizon == 0 {
		perRound := c.Cfg.Params.LambdaBlock + c.Cfg.Params.LambdaStep*time.Duration(c.Cfg.Params.MaxSteps+6)
		horizon = time.Duration(c.Cfg.Rounds+2)*perRound + time.Hour
	}
	return c.Sim.Run(horizon)
}

// --- Measurement helpers -------------------------------------------------

// Percentiles summarizes a sample the way the paper's figures do:
// min / 25th / median / 75th / max.
type Percentiles struct {
	Min, P25, Median, P75, Max time.Duration
	N                          int
}

// String formats the summary.
func (p Percentiles) String() string {
	return fmt.Sprintf("min %v p25 %v med %v p75 %v max %v (n=%d)",
		p.Min.Round(time.Millisecond), p.P25.Round(time.Millisecond),
		p.Median.Round(time.Millisecond), p.P75.Round(time.Millisecond),
		p.Max.Round(time.Millisecond), p.N)
}

// Summarize computes percentile statistics over a sample.
func Summarize(sample []time.Duration) Percentiles {
	if len(sample) == 0 {
		return Percentiles{}
	}
	s := append([]time.Duration(nil), sample...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) time.Duration {
		idx := int(q * float64(len(s)-1))
		return s[idx]
	}
	return Percentiles{
		Min: s[0], P25: at(0.25), Median: at(0.5), P75: at(0.75), Max: s[len(s)-1],
		N: len(s),
	}
}

// RoundLatencies returns, for the given round, every node's round
// completion time (Finalized - Start: its final step included, though the
// next round started at the commit), the quantity the paper's Figures 5,
// 6 and 8 plot.
func (c *Cluster) RoundLatencies(round uint64) []time.Duration {
	var out []time.Duration
	for _, n := range c.Nodes {
		for _, st := range n.Stats {
			if st.Round == round && st.Finalized > st.Start {
				out = append(out, st.Finalized-st.Start)
			}
		}
	}
	return out
}

// AllRoundLatencies pools completion times across rounds [from, to].
func (c *Cluster) AllRoundLatencies(from, to uint64) []time.Duration {
	var out []time.Duration
	for r := from; r <= to; r++ {
		out = append(out, c.RoundLatencies(r)...)
	}
	return out
}

// PhaseBreakdown is the Figure 7 decomposition of a round: the paper's
// three bars, which add up to its completion, and the period a node
// spends in it, from its start to its commit, where the next round starts
// while the final step counts on.
type PhaseBreakdown struct {
	BlockProposal   Percentiles // time to obtain the proposed block
	BAWithoutFinal  Percentiles // reduction + BinaryBA⋆
	FinalStep       Percentiles // the final confirmation step, to Finalized
	RoundCompletion Percentiles // Start to Finalized
	Period          Percentiles // Start to End, the commit
}

// Phases computes the per-phase timing distribution for a round, over
// the nodes whose final step of it has ended.
func (c *Cluster) Phases(round uint64) PhaseBreakdown {
	var prop, ba, fin, all, period []time.Duration
	for _, n := range c.Nodes {
		for _, st := range n.Stats {
			if st.Round != round || st.Finalized == 0 {
				continue
			}
			prop = append(prop, st.ProposalDone-st.Start)
			ba = append(ba, st.BinaryDone-st.ProposalDone)
			fin = append(fin, st.Finalized-st.BinaryDone)
			all = append(all, st.Finalized-st.Start)
			period = append(period, st.End-st.Start)
		}
	}
	return PhaseBreakdown{
		BlockProposal:   Summarize(prop),
		BAWithoutFinal:  Summarize(ba),
		FinalStep:       Summarize(fin),
		RoundCompletion: Summarize(all),
		Period:          Summarize(period),
	}
}

// AgreementCheck verifies the safety property across the deployment:
// at every round all nodes that completed it committed the same block.
// It returns an error describing the first divergence.
func (c *Cluster) AgreementCheck() error {
	byRound := make(map[uint64]crypto.Digest)
	for _, n := range c.Nodes {
		for _, st := range n.Stats {
			if st.End == 0 {
				continue
			}
			if prev, ok := byRound[st.Round]; ok {
				if prev != st.Value {
					return fmt.Errorf("round %d: node %d committed %v, others %v",
						st.Round, n.ID, st.Value, prev)
				}
			} else {
				byRound[st.Round] = st.Value
			}
		}
	}
	return nil
}

// FinalityRate returns the fraction of completed rounds that reached
// final consensus, and the fraction committing empty blocks.
func (c *Cluster) FinalityRate() (final, empty float64) {
	var total, fin, emp int
	for _, n := range c.Nodes {
		for _, st := range n.Stats {
			if st.End == 0 {
				continue
			}
			total++
			if st.Final {
				fin++
			}
			if st.Empty {
				emp++
			}
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(fin) / float64(total), float64(emp) / float64(total)
}

// CommittedPayloadBytes returns the total transaction payload committed
// on node 0's chain through the given round (for throughput numbers).
func (c *Cluster) CommittedPayloadBytes(through uint64) int64 {
	l := c.Nodes[0].Ledger()
	var total int64
	for r := uint64(1); r <= through; r++ {
		if b, ok := l.BlockAt(r); ok {
			total += int64(len(b.Txns)*ledger.TxWireSize + b.PayloadPadding)
		}
	}
	return total
}

// BandwidthPerNode returns each node's average send rate in bits/sec
// over the run (§10.3 reports ~10 Mbit/s at 50k users and 1MB blocks).
func (c *Cluster) BandwidthPerNode(elapsed time.Duration) []float64 {
	out := make([]float64, len(c.Nodes))
	for i := range c.Nodes {
		st := c.Net.NodeStats(i)
		out[i] = float64(st.BytesSent*8) / elapsed.Seconds()
	}
	return out
}

// --- Transaction workload --------------------------------------------------

// WorkloadStats counts what the load driver did. It exists because
// the first version of the driver blind-resubmitted on every reject —
// burning a nonce per attempt and flooding the duplicate filter (the
// txflow bench once recorded 64k duplicates against 6.5k admissions).
// The driver now advances a sender's nonce only on admission, honors
// RetryAfterHint backoff per sender, and resyncs a desynced nonce
// from the chain; these counters prove it.
type WorkloadStats struct {
	Submitted int64 // submission attempts
	Admitted  int64 // accepted at the edge
	Duplicate int64 // rejected as already-pending (counts as delivered)
	StaleSync int64 // nonce resyncs after a stale-nonce reject
	Backoffs  int64 // rejects that armed a per-sender retry timer
	Retries   int64 // resubmissions after a backoff expired
	Dropped   int64 // ticks skipped because the sender was backing off
}

// WorkloadStats returns the load driver's counters (zero value before
// Workload/GatewayWorkload ran).
func (c *Cluster) WorkloadStats() WorkloadStats {
	if c.workStats == nil {
		return WorkloadStats{}
	}
	return *c.workStats
}

// senderState is the driver's per-sender retry machinery.
type senderState struct {
	nonce   uint64
	pending *ledger.Transaction // admitted=false tx awaiting retry
	readyAt time.Duration       // virtual time the retry may fire
	backoff time.Duration       // doubling fallback when no hint came
}

// workloadDriver runs the common submit loop: pick a random sender
// each tick, submit its next payment (or retry its backed-off one)
// through submit, and keep per-sender nonces honest via resync.
func (c *Cluster) workloadDriver(p *vtime.Proc, rng *rand.Rand, interval time.Duration,
	submit func(sender int, tx *ledger.Transaction) error,
	resync func(pk crypto.PublicKey) uint64) {
	senders := make([]senderState, len(c.ids))
	st := c.workStats
	for !c.Sim.Stopped() {
		p.Sleep(interval)
		if c.allNodesDone() {
			// Nothing can commit this traffic anymore; let the sim drain.
			return
		}
		from := rng.Intn(len(c.ids))
		to := rng.Intn(len(c.ids))
		if to == from {
			to = (to + 1) % len(c.ids)
		}
		s := &senders[from]
		var tx *ledger.Transaction
		retrying := false
		if s.pending != nil {
			if p.Now() < s.readyAt {
				st.Dropped++
				continue
			}
			tx, retrying = s.pending, true
		} else {
			tx = &ledger.Transaction{
				From:   c.ids[from].PublicKey(),
				To:     c.ids[to].PublicKey(),
				Amount: 1,
				Nonce:  s.nonce,
			}
			tx.Sign(c.ids[from])
		}
		st.Submitted++
		if retrying {
			st.Retries++
		}
		err := submit(from, tx)
		switch {
		case err == nil:
			st.Admitted++
			s.nonce = tx.Nonce + 1
			s.pending, s.backoff = nil, 0
		case errors.Is(err, txflow.ErrDuplicate):
			// Already pending (a retry raced its own earlier admission):
			// the payment is in flight, move on.
			st.Duplicate++
			s.nonce = tx.Nonce + 1
			s.pending, s.backoff = nil, 0
		case errors.Is(err, txflow.ErrStaleNonce):
			// Our nonce trails the chain (e.g. driver restarted or the
			// resync raced a commit): re-read it and rebuild next tick.
			st.StaleSync++
			s.nonce = resync(c.ids[from].PublicKey())
			s.pending, s.backoff = nil, 0
		default:
			// Load shed (rate window, pool bound, sender cap): honor the
			// typed retry hint instead of blind-resubmitting, falling
			// back to a doubling per-sender backoff.
			st.Backoffs++
			wait, ok := txflow.RetryAfterHint(err)
			if !ok || wait <= 0 {
				if s.backoff == 0 {
					s.backoff = 250 * time.Millisecond
				} else if s.backoff < 8*time.Second {
					s.backoff *= 2
				}
				wait = s.backoff
			}
			s.pending, s.readyAt = tx, p.Now()+wait
		}
	}
}

// Workload continuously submits signed payments between random users at
// the given rate (transactions per virtual second), modeling Figure 1's
// transaction flow, directly against each sender's own node. Rejects
// back off per sender (see WorkloadStats). Call before Run.
func (c *Cluster) Workload(txPerSecond float64, seed int64) {
	if txPerSecond <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	interval := time.Duration(float64(time.Second) / txPerSecond)
	c.workStats = &WorkloadStats{}
	c.Sim.Spawn("workload", func(p *vtime.Proc) {
		c.workloadDriver(p, rng, interval,
			func(sender int, tx *ledger.Transaction) error {
				return c.Nodes[sender].SubmitTx(tx)
			},
			func(pk crypto.PublicKey) uint64 {
				return c.Nodes[0].Ledger().Balances().NonceOf(pk)
			})
	})
}

// GatewayWorkload drives the same payment stream through the access
// tier: every submission goes to a gateway (round-robin per sender,
// so a sender sticks to one gateway and its duplicate filter), and
// nonce resyncs read the gateway read model — consensus nodes see
// zero client traffic. Call before Run, with Config.Gateways > 0.
func (c *Cluster) GatewayWorkload(txPerSecond float64, seed int64) {
	if txPerSecond <= 0 || len(c.gateways) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	interval := time.Duration(float64(time.Second) / txPerSecond)
	c.workStats = &WorkloadStats{}
	c.Sim.Spawn("gateway-workload", func(p *vtime.Proc) {
		c.workloadDriver(p, rng, interval,
			func(sender int, tx *ledger.Transaction) error {
				gw := c.gateways[sender%len(c.gateways)]
				gw.CountSession()
				return gw.Submit(tx)
			},
			func(pk crypto.PublicKey) uint64 {
				_, nonce, _ := c.gateways[0].ReadModel().Balance(pk)
				return nonce
			})
	})
}

// QueryWorkload simulates a large read-only client population against
// the access tier: sessionsPerSecond client sessions per virtual
// second, spread evenly over the gateways. Each session connects,
// queries the chain head and a random account's balance on the
// gateway read model, and disconnects — consensus nodes serve none of
// it. Sessions are multiplexed onto a 10 ms driver tick per gateway so
// millions of them stay cheap under the virtual clock. Call before
// Run, with Config.Gateways > 0.
func (c *Cluster) QueryWorkload(sessionsPerSecond float64, seed int64) {
	if sessionsPerSecond <= 0 || len(c.gateways) == 0 {
		return
	}
	const tick = 10 * time.Millisecond
	perGateway := sessionsPerSecond / float64(len(c.gateways))
	for gi, gw := range c.gateways {
		gw := gw
		rng := rand.New(rand.NewSource(seed + int64(gi)))
		// Accumulate fractional sessions so any rate is hit exactly in
		// expectation.
		c.Sim.Spawn("query-workload-"+fmt.Sprint(gi), func(p *vtime.Proc) {
			carry := 0.0
			for {
				p.Sleep(tick)
				if c.Sim.Stopped() || c.allNodesDone() {
					return
				}
				carry += perGateway * tick.Seconds()
				n := int(carry)
				carry -= float64(n)
				for i := 0; i < n; i++ {
					pk := c.ids[rng.Intn(len(c.ids))].PublicKey()
					gw.QuerySession(pk)
				}
			}
		})
	}
}

// CommittedTxCount returns how many real transactions node 0's chain
// committed through the given round.
func (c *Cluster) CommittedTxCount(through uint64) int {
	l := c.Nodes[0].Ledger()
	count := 0
	for r := uint64(1); r <= through; r++ {
		if b, ok := l.BlockAt(r); ok {
			count += len(b.Txns)
		}
	}
	return count
}

// StartPeerReshuffling re-draws every node's gossip peers at the given
// interval, as the paper does each round to heal disconnected
// components (§8.4). Call before Run.
func (c *Cluster) StartPeerReshuffling(interval time.Duration) {
	if interval <= 0 {
		return
	}
	c.Sim.Spawn("reshuffler", func(p *vtime.Proc) {
		for !c.Sim.Stopped() {
			p.Sleep(interval)
			c.Net.ReshufflePeers()
		}
	})
}
