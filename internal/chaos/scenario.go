// Package chaos is the repo's systematic correctness layer: it runs
// scenario-driven fault injection against whole simulated deployments
// and machine-checks the paper's core claims — BA⋆ safety (§9,
// Theorems 1–3), certificate validity (§8.3), liveness after faults
// clear (§3 weak synchrony, §8.2 recovery), and seed-chain integrity
// (§5.2). A Scenario is pure data derived from a single RNG seed, so
// every run — including every fault draw inside it — replays exactly
// from that seed.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"
)

// PartitionFault splits the network into [0,Cut) vs [Cut,N) for the
// virtual-time window [Start, End): no messages cross the cut.
type PartitionFault struct {
	Start, End time.Duration
	Cut        int
}

// LinkFault impairs matching links for [Start, End): transfers drop
// with probability LossProb and are delayed by ExtraDelay plus uniform
// jitter in [0, ExtraJitter). From/To select one ordered node pair;
// -1 matches any sender/receiver.
type LinkFault struct {
	Start, End  time.Duration
	LossProb    float64
	ExtraDelay  time.Duration
	ExtraJitter time.Duration
	From, To    int
}

// CrashFault halts a node at At; if RestartAt > 0 a replacement is
// started then, restoring the crashed node's archive and catching up
// from peers (§8.3). RestartAt == 0 means the node stays down.
type CrashFault struct {
	Node      int
	At        time.Duration
	RestartAt time.Duration
}

// DoSFault silences the given nodes (all their traffic dropped, both
// directions) for [Start, End) — a targeted denial of service on known
// participants (§10.4 discusses why sortition makes this hard in
// practice; here we model the attacker succeeding and demand recovery).
type DoSFault struct {
	Nodes      []int
	Start, End time.Duration
}

// LimboFault holds matching transfers in the undecidable-message limbo
// of Conti et al. (PAPERS.md): captured messages are neither delivered
// on schedule nor provably dropped, and are released HoldFor plus up to
// HoldJitter after capture — past the step timeouts, at instants the
// adversary picks. Captures happen inside [Start, End); From/To select
// one ordered node pair, -1 matching any sender/receiver.
type LimboFault struct {
	Start, End time.Duration
	// HoldProb is the per-transfer capture probability.
	HoldProb float64
	// HoldFor/HoldJitter shape the limbo duration; make HoldFor larger
	// than λ_step so the receiver's step genuinely times out first.
	HoldFor    time.Duration
	HoldJitter time.Duration
	From, To   int
}

// ChurnFault runs a continuous Poisson join/leave/restart process over
// [Start, End): crash events arrive at EventsPerMin (exponential
// inter-arrivals), each victim staying down for a uniform draw in
// [MinDown, MaxDown] before a full §8.3 restart (archive replay for
// durable nodes, memory-image recovery for diskless ones). At most
// MaxConcurrent nodes are churned down at once, and every churned node
// is restarted by End — the fault is bounded, per weak synchrony (§3).
type ChurnFault struct {
	Start, End       time.Duration
	EventsPerMin     float64
	MinDown, MaxDown time.Duration
	MaxConcurrent    int
}

// Stake distribution names for Scenario.StakeDist.
const (
	// StakeZipf assigns weight ∝ 1/rank^α over a seed-derived rank
	// permutation of the nodes.
	StakeZipf = "zipf"
	// StakePareto draws i.i.d. Pareto(α) weights.
	StakePareto = "pareto"
)

// Scenario is a pure-data description of one adversarial run.
type Scenario struct {
	// Seed drives every random choice: topology, sortition identities,
	// fault draws. Same seed, same run.
	Seed int64
	// Nodes is the deployment size; Rounds how many rounds honest nodes
	// aim to complete.
	Nodes  int
	Rounds uint64

	// Equivocators turns nodes 0..k-1 into the §10.4 attackers
	// (conflicting block versions to different peers, double votes).
	// Bounded by the paper's 20% Byzantine-weight assumption.
	Equivocators int

	// Grinders lists nodes (outside the equivocator prefix) running the
	// §5.2 seed-grinding strategy from Wang's critique: withhold or
	// re-time proposals to steer the next sortition seed. Their combined
	// weight with the equivocators stays under the 20% Byzantine bound.
	// Grinding scenarios refresh the sortition seed every round so the
	// binary publish/withhold choice actually reaches sortition.
	Grinders []int
	// GrindHoldBack is how long a grinder delays a proposal it does
	// publish (landing it at the edge of peers' λ_priority windows).
	GrindHoldBack time.Duration

	// PieceWithholders lists nodes that advertise the block pieces they
	// hold like anyone else and never serve one: Conti et al.'s silence,
	// per piece. PieceForgers answer every piece request with a piece of
	// their own making. ManifestStrippers announce every body, as soon
	// as its priority message reaches them, as a body of one piece (the
	// unsigned form of manifest) and serve nothing. All three otherwise
	// follow the protocol. BlockSize (0: the harness's 4 KB, one piece)
	// sizes the proposed bodies so there are pieces to withhold, and
	// LambdaBlock (0: 5 s) leaves room for the per-piece timeout inside
	// the proposal wait.
	PieceWithholders  []int
	PieceForgers      []int
	ManifestStrippers []int
	BlockSize         int
	LambdaBlock       time.Duration

	Partitions []PartitionFault
	LinkFaults []LinkFault
	Crashes    []CrashFault
	DoS        []DoSFault
	// Limbo holds messages in a neither-delivered-nor-dropped state past
	// step timeouts (undecidable-message schedules).
	Limbo []LimboFault
	// Churn, when non-nil, replaces fixed crash lists with a continuous
	// Poisson crash/restart process over the whole window.
	Churn *ChurnFault
	// Reshuffle, when > 0, re-draws every node's gossip peers at this
	// interval, as the paper does each round (§8.4).
	Reshuffle time.Duration

	// StakeDist selects the genesis stake distribution ("" = equal
	// stakes, StakeZipf, StakePareto); StakeAlpha is the tail exponent.
	// Weights derive deterministically from Seed (see StakeWeights), with
	// any single stake capped at 20% of the total so no lone crash can
	// take the paper's honest-majority-online assumption with it.
	StakeDist  string
	StakeAlpha float64

	// Diskless lists nodes that run without an on-disk archive even
	// under Durable — the mixed durable/diskless fleet churn exercises.
	Diskless []int

	// Overload shrinks every node's admission bounds (pool, bytes,
	// per-sender caps, rate limits) while TxLoad is cranked far past
	// them: the graceful-degradation invariant then demands typed
	// shedding and bounded queues rather than collapse.
	Overload bool

	// TxLoad, when > 0, drives a seeded payment stream (transactions per
	// virtual second) through every node's ingestion pipeline for the
	// whole run — fresh fee-paying transactions plus deliberate garbage:
	// duplicate submissions, stale nonce re-use, and fee churn against
	// deliberately small pool bounds so eviction fires constantly. The
	// committed-transaction invariant demands none of the garbage lands
	// in a block.
	TxLoad float64

	// Durable gives every node an on-disk WAL archive in a scratch data
	// directory. Crashes then lose the process but keep the disk:
	// restarts recover through the full diskstore scan (torn-tail
	// truncation, checksums, certificate re-verification) instead of the
	// certified chain the crashed process's ledger held, and the
	// durability invariant re-opens every data dir cold after the run
	// and demands the disk chain equal the network's, byte for byte.
	Durable bool

	// Checkpoint, when > 0, makes every node write a state checkpoint
	// (full account table + Merkle root + certificate) each time its
	// chain commits a round on this grid. Durable restarts then take the
	// snapshot-first recovery path — re-base onto the newest verified
	// on-disk checkpoint, replay only the delta — and the invariant
	// suite cross-checks every checkpoint against chain replay.
	Checkpoint uint64

	// TStepOverride, when > 0, weakens every node's ordinary-step vote
	// threshold until TStepRestoreAt — the §8.2 fork generator: during a
	// partition both halves can then commit *tentative* blocks, and the
	// recovery protocol must reconcile them after healing. The final-step
	// threshold is never weakened, so no forked block can become final.
	TStepOverride  float64
	TStepRestoreAt time.Duration
}

// StakeWeights derives the genesis stake vector from the scenario seed
// and distribution — nil for equal stakes. Deterministic: the same
// scenario always deals the same wealth. Any single stake is capped at
// 20% of the total (iteratively, so the cap holds against the capped
// total too): the liveness invariant assumes a strong honest majority
// of weight stays online, and the generator may crash any single node
// permanently.
func (s *Scenario) StakeWeights() []uint64 {
	if s.StakeDist == "" {
		return nil
	}
	alpha := s.StakeAlpha
	if alpha <= 0 {
		alpha = 1.2
	}
	rng := rand.New(rand.NewSource(s.Seed ^ 0x7374616b65)) // "stake"
	w := make([]uint64, s.Nodes)
	switch s.StakeDist {
	case StakeZipf:
		perm := rng.Perm(s.Nodes)
		for i, rank := range perm {
			v := math.Round(1000 / math.Pow(float64(rank+1), alpha))
			if v < 1 {
				v = 1
			}
			w[i] = uint64(v)
		}
	case StakePareto:
		for i := range w {
			v := math.Round(10 * math.Pow(1-rng.Float64(), -1/alpha))
			if v < 10 {
				v = 10
			}
			w[i] = uint64(v)
		}
	default:
		panic(fmt.Sprintf("chaos: unknown stake distribution %q", s.StakeDist))
	}
	for changed := true; changed; {
		changed = false
		var total uint64
		for _, v := range w {
			total += v
		}
		for i, v := range w {
			if v*5 > total {
				w[i] = total / 5
				changed = true
			}
		}
	}
	return w
}

// ByzantineNodes returns every node under adversarial control: the
// equivocator prefix, the grinders, and the nodes that misbehave in
// block dissemination only (their stake proposes and votes by the rules,
// and is Byzantine stake all the same).
func (s *Scenario) ByzantineNodes() []int {
	var ids []int
	for i := 0; i < s.Equivocators; i++ {
		ids = append(ids, i)
	}
	for _, more := range [][]int{s.Grinders, s.PieceWithholders, s.PieceForgers, s.ManifestStrippers} {
		ids = append(ids, more...)
	}
	return ids
}

// ByzantineWeightFrac returns the fraction of total genesis stake held
// by Byzantine nodes — the quantity the paper's 20% assumption (§2)
// actually bounds. RandomScenario keeps it ≤ 0.2 on every draw.
func (s *Scenario) ByzantineWeightFrac() float64 {
	w := s.StakeWeights()
	var total, byz float64
	weight := func(i int) float64 {
		if w == nil {
			return 1
		}
		return float64(w[i])
	}
	for i := 0; i < s.Nodes; i++ {
		total += weight(i)
	}
	for _, i := range s.ByzantineNodes() {
		byz += weight(i)
	}
	if total == 0 {
		return 0
	}
	return byz / total
}

// clampByzantinePrefix shrinks an equivocator count until the prefix
// holds at most 20% of total stake. With equal stakes (w nil) the
// count-based draw already satisfies the bound.
func clampByzantinePrefix(k int, w []uint64) int {
	if k <= 0 || w == nil {
		return k
	}
	var total, pre uint64
	for _, v := range w {
		total += v
	}
	for i := 0; i < k; i++ {
		pre += w[i]
	}
	for k > 0 && pre*5 > total {
		k--
		pre -= w[k]
	}
	return k
}

// LastFaultClear returns the virtual time at which the last scheduled
// fault has cleared; the §8.2 liveness demand starts there.
func (s *Scenario) LastFaultClear() time.Duration {
	var t time.Duration
	max := func(d time.Duration) {
		if d > t {
			t = d
		}
	}
	for _, p := range s.Partitions {
		max(p.End)
	}
	for _, l := range s.LinkFaults {
		max(l.End)
	}
	for _, c := range s.Crashes {
		if c.RestartAt > 0 {
			max(c.RestartAt)
		} else {
			max(c.At) // permanent: the *fault event* is over at the crash
		}
	}
	for _, d := range s.DoS {
		max(d.End)
	}
	for _, lf := range s.Limbo {
		// The last capture can happen just before End and is held for up
		// to HoldFor+HoldJitter past that instant.
		max(lf.End + lf.HoldFor + lf.HoldJitter)
	}
	if s.Churn != nil {
		max(s.Churn.End)
	}
	max(s.TStepRestoreAt)
	return t
}

// String summarizes the scenario for trace output.
func (s *Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d n=%d rounds=%d", s.Seed, s.Nodes, s.Rounds)
	if s.Equivocators > 0 {
		fmt.Fprintf(&b, " equivocators=%d", s.Equivocators)
	}
	if len(s.Grinders) > 0 {
		fmt.Fprintf(&b, " grinders=%v holdback=%v", s.Grinders, s.GrindHoldBack)
	}
	if len(s.PieceWithholders)+len(s.PieceForgers) > 0 {
		fmt.Fprintf(&b, " withholders=%v forgers=%v", s.PieceWithholders, s.PieceForgers)
	}
	if len(s.ManifestStrippers) > 0 {
		fmt.Fprintf(&b, " strippers=%v", s.ManifestStrippers)
	}
	if s.BlockSize > 0 {
		fmt.Fprintf(&b, " blocksize=%d lambdablock=%v", s.BlockSize, s.LambdaBlock)
	}
	for _, p := range s.Partitions {
		fmt.Fprintf(&b, " split[%v,%v)cut=%d", p.Start, p.End, p.Cut)
	}
	for _, l := range s.LinkFaults {
		fmt.Fprintf(&b, " link[%v,%v)loss=%.2f delay=%v+%v from=%d to=%d",
			l.Start, l.End, l.LossProb, l.ExtraDelay, l.ExtraJitter, l.From, l.To)
	}
	for _, c := range s.Crashes {
		if c.RestartAt > 0 {
			fmt.Fprintf(&b, " crash(n%d@%v,restart@%v)", c.Node, c.At, c.RestartAt)
		} else {
			fmt.Fprintf(&b, " crash(n%d@%v,down)", c.Node, c.At)
		}
	}
	for _, d := range s.DoS {
		fmt.Fprintf(&b, " dos(%v@[%v,%v))", d.Nodes, d.Start, d.End)
	}
	for _, lf := range s.Limbo {
		fmt.Fprintf(&b, " limbo[%v,%v)p=%.2f hold=%v+%v from=%d to=%d",
			lf.Start, lf.End, lf.HoldProb, lf.HoldFor, lf.HoldJitter, lf.From, lf.To)
	}
	if c := s.Churn; c != nil {
		fmt.Fprintf(&b, " churn[%v,%v)rate=%.1f/min down=[%v,%v] conc=%d",
			c.Start, c.End, c.EventsPerMin, c.MinDown, c.MaxDown, c.MaxConcurrent)
	}
	if s.Reshuffle > 0 {
		fmt.Fprintf(&b, " reshuffle=%v", s.Reshuffle)
	}
	if s.StakeDist != "" {
		fmt.Fprintf(&b, " stake=%s(a=%.2f)", s.StakeDist, s.StakeAlpha)
	}
	if len(s.Diskless) > 0 {
		fmt.Fprintf(&b, " diskless=%v", s.Diskless)
	}
	if s.Overload {
		b.WriteString(" overload")
	}
	if s.TStepOverride > 0 {
		fmt.Fprintf(&b, " tstep=%.2f until %v", s.TStepOverride, s.TStepRestoreAt)
	}
	if s.TxLoad > 0 {
		fmt.Fprintf(&b, " txload=%.0f/s", s.TxLoad)
	}
	if s.Durable {
		b.WriteString(" durable")
	}
	if s.Checkpoint > 0 {
		fmt.Fprintf(&b, " checkpoint=%d", s.Checkpoint)
	}
	return b.String()
}

// RandomScenario derives a scenario entirely from one seed: node count,
// fault mix, windows, and targets. The draws keep every scenario inside
// the paper's assumptions — Byzantine weight ≤ 20% (§2), all faults
// bounded in time (weak synchrony, §3), at most one permanent crash —
// so the invariants must hold on every generated run.
func RandomScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	s := Scenario{
		Seed:   seed,
		Nodes:  10 + rng.Intn(7),        // 10..16
		Rounds: uint64(3 + rng.Intn(3)), // 3..5
	}
	sec := func(lo, hi int) time.Duration {
		return time.Duration(lo+rng.Intn(hi-lo+1)) * time.Second
	}

	// ≤ 20% equivocating weight (all users hold equal stakes here).
	s.Equivocators = rng.Intn(s.Nodes/5 + 1)

	if rng.Float64() < 0.6 {
		start := sec(2, 10)
		s.Partitions = append(s.Partitions, PartitionFault{
			Start: start,
			End:   start + sec(10, 30),
			Cut:   s.Nodes/4 + rng.Intn(s.Nodes/2),
		})
	}
	if rng.Float64() < 0.5 {
		start := sec(0, 8)
		f := LinkFault{
			Start:    start,
			End:      start + sec(10, 25),
			LossProb: 0.05 + 0.20*rng.Float64(),
			From:     -1,
			To:       -1,
		}
		if rng.Float64() < 0.5 {
			f.ExtraDelay = time.Duration(rng.Intn(300)) * time.Millisecond
			f.ExtraJitter = time.Duration(1+rng.Intn(200)) * time.Millisecond
		}
		if rng.Float64() < 0.3 { // sometimes impair a single ordered pair only
			f.From = rng.Intn(s.Nodes)
			f.To = rng.Intn(s.Nodes)
		}
		s.LinkFaults = append(s.LinkFaults, f)
	}
	if rng.Float64() < 0.5 {
		at := sec(2, 12)
		c := CrashFault{Node: rng.Intn(s.Nodes), At: at}
		if rng.Float64() < 0.75 {
			c.RestartAt = at + sec(5, 20)
		}
		s.Crashes = append(s.Crashes, c)
	}
	if rng.Float64() < 0.4 {
		k := 1 + rng.Intn(s.Nodes/8+1)
		victims := make([]int, 0, k)
		for len(victims) < k {
			v := rng.Intn(s.Nodes)
			dup := false
			for _, w := range victims {
				if w == v {
					dup = true
				}
			}
			if !dup {
				victims = append(victims, v)
			}
		}
		start := sec(3, 10)
		s.DoS = append(s.DoS, DoSFault{Nodes: victims, Start: start, End: start + sec(8, 20)})
	}
	// Drawn last so fault schedules for pre-existing seeds are unchanged.
	if rng.Float64() < 0.5 {
		s.TxLoad = float64(5 + rng.Intn(26)) // 5..30 tx/s
	}
	// Drawn after TxLoad, same reason: earlier seeds keep their schedules.
	if rng.Float64() < 0.4 {
		s.Durable = true
	}

	// Adversarial-resilience families. Appended strictly after every
	// pre-existing draw so old seeds keep their exact fault schedules.

	// Heavy-tailed stake. Once wealth is concentrated, the equivocator
	// *count* drawn above may exceed the 20% Byzantine *weight* bound the
	// paper actually assumes — clamp by weight, never by count.
	if rng.Float64() < 0.35 {
		if rng.Float64() < 0.5 {
			s.StakeDist = StakeZipf
		} else {
			s.StakeDist = StakePareto
		}
		s.StakeAlpha = 1.0 + 0.6*rng.Float64() // 1.0..1.6
	}
	s.Equivocators = clampByzantinePrefix(s.Equivocators, s.StakeWeights())

	// Seed grinders: 1-2 non-equivocator nodes, admitted only while the
	// combined Byzantine weight stays ≤ 20%.
	if rng.Float64() < 0.35 {
		k := 1 + rng.Intn(2)
		for i := 0; i < k; i++ {
			cand := s.Equivocators + rng.Intn(s.Nodes-s.Equivocators)
			dup := false
			for _, g := range s.Grinders {
				if g == cand {
					dup = true
				}
			}
			if dup {
				continue
			}
			trial := s
			trial.Grinders = append(append([]int(nil), s.Grinders...), cand)
			if trial.ByzantineWeightFrac() <= 0.2 {
				s.Grinders = trial.Grinders
			}
		}
		if len(s.Grinders) > 0 {
			s.GrindHoldBack = time.Duration(500+rng.Intn(1201)) * time.Millisecond
		}
	}

	// Undecidable-message limbo: hold past λ_step (2s accelerated), so
	// receivers' steps time out before the adversary releases.
	if rng.Float64() < 0.4 {
		start := sec(1, 8)
		lf := LimboFault{
			Start:      start,
			End:        start + sec(8, 20),
			HoldProb:   0.05 + 0.25*rng.Float64(),
			HoldFor:    time.Duration(2500+rng.Intn(4000)) * time.Millisecond,
			HoldJitter: time.Duration(500+rng.Intn(2000)) * time.Millisecond,
			From:       -1,
			To:         -1,
		}
		if rng.Float64() < 0.3 { // sometimes target one ordered pair only
			lf.From = rng.Intn(s.Nodes)
			lf.To = rng.Intn(s.Nodes)
		}
		s.Limbo = append(s.Limbo, lf)
	}

	// Continuous churn over most of the run; mixed durable/diskless
	// fleets when the scenario has disks at all.
	if rng.Float64() < 0.35 {
		start := sec(1, 5)
		s.Churn = &ChurnFault{
			Start:         start,
			End:           start + sec(20, 45),
			EventsPerMin:  2 + 6*rng.Float64(), // 2..8 events/min
			MinDown:       sec(2, 4),
			MaxDown:       sec(6, 14),
			MaxConcurrent: 1 + rng.Intn(2),
		}
		if s.Durable {
			for i := 0; i < s.Nodes; i++ {
				if rng.Float64() < 0.3 {
					s.Diskless = append(s.Diskless, i)
				}
			}
		}
	}

	// Overload: crank TxLoad far past the shrunken admission bounds the
	// harness installs for Overload scenarios.
	if rng.Float64() < 0.3 {
		s.Overload = true
		s.TxLoad = float64(150 + rng.Intn(150)) // 150..299 tx/s
	}

	// State checkpoints (drawn last, so pre-existing seeds keep their
	// fault schedules): a small grid, so short runs still cross it and
	// durable restarts exercise the snapshot-first recovery path.
	if rng.Float64() < 0.4 {
		s.Checkpoint = uint64(2 + rng.Intn(3)) // every 2..4 rounds
	}
	return s
}
