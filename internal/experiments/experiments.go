// Package experiments regenerates every table and figure of the
// paper's evaluation (§10) plus the Figure 3 analysis, at simulation
// scale. Each function returns structured rows that cmd/experiments
// prints as TSV; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"time"

	"algorand/internal/agreement"
	"algorand/internal/baseline"
	"algorand/internal/committee"
	"algorand/internal/ledger"
	"algorand/internal/sim"
	"algorand/internal/trace"
)

// Scale is a global knob for experiment sizes: 1.0 is the default CI
// scale; cmd/experiments can raise it for bigger runs.
type Scale struct {
	// Users multiplies the default user counts.
	Users float64
	// Rounds per run.
	Rounds uint64
}

func (s Scale) users(base int) int {
	n := int(float64(base) * s.Users)
	if n < 10 {
		n = 10
	}
	return n
}

// --- Figure 3 -------------------------------------------------------------

// Figure3 computes the committee-size-vs-honesty curve at the paper's
// 5·10⁻⁹ violation bound (§7.5).
func Figure3(fractions []float64) []committee.Figure3Point {
	return committee.Figure3(fractions)
}

// DefaultFigure3Fractions mirrors the x-axis of the paper's Figure 3.
func DefaultFigure3Fractions() []float64 {
	return []float64{0.76, 0.78, 0.80, 0.82, 0.84, 0.86, 0.88, 0.90}
}

// --- Figure 5: latency vs users -------------------------------------------

// LatencyPoint is one x-position of Figures 5, 6 and 8.
type LatencyPoint struct {
	Users     int
	Latency   sim.Percentiles
	FinalRate float64
	EmptyRate float64
}

// runLatency builds a cluster, runs it, and summarizes round latency
// over all measured rounds.
func runLatency(cfg sim.Config) LatencyPoint {
	c := sim.NewCluster(cfg)
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		panic(fmt.Sprintf("experiments: agreement violated: %v", err))
	}
	final, empty := c.FinalityRate()
	return LatencyPoint{
		Users:     cfg.N,
		Latency:   sim.Summarize(c.AllRoundLatencies(1, cfg.Rounds)),
		FinalRate: final,
		EmptyRate: empty,
	}
}

// Figure5 measures round latency as the number of users grows (paper:
// 5,000-50,000 users, near-constant ≈22s). Committee sizes scale with
// the user count (sim.DefaultConfig), as the paper's parameters do
// relative to its population.
func Figure5(scale Scale, userCounts []int) []LatencyPoint {
	var out []LatencyPoint
	for _, base := range userCounts {
		n := scale.users(base)
		cfg := sim.DefaultConfig(n, scale.Rounds)
		cfg.Seed = int64(n)
		out = append(out, runLatency(cfg))
	}
	return out
}

// DefaultFigure5Users are the default x positions (scaled-down versions
// of the paper's 5k..50k sweep).
func DefaultFigure5Users() []int { return []int{50, 100, 200, 400} }

// --- Figure 6: shared-VM bottleneck ---------------------------------------

// Figure6 repeats the latency sweep with many users sharing one
// virtual machine NIC (the paper runs 500 processes/VM and observes ~4×
// the latency of the dedicated-bandwidth runs, flat in user count).
func Figure6(scale Scale, userCounts []int, procsPerVM int) []LatencyPoint {
	var out []LatencyPoint
	for _, base := range userCounts {
		n := scale.users(base)
		cfg := sim.DefaultConfig(n, scale.Rounds)
		cfg.Seed = int64(n)
		cfg.Net.ProcsPerVM = procsPerVM // one 20 Mbit/s NIC shared by the VM
		// The paper raises λ_step to 1 minute for this experiment.
		cfg.Params.LambdaStep = time.Minute
		out = append(out, runLatency(cfg))
	}
	return out
}

// --- Figure 7: latency breakdown vs block size ----------------------------

// Fig7Point is one bar of Figure 7.
type Fig7Point struct {
	BlockSize int
	Phases    sim.PhaseBreakdown
}

// Figure7 sweeps the block size and reports the round's phase
// decomposition: block proposal grows with size; BA⋆ stays flat.
func Figure7(scale Scale, blockSizes []int) []Fig7Point {
	var out []Fig7Point
	n := scale.users(100)
	for _, bs := range blockSizes {
		cfg := sim.DefaultConfig(n, scale.Rounds)
		cfg.Seed = int64(bs)
		cfg.Params.BlockSize = bs
		c := sim.NewCluster(cfg)
		c.Run()
		if err := c.AgreementCheck(); err != nil {
			panic(fmt.Sprintf("experiments: agreement violated: %v", err))
		}
		// Pool phases over measured rounds: take the middle round as
		// representative (round 1 includes warmup effects).
		round := cfg.Rounds/2 + 1
		out = append(out, Fig7Point{BlockSize: bs, Phases: c.Phases(round)})
	}
	return out
}

// DefaultFigure7Sizes mirrors the paper's x axis (256 KB to 10 MB) and
// adds one size above it: with bodies pulled in pieces from many holders
// proposal time only leaves the λ_priority+λ_stepvar floor near the top.
func DefaultFigure7Sizes() []int {
	return []int{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 10 << 20, 16 << 20}
}

// --- Figure 8: malicious users --------------------------------------------

// Figure8 runs the §10.4 attack (equivocating proposers + double-voting
// committee members) with a varying fraction of malicious users.
func Figure8(scale Scale, fractions []float64) []LatencyPoint {
	var out []LatencyPoint
	n := scale.users(100)
	for _, f := range fractions {
		cfg := sim.DefaultConfig(n, scale.Rounds)
		cfg.Seed = int64(1000 * f)
		c := sim.NewCluster(cfg)
		c.MakeEquivocatingProposers(int(f * float64(n)))
		c.Run()
		if err := c.AgreementCheck(); err != nil {
			panic(fmt.Sprintf("experiments: agreement violated with %.0f%% malicious: %v", 100*f, err))
		}
		final, empty := c.FinalityRate()
		out = append(out, LatencyPoint{
			Users:     int(f * 100), // x axis is percentage here
			Latency:   sim.Summarize(c.AllRoundLatencies(1, cfg.Rounds)),
			FinalRate: final,
			EmptyRate: empty,
		})
	}
	return out
}

// DefaultFigure8Fractions mirrors the paper's 0-20% sweep.
func DefaultFigure8Fractions() []float64 { return []float64{0, 0.05, 0.10, 0.15, 0.20} }

// --- Throughput vs Bitcoin (§10.2) ----------------------------------------

// ThroughputRow compares systems.
type ThroughputRow struct {
	System            string
	BlockSize         int
	MBytesPerHour     float64
	ConfLatencyMedian time.Duration
}

// ThroughputVsBitcoin measures Algorand's committed payload per hour at
// several block sizes and the Nakamoto baseline at Bitcoin parameters.
// The paper reports 327 MB/h at 2 MB blocks and ~750 MB/h at 10 MB,
// versus Bitcoin's 6 MB/h — the "125×" headline.
func ThroughputVsBitcoin(scale Scale, algorandSizes []int) []ThroughputRow {
	var rows []ThroughputRow
	n := scale.users(100)
	for _, bs := range algorandSizes {
		cfg := sim.DefaultConfig(n, scale.Rounds)
		cfg.Seed = int64(bs) + 7
		cfg.Params.BlockSize = bs
		c := sim.NewCluster(cfg)
		c.Run()
		if err := c.AgreementCheck(); err != nil {
			panic(fmt.Sprintf("experiments: agreement violated: %v", err))
		}
		// Steady-state round time = median completion of measured rounds;
		// throughput = blocksize / round time (final step could be
		// pipelined, which the paper notes but does not implement either).
		lat := sim.Summarize(c.AllRoundLatencies(1, cfg.Rounds))
		payload := c.CommittedPayloadBytes(cfg.Rounds)
		perRound := float64(payload) / float64(cfg.Rounds)
		mbPerHour := perRound / (1 << 20) * (float64(time.Hour) / float64(lat.Median))
		rows = append(rows, ThroughputRow{
			System:            "algorand",
			BlockSize:         bs,
			MBytesPerHour:     mbPerHour,
			ConfLatencyMedian: lat.Median,
		})
	}
	btc := baseline.Run(baseline.Bitcoin(), 30*24*time.Hour)
	rows = append(rows, ThroughputRow{
		System:            "bitcoin",
		BlockSize:         baseline.Bitcoin().BlockSize,
		MBytesPerHour:     btc.ThroughputBytesPerHour / (1 << 20),
		ConfLatencyMedian: btc.ConfLatencyMedian,
	})
	return rows
}

// --- Costs (§10.3) ---------------------------------------------------------

// CostsReport aggregates the §10.3 cost measurements.
type CostsReport struct {
	// CPUCoreFraction is the mean fraction of one core a user burns
	// (paper: ~6.5% per user process).
	CPUCoreFraction float64
	// BandwidthMbps is the mean per-user send rate (paper: ~10 Mbit/s
	// at 50k users with 1 MB blocks).
	BandwidthMbps float64
	// CertificateKB is the certificate size (paper: ~300 KB) — measured
	// at full paper committee parameters, independent of cluster size.
	CertificateKB float64
	// StorageKBPerBlockSharded is each user's storage per 1 MB block
	// with 10-way sharding (paper: ~130 KB).
	StorageKBPerBlockSharded float64
}

// Costs measures CPU, bandwidth and storage costs on a standard run.
func Costs(scale Scale) CostsReport {
	n := scale.users(100)
	cfg := sim.DefaultConfig(n, scale.Rounds)
	c := sim.NewCluster(cfg)
	end := c.Run()
	if err := c.AgreementCheck(); err != nil {
		panic(fmt.Sprintf("experiments: agreement violated: %v", err))
	}

	var cpu time.Duration
	var sentBits float64
	for i := range c.Nodes {
		st := c.Net.NodeStats(i)
		cpu += st.CPUUsed
		sentBits += float64(st.BytesSent * 8)
	}
	cpuFrac := float64(cpu) / float64(end) / float64(n)
	bwMbps := sentBits / end.Seconds() / float64(n) / 1e6

	// Certificate size at the paper's full committee parameters: the
	// threshold vote count times the wire vote size (measured
	// structurally; see ledger.Certificate.WireSize).
	paperVotes := 1371 // ⌊0.685·2000⌋+1
	certKB := float64(ledger.CertWireSize(paperVotes)) / 1024

	// Sharded storage per block: user i keeps the rounds ≡ i (mod 10) of
	// its chain, each block with its certificate.
	const shards = 10
	var storage int64
	for i, nd := range c.Nodes {
		l := nd.Ledger()
		for r := uint64(1); r <= l.ChainLength(); r++ {
			if r%shards != uint64(i%shards) {
				continue
			}
			if b, ok := l.BlockAt(r); ok {
				storage += int64(b.WireSize())
			}
			if cert, ok := l.CertificateAt(r); ok {
				storage += int64(cert.WireSize())
			}
		}
	}
	blocks := float64(cfg.Rounds)
	perUserPerBlockKB := float64(storage) / float64(n) / blocks / 1024

	return CostsReport{
		CPUCoreFraction:          cpuFrac,
		BandwidthMbps:            bwMbps,
		CertificateKB:            certKB,
		StorageKBPerBlockSharded: perUserPerBlockKB,
	}
}

// --- Timeout validation (§10.5) --------------------------------------------

// TimeoutReport validates the Figure 4 timeout parameters against
// measured behavior.
type TimeoutReport struct {
	// StepTimes summarizes non-timeout CountVotes durations; the paper
	// checks these sit well under λ_step = 20s.
	StepTimes sim.Percentiles
	// StepSpread is p75-p25 of BA⋆ completion, checked against
	// λ_stepvar = 5s.
	StepSpread time.Duration
	// PriorityPropagation summarizes how long the winning priority took
	// to arrive (paper: ~1s, well under λ_priority = 5s).
	PriorityPropagation sim.Percentiles
	// TimeoutFraction is the fraction of steps that hit their deadline.
	TimeoutFraction float64
}

// baStepSpans returns every node's ba_step spans — one per counted step,
// Step carrying the wire step — from round fromRound on.
func baStepSpans(c *sim.Cluster, fromRound uint64) []trace.Span {
	var out []trace.Span
	for i := range c.Nodes {
		for _, rt := range c.Tracer(i).Rounds() {
			if rt.Round < fromRound {
				continue
			}
			for _, s := range rt.Spans {
				if s.Phase == trace.PhaseBAStep {
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// TimeoutValidation reproduces the §10.5 measurements from what every
// node already records: BA⋆ steps are the ba_step spans of its tracer,
// and a step that lasted its whole timeout is one that timed out (a
// count that reaches its threshold returns before the deadline).
func TimeoutValidation(scale Scale) TimeoutReport {
	n := scale.users(100)
	cfg := sim.DefaultConfig(n, scale.Rounds)
	c := sim.NewCluster(cfg)
	c.Run()

	var steps []time.Duration
	var completions []time.Duration
	var prio []time.Duration
	var timeouts, total, regTimeouts, regTotal uint64
	for _, s := range baStepSpans(c, 1) {
		total++
		lambda := cfg.Params.LambdaStep
		if s.Step == agreement.StepReduction1 {
			lambda += cfg.Params.LambdaBlock
		}
		if s.Duration() >= lambda {
			timeouts++
			continue
		}
		steps = append(steps, s.Duration())
	}
	for i, nd := range c.Nodes {
		snap := c.Registry(i).Snapshot()
		regTotal += uint64(snap["algorand_ba_steps_total"].Value)
		regTimeouts += uint64(snap["algorand_ba_step_timeouts_total"].Value)
		for _, rs := range nd.Stats {
			if rs.End > 0 {
				completions = append(completions, rs.End-rs.Start)
				if rs.PriorityLearned > rs.Start {
					prio = append(prio, rs.PriorityLearned-rs.Start)
				}
			}
		}
	}
	if timeouts != regTimeouts || total != regTotal {
		panic(fmt.Sprintf("experiments: spans show %d timeouts in %d steps, the registry counted %d in %d",
			timeouts, total, regTimeouts, regTotal))
	}
	comp := sim.Summarize(completions)
	frac := 0.0
	if total > 0 {
		frac = float64(timeouts) / float64(total)
	}
	return TimeoutReport{
		StepTimes:           sim.Summarize(steps),
		StepSpread:          comp.P75 - comp.P25,
		PriorityPropagation: sim.Summarize(prio),
		TimeoutFraction:     frac,
	}
}

// --- BA⋆ step counts (§4/§7) -----------------------------------------------

// StepCountReport is the distribution of BinaryBA⋆ step counts.
type StepCountReport struct {
	// Histogram[k] counts rounds concluded in k binary steps.
	Histogram map[int]int
	// FinalRate is the fraction of rounds that reached final consensus.
	FinalRate float64
}

// StepCounts measures the common-case efficiency claim: with an honest
// highest-priority proposer BA⋆ concludes in one binary step (4
// interactive steps total counting the two reduction steps and the
// final confirmation).
func StepCounts(scale Scale, maliciousFrac float64) StepCountReport {
	n := scale.users(100)
	cfg := sim.DefaultConfig(n, scale.Rounds)
	c := sim.NewCluster(cfg)
	if maliciousFrac > 0 {
		c.MakeEquivocatingProposers(int(maliciousFrac * float64(n)))
	}
	c.Run()
	hist := make(map[int]int)
	finals, total := 0, 0
	for _, nd := range c.Nodes {
		for _, st := range nd.Stats {
			if st.End == 0 {
				continue
			}
			hist[st.BinarySteps]++
			total++
			if st.Final {
				finals++
			}
		}
	}
	fr := 0.0
	if total > 0 {
		fr = float64(finals) / float64(total)
	}
	return StepCountReport{Histogram: hist, FinalRate: fr}
}
