package experiments

import (
	"fmt"
	"runtime"
	"time"

	"algorand/internal/sim"
)

// NodeCostPoint is what simulating n users for a few rounds cost the
// process, beside what the protocol did meanwhile: the read-out that
// says how far one machine is from the paper's user counts (ROADMAP
// item 3), and whether a change moved the simulator's cost per node or
// the protocol.
type NodeCostPoint struct {
	Users  int
	Rounds uint64
	// SetupS is the wall time of sim.NewCluster: keys, genesis, network,
	// every node.
	SetupS float64
	// RoundP50S and BAStepP50S are virtual time, pooled over nodes and
	// rounds 2…Rounds (round 1 is warm-up).
	RoundP50S  float64
	BAStepP50S float64
	// NetBytesPerRound is what the simulated network carried.
	NetBytesPerRound float64
	// AllocMBPerRound is heap allocated during Cluster.Run.
	AllocMBPerRound float64
	FinalRate       float64
}

// NodeCost runs the benchmark's λ-bound workload (sim-payments-1mb: τ
// 8/200/400, 1 MB blocks, modeled crypto, 100 payments/s) at n users.
// It measures the process, so a caller comparing user counts runs each
// in a process of its own.
func NodeCost(n int, rounds uint64, seed int64) NodeCostPoint {
	cfg := sim.DefaultConfig(n, rounds)
	cfg.Params.TauStep, cfg.Params.TauFinal = 200, 400
	cfg.Params.BlockSize = 1 << 20
	cfg.Seed = seed
	// Every sender's stake funds the whole payment stream.
	cfg.Weights = make([]uint64, n)
	for i := range cfg.Weights {
		cfg.Weights[i] = 1 << 20
	}

	start := time.Now()
	c := sim.NewCluster(cfg)
	setup := time.Since(start)
	c.Workload(100, seed)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Run()
	runtime.ReadMemStats(&after)
	if err := c.AgreementCheck(); err != nil {
		panic(fmt.Sprintf("experiments: agreement violated: %v", err))
	}
	if got := c.Nodes[0].Ledger().ChainLength(); got != rounds {
		panic(fmt.Sprintf("experiments: node 0 stopped at round %d of %d", got, rounds))
	}

	var steps []time.Duration
	for _, s := range baStepSpans(c, 2) {
		steps = append(steps, s.Duration())
	}
	final, _ := c.FinalityRate()
	return NodeCostPoint{
		Users:            n,
		Rounds:           rounds,
		SetupS:           setup.Seconds(),
		RoundP50S:        sim.Summarize(c.AllRoundLatencies(2, rounds)).Median.Seconds(),
		BAStepP50S:       sim.Summarize(steps).Median.Seconds(),
		NetBytesPerRound: float64(c.Net.TotalBytes()) / float64(rounds),
		AllocMBPerRound:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(rounds),
		FinalRate:        final,
	}
}
