package experiments

import (
	"fmt"
	"time"

	"algorand/internal/params"
	"algorand/internal/sim"
)

// AblationResult compares a design choice on and off.
type AblationResult struct {
	Name     string
	Baseline LatencyPoint
	Ablated  LatencyPoint
	// ExtraBytesFraction is ablated/baseline total network bytes.
	ExtraBytesFraction float64
}

// ablate runs one design choice on and off: two runs at one seed that
// differ only in the switch flip sets, optionally against the §10.4
// adversary (a fifth of the users equivocating as proposers).
func ablate(scale Scale, name string, seed int64, attack bool, flip func(*params.Params)) AblationResult {
	n := scale.users(100)
	run := func(ablated bool) (LatencyPoint, int64) {
		cfg := sim.DefaultConfig(n, scale.Rounds)
		cfg.Seed = seed
		if ablated {
			flip(&cfg.Params)
		}
		c := sim.NewCluster(cfg)
		if attack {
			c.MakeEquivocatingProposers(n / 5)
		}
		c.Run()
		if err := c.AgreementCheck(); err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		final, empty := c.FinalityRate()
		return LatencyPoint{
			Users:     n,
			Latency:   sim.Summarize(c.AllRoundLatencies(1, cfg.Rounds)),
			FinalRate: final,
			EmptyRate: empty,
		}, c.Net.TotalBytes()
	}
	base, baseBytes := run(false)
	abl, ablBytes := run(true)
	return AblationResult{
		Name:               name,
		Baseline:           base,
		Ablated:            abl,
		ExtraBytesFraction: float64(ablBytes) / float64(baseBytes),
	}
}

// AblatePriorityGossip measures the §6 priority pre-gossip: without the
// small priority announcements, every proposed block travels further
// before being discarded, costing bandwidth and block-proposal latency.
func AblatePriorityGossip(scale Scale) AblationResult {
	return ablate(scale, "priority-pre-gossip", 99, false,
		func(p *params.Params) { p.AblateNoPriorityGossip = true })
}

// AblateVoteNext3 disables Algorithm 8's vote-in-next-3-steps and runs
// the §10.4 adversary: without the extra votes, nodes that finish a
// step late rely on the common coin to catch up, increasing empty
// rounds and latency tails.
func AblateVoteNext3(scale Scale) AblationResult {
	return ablate(scale, "vote-next-3-steps", 77, true,
		func(p *params.Params) { p.AblateNoVoteNext3 = true })
}

// AblateEquivocationDiscard compares the §10.4 discard-both policy with
// keep-first under the equivocation attack: keep-first lets different
// users adopt different versions of the attacker's block, sending more
// rounds through the slow (empty-block) path.
func AblateEquivocationDiscard(scale Scale) AblationResult {
	return ablate(scale, "equivocation-discard-both", 55, true,
		func(p *params.Params) { p.AblateKeepFirstOnEquivocation = true })
}

// CoinAblationResult reports the vote-splitting experiment.
type CoinAblationResult struct {
	WithCoin    []int // binary steps to consensus per trial
	WithoutCoin []int
	MaxSteps    int
	// StuckWithout counts trials that hit MaxSteps without the coin.
	StuckWithout int
	StuckWith    int
}

// Mean returns the average steps of a trial set (MaxSteps for stuck).
func mean(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// Summary renders the result.
func (r CoinAblationResult) Summary() string {
	return fmt.Sprintf("with coin: mean %.1f steps (%d/%d stuck); without: mean %.1f steps (%d/%d stuck)",
		mean(r.WithCoin), r.StuckWith, len(r.WithCoin),
		mean(r.WithoutCoin), r.StuckWithout, len(r.WithoutCoin))
}

// durationScale for the attack harness.
const coinAttackLambda = 2 * time.Second
