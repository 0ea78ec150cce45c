package chaos

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"
)

// TestChaosAdversarialDirected pins the critique-paper attack classes
// and the degradation scenarios to named, hand-built runs, one per
// attack, so a regression in any defense fails a scenario bearing its
// name. Each case asserts its *premise* fired (the attack actually
// happened) on top of the full invariant suite.
func TestChaosAdversarialDirected(t *testing.T) {
	zipf := Scenario{Seed: 113, Nodes: 16, Rounds: 6,
		StakeDist: StakeZipf, StakeAlpha: 1.2, Equivocators: 3}
	// The §2 bound is on weight, not count: under Zipf wealth the
	// three-node prefix may hold far more than 20%, so clamp by weight
	// exactly as RandomScenario does.
	zipf.Equivocators = clampByzantinePrefix(zipf.Equivocators, zipf.StakeWeights())

	cases := []struct {
		name string
		s    Scenario
		post func(t *testing.T, res *Result)
	}{
		{
			// Wang's critique: two proposers grind the §5.2 seed chain —
			// withholding blocks to force the fallback seed, or re-timing
			// releases to the λ_priority window edge — for a long run, with
			// the seed refreshed every round so the choice reaches
			// sortition. The bias invariant bounds what the grinding buys.
			name: "seed-grinding",
			s: Scenario{Seed: 110, Nodes: 16, Rounds: 20,
				Grinders: []int{3, 11}, GrindHoldBack: 800 * time.Millisecond},
			post: func(t *testing.T, res *Result) {
				if res.Grind == nil || res.Grind.Published+res.Grind.Withheld == 0 {
					t.Fatalf("grinders never got a proposal decision: %+v", res.Grind)
				}
				t.Logf("grind decisions: published %d, withheld %d",
					res.Grind.Published, res.Grind.Withheld)
			},
		},
		{
			// Conti et al.: a quarter of all transfers are captured into
			// limbo — neither delivered nor dropped — and released 3–5s
			// later, past every 2s step timeout. BA⋆ must still terminate
			// and the chain must stay consistent.
			name: "undecidable-messages",
			s: Scenario{Seed: 111, Nodes: 16, Rounds: 6,
				Limbo: []LimboFault{{Start: 2 * time.Second, End: 30 * time.Second,
					HoldProb: 0.25, HoldFor: 3 * time.Second, HoldJitter: 2 * time.Second,
					From: -1, To: -1}}},
			post: func(t *testing.T, res *Result) {
				if res.Cluster.Net.TotalLimbo() == 0 {
					t.Fatal("no transfer was ever captured into limbo; scenario premise broken")
				}
			},
		},
		{
			// Continuous Poisson churn for most of the run: nodes keep
			// crashing and restarting (full §8.3 recovery each time) while
			// consensus proceeds.
			name: "continuous-churn",
			s: Scenario{Seed: 112, Nodes: 16, Rounds: 6,
				Churn: &ChurnFault{Start: 2 * time.Second, End: 45 * time.Second,
					EventsPerMin: 12, MinDown: 3 * time.Second, MaxDown: 10 * time.Second,
					MaxConcurrent: 2}},
			post: func(t *testing.T, res *Result) {
				if res.ChurnEvents == 0 {
					t.Fatal("churn process never crashed a node; scenario premise broken")
				}
				t.Logf("churn events: %d", res.ChurnEvents)
			},
		},
		{
			// Zipf-distributed stake with the equivocator prefix clamped by
			// weight: sortition must stay proportional to stake, and the
			// whales' committees must still satisfy every certificate.
			name: "heavy-tailed-stake",
			s:    zipf,
			post: func(t *testing.T, res *Result) {
				if f := res.Scenario.ByzantineWeightFrac(); f > 0.2 {
					t.Fatalf("Byzantine weight fraction %.2f exceeds the §2 bound", f)
				}
				w := res.Scenario.StakeWeights()
				if len(w) != res.Scenario.Nodes {
					t.Fatalf("stake vector has %d entries for %d nodes", len(w), res.Scenario.Nodes)
				}
			},
		},
		{
			// Overload: 200 tx/s offered against a pool of 96 txs, a
			// 10/s-per-sender rate cap and tiny byte bounds. Graceful
			// degradation (typed rejects, bounded queues, liveness) is
			// asserted by CheckDegradation; here we also demand the shed
			// counters and backoff machinery actually engaged.
			name: "overload-shed",
			s:    Scenario{Seed: 114, Nodes: 12, Rounds: 5, Overload: true, TxLoad: 200},
			post: func(t *testing.T, res *Result) {
				var shed uint64
				for _, n := range res.Cluster.Nodes {
					shed += n.TxFlow().Stats().Shed
				}
				if shed == 0 {
					t.Fatal("overload never shed load; scenario premise broken")
				}
				if res.TxCfg.RateLimit == 0 {
					t.Fatalf("overload run kept the default admission config: %+v", res.TxCfg)
				}
				committed := res.Cluster.CommittedTxCount(res.Scenario.Rounds)
				if committed == 0 {
					t.Error("no transactions committed under overload; shedding starved consensus")
				}
				t.Logf("shed %d submissions, committed %d txs", shed, committed)
			},
		},
		{
			// Churn across a mixed durable/diskless fleet: nodes 2 and 7
			// have no on-disk archive, so their restarts recover from the
			// memory image while everyone else replays a WAL; the
			// durability invariant audits only the nodes that own disks.
			name: "churn-durable-diskless",
			s: Scenario{Seed: 115, Nodes: 14, Rounds: 6, Durable: true,
				Diskless: []int{2, 7},
				Churn: &ChurnFault{Start: 2 * time.Second, End: 40 * time.Second,
					EventsPerMin: 10, MinDown: 3 * time.Second, MaxDown: 8 * time.Second,
					MaxConcurrent: 2}},
			post: func(t *testing.T, res *Result) {
				if res.ChurnEvents == 0 {
					t.Fatal("churn process never crashed a node; scenario premise broken")
				}
				if res.Cluster.Archive(2) != nil || res.Cluster.Archive(7) != nil {
					t.Fatal("diskless nodes were given archives")
				}
				if res.Cluster.Archive(0) == nil {
					t.Fatal("durable node 0 has no archive")
				}
			},
		},
		{
			// Every adversarial family at once: a grinder, heavy-tailed
			// stake, limbo holds, churn, and transaction load.
			name: "adversarial-kitchen-sink",
			s: Scenario{Seed: 116, Nodes: 16, Rounds: 6, TxLoad: 25,
				StakeDist: StakePareto, StakeAlpha: 1.4,
				Grinders: []int{6}, GrindHoldBack: time.Second,
				Limbo: []LimboFault{{Start: 4 * time.Second, End: 25 * time.Second,
					HoldProb: 0.15, HoldFor: 3 * time.Second, HoldJitter: time.Second,
					From: -1, To: -1}},
				Churn: &ChurnFault{Start: 3 * time.Second, End: 35 * time.Second,
					EventsPerMin: 8, MinDown: 3 * time.Second, MaxDown: 8 * time.Second,
					MaxConcurrent: 1}},
			post: func(t *testing.T, res *Result) {
				if f := res.Scenario.ByzantineWeightFrac(); f > 0.2 {
					t.Fatalf("Byzantine weight fraction %.2f exceeds the §2 bound", f)
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res := runScenario(t, tc.s)
			if tc.post != nil {
				tc.post(t, res)
			}
		})
	}
}

// TestChaosTentativeForkStraggler pins the one failure the first
// 220-seed adversarial soak found (seed 20120): churn + a partition +
// Zipf stake, under the sim's scaled-down committees, produced a
// genuine tentative fork at full thresholds — a churn-restarted node
// crossed a step threshold for the empty block while the network's
// majority certified a proposal one step later. The straggler could
// neither catch up (peer data conflicted with its own commit) nor
// finish §8.2 recovery alone (a minority never reaches the recovery
// vote threshold against a healthy majority), so it stalled forever.
// Fork-aware catch-up (node.tryAdoptFork) must walk it onto the longer
// certified chain; the run must end with consistent chains and
// restored liveness.
func TestChaosTentativeForkStraggler(t *testing.T) {
	res := runScenario(t, RandomScenario(20120))
	adoptions := 0
	for _, n := range res.Cluster.Nodes {
		adoptions += n.ForkAdoptions
	}
	// The exact trajectory is seed- and code-path-sensitive; the hard
	// assertions are the invariants above. Log whether the fork actually
	// formed so a premise drift is visible in -v output.
	t.Logf("catch-up fork adoptions across the run: %d", adoptions)
}

// TestChaosPinnedSwarmSeeds replays the swarm seeds past the range CI
// runs that a fix turned green, under every invariant the swarm checks,
// as seed 20120 is pinned above.
func TestChaosPinnedSwarmSeeds(t *testing.T) {
	seeds := []int64{
		// Node 7 (under DoS) and node 2 (restarted from disk) committed an
		// empty tentative round 3 against the majority's final block and
		// never left it while a chain ask asked for more than its wait
		// carried; with sized asks each adopts the majority's branch.
		1876,
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runScenario(t, RandomScenario(seed))
		})
	}
}

// TestChaosChurnDeterministic runs one churn-heavy scenario twice and
// demands identical outcomes — churn draws (victims, downtimes,
// inter-arrivals) must come entirely from the scenario seed for
// -chaos.seed replay to stay trustworthy.
func TestChaosChurnDeterministic(t *testing.T) {
	s := Scenario{Seed: 117, Nodes: 12, Rounds: 5,
		Churn: &ChurnFault{Start: 2 * time.Second, End: 35 * time.Second,
			EventsPerMin: 10, MinDown: 3 * time.Second, MaxDown: 8 * time.Second,
			MaxConcurrent: 2}}
	a, b := Run(s), Run(s)
	t.Cleanup(a.Cleanup)
	t.Cleanup(b.Cleanup)
	if a.ChurnEvents == 0 {
		t.Fatal("churn never fired; determinism test exercises nothing")
	}
	if a.ChurnEvents != b.ChurnEvents {
		t.Fatalf("churn events diverged: %d vs %d", a.ChurnEvents, b.ChurnEvents)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("elapsed diverged: %v vs %v", a.Elapsed, b.Elapsed)
	}
	for i := range a.Cluster.Nodes {
		ha := a.Cluster.Nodes[i].Ledger().HeadHash()
		hb := b.Cluster.Nodes[i].Ledger().HeadHash()
		if ha != hb {
			t.Fatalf("node %d head diverged across identical churned runs", i)
		}
	}
}

// TestChaosAdversarialSwarm is the seed-matrix soak for the adversarial
// generator: CHAOS_ADV_SOAK=N runs N consecutive seeds (drawing from
// the full fault vocabulary, adversarial families included) and demands
// zero violations. Skipped without the env var — the per-commit CI job
// runs the directed scenarios above instead.
func TestChaosAdversarialSwarm(t *testing.T) {
	env := os.Getenv("CHAOS_ADV_SOAK")
	if env == "" {
		t.Skip("set CHAOS_ADV_SOAK=N to soak N adversarial seeds")
	}
	count, err := strconv.Atoi(env)
	if err != nil {
		t.Fatalf("CHAOS_ADV_SOAK=%q: %v", env, err)
	}
	const base = int64(20000)
	for i := 0; i < count; i++ {
		seed := base + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runScenario(t, RandomScenario(seed))
		})
	}
}
