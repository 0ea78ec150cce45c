package chaos

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/node"
	"algorand/internal/sim"
	"algorand/internal/trace"
)

var chaosSeed = flag.Int64("chaos.seed", 0, "replay one randomized chaos scenario by seed")

// report fails the test with every violation plus the full replayable
// trace; with none it logs a one-line summary.
func report(t *testing.T, res *Result, vs []Violation) {
	t.Helper()
	if len(vs) == 0 {
		return
	}
	for _, v := range vs {
		t.Errorf("invariant violated: %s", v)
	}
	t.Errorf("run trace:\n%s", res.Trace())
}

func runScenario(t *testing.T, s Scenario) *Result {
	t.Helper()
	return runScenarioWith(t, s, nil)
}

// runScenarioWith is runScenario with RunWith's pre-start hook.
func runScenarioWith(t *testing.T, s Scenario, pre func(c *sim.Cluster)) *Result {
	t.Helper()
	res := RunWith(s, pre)
	t.Cleanup(res.Cleanup)
	report(t, res, res.Check())
	return res
}

// TestChaosReplay re-runs a single randomized scenario under its seed,
// exactly as the swarm would have: the debugging entry point printed in
// every violation trace.
func TestChaosReplay(t *testing.T) {
	if *chaosSeed == 0 {
		t.Skip("pass -chaos.seed=N to replay a randomized scenario")
	}
	s := RandomScenario(*chaosSeed)
	t.Logf("replaying scenario: %s", s.String())
	runScenario(t, s)
}

// TestChaosSwarm runs a batch of randomized fault scenarios and checks
// every invariant on each. The batch is seeded deterministically so CI
// results are reproducible; CHAOS_SCENARIOS overrides the batch size
// (for long soak runs) and CHAOS_BASE_SEED shifts the seed range.
func TestChaosSwarm(t *testing.T) {
	count := 20
	if env := os.Getenv("CHAOS_SCENARIOS"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("CHAOS_SCENARIOS=%q: %v", env, err)
		}
		count = v
	}
	base := int64(1000)
	if env := os.Getenv("CHAOS_BASE_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_BASE_SEED=%q: %v", env, err)
		}
		base = v
	}
	if testing.Short() {
		count = 6
	}
	for i := 0; i < count; i++ {
		seed := base + int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runScenario(t, RandomScenario(seed))
		})
	}
}

// TestChaosDirected pins the attack classes the paper analyses to named,
// hand-built scenarios, so a regression in any one protocol defense
// fails a scenario bearing its name.
func TestChaosDirected(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
		pre  func(c *sim.Cluster) // sabotage before virtual time starts
		post func(t *testing.T, res *Result)
	}{
		{
			// §10.4: 3/16 of the network equivocates on proposals and votes.
			name: "equivocating-proposers",
			s:    Scenario{Seed: 101, Nodes: 16, Rounds: 5, Equivocators: 3},
		},
		{
			// §3 weak synchrony: an even split stalls BA⋆ outright at the
			// paper's thresholds; after healing the network must finish.
			name: "partition-stall-heal",
			s: Scenario{Seed: 102, Nodes: 16, Rounds: 6,
				Partitions: []PartitionFault{{Start: 8 * time.Second, End: 40 * time.Second, Cut: 8}}},
		},
		{
			// §8.3 crash path inside a live run.
			name: "crash-restart",
			s: Scenario{Seed: 103, Nodes: 16, Rounds: 8,
				Crashes: []CrashFault{{Node: 5, At: 6 * time.Second, RestartAt: 16 * time.Second}}},
		},
		{
			// Gossip must survive a lossy, jittery network (§8.4 redundancy).
			name: "lossy-network",
			s: Scenario{Seed: 104, Nodes: 12, Rounds: 6,
				LinkFaults: []LinkFault{{End: 30 * time.Second, LossProb: 0.20,
					ExtraDelay: 50 * time.Millisecond, ExtraJitter: 100 * time.Millisecond,
					From: -1, To: -1}}},
		},
		{
			// Targeted DoS on two known participants (§10.4): the network
			// proceeds without them; they catch up once the attack ends.
			name: "targeted-dos",
			s: Scenario{Seed: 105, Nodes: 16, Rounds: 6,
				DoS: []DoSFault{{Nodes: []int{2, 9}, Start: 5 * time.Second, End: 25 * time.Second}}},
		},
		{
			// Figure 1's transaction flow under fire: a messy payment
			// stream (duplicate submissions, stale nonces, fee churn
			// against tiny pool bounds) rides through a partition and a
			// crash. The committed-transaction invariant demands only
			// valid, unique payments ever land in blocks — and the run
			// must still commit real traffic.
			name: "tx-load-under-faults",
			s: Scenario{Seed: 108, Nodes: 12, Rounds: 6, TxLoad: 25,
				Partitions: []PartitionFault{{Start: 6 * time.Second, End: 20 * time.Second, Cut: 6}},
				Crashes:    []CrashFault{{Node: 3, At: 5 * time.Second, RestartAt: 15 * time.Second}}},
			post: func(t *testing.T, res *Result) {
				committed := res.Cluster.CommittedTxCount(res.Scenario.Rounds)
				if committed == 0 {
					t.Error("no transactions committed under load; the pipeline stalled")
				}
				st := res.Cluster.Nodes[0].TxFlow().Stats()
				if st.Duplicate == 0 && st.StaleNonce == 0 {
					t.Errorf("load generator's garbage never reached node 0's pipeline: %v", st)
				}
			},
		},
		{
			// §8.3 durable storage: every node journals to an on-disk WAL.
			// One node dies mid-run and its replacement recovers from the
			// data dir alone (full torn-tail/checksum recovery scan) before
			// catching up; a second node stays down, leaving a frozen
			// archive. The durability invariant then re-opens every data
			// dir cold and demands each disk chain equal the network's,
			// byte for byte.
			name: "durable-crash-restart",
			s: Scenario{Seed: 109, Nodes: 14, Rounds: 7, Durable: true,
				Crashes: []CrashFault{
					{Node: 4, At: 6 * time.Second, RestartAt: 16 * time.Second},
					{Node: 9, At: 10 * time.Second}}},
			post: func(t *testing.T, res *Result) {
				if res.DataDir == "" {
					t.Fatal("durable scenario ran without a data dir")
				}
				st := res.Cluster.Archive(4).Stats()
				if st.RecoveredRounds == 0 {
					t.Error("node 4's restart recovered nothing from disk; the replacement started from genesis")
				}
			},
		},
		{
			// Checkpointed fast recovery: every node snapshots its account
			// state on a 2-round grid; the crashed node's replacement
			// re-bases onto its newest on-disk checkpoint (certificate and
			// Merkle root re-verified — the disk is trusted no more than a
			// peer) and replays only the delta. The invariant suite then
			// cross-checks every checkpoint against chain replay, and the
			// durability check validates the recovered checkpoint records.
			name: "checkpointed-crash-restart",
			s: Scenario{Seed: 110, Nodes: 14, Rounds: 8, Durable: true, Checkpoint: 2,
				Crashes: []CrashFault{{Node: 6, At: 30 * time.Second, RestartAt: 40 * time.Second}}},
			post: func(t *testing.T, res *Result) {
				n := res.Cluster.Nodes[6]
				if _, ok := n.Checkpoint(); !ok {
					t.Error("restarted node holds no checkpoint")
				}
				if base := chainBase(n.Ledger()); base == 0 {
					t.Error("restart took the full-replay path; the snapshot-first re-base never happened")
				} else {
					t.Logf("node 6 re-based onto checkpoint at round %d, chain %d",
						base, n.Ledger().ChainLength())
				}
			},
		},
		{
			// Conti et al.'s silence, per piece: three nodes advertise the
			// pieces of 2 MB bodies and never serve one. A requester learns
			// it only by waiting, and what that may cost is a piece's
			// timeout: every honest node still assembles every winning body
			// inside λ_block.
			name: "piece-withholders",
			s: Scenario{Seed: 118, Nodes: 16, Rounds: 5, BlockSize: 2 << 20, LambdaBlock: 20 * time.Second,
				PieceWithholders: []int{2, 7, 11}},
			post: func(t *testing.T, res *Result) {
				requireBodiesAssembled(t, res)
				if timedOut := fetchCounter(res, "timed_out"); timedOut == 0 {
					t.Error("no piece request ever timed out; the withholders were never asked")
				} else {
					t.Logf("piece requests timed out and re-assigned: %d", timedOut)
				}
			},
		},
		{
			// Three nodes answer piece requests with pieces the proposer
			// never signed. The manifest check rejects every one, nothing
			// forged is ever served onward (validate before relay, per
			// piece), and the real pieces come from elsewhere in time.
			name: "piece-forgers",
			s: Scenario{Seed: 119, Nodes: 16, Rounds: 5, BlockSize: 2 << 20, LambdaBlock: 20 * time.Second,
				PieceForgers: []int{3, 8, 12}},
			post: func(t *testing.T, res *Result) {
				requireBodiesAssembled(t, res)
				if rejected := fetchCounter(res, "rejected"); rejected == 0 {
					t.Error("no forged piece was ever rejected; the forgers were never asked")
				} else {
					t.Logf("forged pieces rejected: %d", rejected)
				}
			},
		},
		{
			// Three nodes announce every 2 MB body as a body of one piece
			// the moment its priority message reaches them, ahead of every
			// honest holder: the one manifest anyone can make, since
			// nothing the proposer signed says how many pieces there are.
			// Their neighbours believe it until a signed manifest turns
			// up, ask them for the one piece, and get nothing. The claim
			// must not shut the honest holders out (a fetcher that pinned
			// the first manifest it saw waited out λ_block here and voted
			// for the empty block).
			name: "manifest-strippers",
			s: Scenario{Seed: 120, Nodes: 16, Rounds: 5, BlockSize: 2 << 20, LambdaBlock: 20 * time.Second,
				ManifestStrippers: []int{4, 9, 13}},
			post: func(t *testing.T, res *Result) {
				requireBodiesAssembled(t, res)
				for i, n := range res.Cluster.Nodes {
					for _, st := range n.Stats {
						if !res.Byzantine[i] && st.Empty {
							t.Errorf("node %d round %d: committed the empty block", i, st.Round)
						}
					}
				}
				unanswered := fetchCounter(res, "requested") - fetchCounter(res, "received") - fetchCounter(res, "duplicate")
				if unanswered == 0 {
					t.Error("every piece request was answered; nobody ever believed a stripped manifest")
				} else {
					t.Logf("requests made on the strength of a stripped manifest: %d", unanswered)
				}
			},
		},
		{
			// §7.1's "obtain it from other users" when nobody can be reached:
			// for the first 15 s node 5 hears every priority and every vote
			// and nothing that carries a body — no announce, no piece, no
			// fill (Conti et al.'s withheld messages, aimed at one user). It
			// waits out λ_block, votes empty, and BA⋆ still concludes on the
			// hash the others agreed on. Asking its neighbours for the body
			// gets no answer through; the round must fail with an error —
			// it used to end the process — and §8.3 catch-up, which brings
			// the blocks with their certificates, must carry the node on.
			name: "agreed-body-unreachable",
			s:    Scenario{Seed: 121, Nodes: 16, Rounds: 8},
			pre: func(c *sim.Cluster) {
				n := c.Nodes[5]
				c.Net.SetHandler(5, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
					switch m.(type) {
					case *node.BlockAnnounce, *node.BlockHave, *node.BlockPiece, *node.BlockFill:
						if c.Sim.Now() < 15*time.Second {
							return network.Verdict{}
						}
					}
					return n.HandleMessage(from, m)
				}))
			},
			post: func(t *testing.T, res *Result) {
				snap := res.Cluster.Registry(5).Snapshot()
				fetches := snap["algorand_node_block_fetches_total"].Value
				failures := snap["algorand_node_block_fetch_failures_total"].Value
				if failures == 0 {
					t.Errorf("node 5 asked for %v blocks and failed to get none; it was never cut off from an agreed body", fetches)
				}
				for _, st := range res.Cluster.Nodes[5].Stats {
					if st.Round == 1 {
						t.Error("node 5 completed round 1 itself; the agreed body reached it")
					}
				}
				t.Logf("node 5: %v by-hash fetches, %v failed, chain %d", fetches, failures, res.Cluster.Nodes[5].Ledger().ChainLength())
			},
		},
		{
			// Everything at once: equivocators, a partition, background
			// loss, a DoS'd node, and a crash spanning the heal.
			name: "kitchen-sink",
			s: Scenario{Seed: 106, Nodes: 16, Rounds: 6, Equivocators: 2,
				Partitions: []PartitionFault{{Start: 10 * time.Second, End: 30 * time.Second, Cut: 8}},
				LinkFaults: []LinkFault{{End: 20 * time.Second, LossProb: 0.10, From: -1, To: -1}},
				DoS:        []DoSFault{{Nodes: []int{7}, Start: 12 * time.Second, End: 28 * time.Second}},
				Crashes:    []CrashFault{{Node: 11, At: 8 * time.Second, RestartAt: 35 * time.Second}}},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res := runScenarioWith(t, tc.s, tc.pre)
			if tc.post != nil {
				tc.post(t, res)
			}
		})
	}
}

// fetchCounter sums one of the algorand_blockprop_pieces_* counters over
// the honest nodes of a run.
func fetchCounter(res *Result, which string) uint64 {
	var total uint64
	for i := range res.Cluster.Nodes {
		if !res.Byzantine[i] {
			total += uint64(res.Cluster.Registry(i).Snapshot()["algorand_blockprop_pieces_"+which+"_total"].Value)
		}
	}
	return total
}

// requireBodiesAssembled demands that in every round that committed a
// proposed block, every honest node other than its proposer assembled a
// body from pieces within λ_block of starting the round (its tracer's
// block_fetch span), and did not sit out the proposal wait.
func requireBodiesAssembled(t *testing.T, res *Result) {
	t.Helper()
	lambdaBlock := res.CheckParams.LambdaBlock
	proposed := 0
	var slowest time.Duration
	for i, n := range res.Cluster.Nodes {
		if res.Byzantine[i] {
			continue
		}
		for _, st := range n.Stats {
			b, ok := n.Ledger().BlockAt(st.Round)
			if st.Empty || !ok || b.Proposer == n.PublicKey() {
				continue
			}
			proposed++
			slowest = max(slowest, st.ProposalDone-st.Start)
			assembled := false
			for _, rt := range res.Cluster.Tracer(i).Rounds() {
				for _, sp := range rt.Spans {
					assembled = assembled || rt.Round == st.Round && sp.Phase == trace.PhaseBlockFetch && sp.End <= st.Start+lambdaBlock
				}
			}
			if !assembled || st.ProposalDone-st.Start >= lambdaBlock {
				t.Errorf("node %d round %d: winning body not assembled within λ_block (proposal wait %v)",
					i, st.Round, st.ProposalDone-st.Start)
			}
		}
	}
	if proposed == 0 {
		t.Error("no round committed a proposed block; nothing was disseminated")
	}
	t.Logf("%d bodies assembled; longest proposal wait %v of λ_block %v", proposed, slowest, lambdaBlock)
}

// TestChaosPartitionForks is the §8.2 scenario: with the ordinary-step
// threshold weakened during a partition, both halves commit tentative
// blocks — real forks — and the recovery protocol must reconcile them
// after the heal without ever allowing a final fork.
func TestChaosPartitionForks(t *testing.T) {
	s := Scenario{
		Seed: 107, Nodes: 20, Rounds: 30,
		Partitions:     []PartitionFault{{End: 60 * time.Second, Cut: 10}},
		TStepOverride:  0.40,
		TStepRestoreAt: 70 * time.Second,
	}
	res := runScenario(t, s)

	// Premise: the weakened threshold must actually have forked the
	// halves, otherwise this test exercises nothing.
	forked := false
	seen := map[uint64]crypto.Digest{}
	for _, n := range res.Cluster.Nodes {
		for _, st := range n.Stats {
			if st.End == 0 || st.Round >= ledger.RecoveryRoundBase {
				continue
			}
			if prev, ok := seen[st.Round]; ok && prev != st.Value {
				forked = true
			} else {
				seen[st.Round] = st.Value
			}
		}
	}
	if !forked {
		t.Fatal("partition did not produce tentative forks; scenario premise broken")
	}
}

// TestChaosDeterministic runs the same scenario twice and demands
// bit-identical outcomes — the property that makes -chaos.seed replay
// trustworthy.
func TestChaosDeterministic(t *testing.T) {
	s := RandomScenario(77)
	a, b := Run(s), Run(s)
	t.Cleanup(a.Cleanup)
	t.Cleanup(b.Cleanup)
	if a.Elapsed != b.Elapsed {
		t.Fatalf("elapsed diverged: %v vs %v", a.Elapsed, b.Elapsed)
	}
	for i := range a.Cluster.Nodes {
		ha := a.Cluster.Nodes[i].Ledger().HeadHash()
		hb := b.Cluster.Nodes[i].Ledger().HeadHash()
		if ha != hb {
			t.Fatalf("node %d head diverged across identical runs", i)
		}
	}
	if !reflect.DeepEqual(RandomScenario(77), s) {
		t.Fatal("RandomScenario is not a pure function of its seed")
	}
}

// TestBrokenNodeCaught is the checker's own regression test: a node
// whose vote thresholds are quietly lowered (it certifies blocks on far
// too few votes) must be caught by the certificate-validity invariant,
// and the failure output must carry the replayable seed.
func TestBrokenNodeCaught(t *testing.T) {
	s := Scenario{Seed: 4242, Nodes: 16, Rounds: 5}
	const broken = 13
	res := RunWith(s, func(c *sim.Cluster) {
		bad := c.Cfg.Params
		bad.TStep = 0.25
		bad.TFinal = 0.30
		c.Nodes[broken].SetParams(bad)
	})
	vs := res.Check()
	caught := false
	for _, v := range vs {
		if v.Kind == "bad-cert" && v.Node == broken {
			caught = true
		}
	}
	if !caught {
		t.Fatalf("checker missed the under-voted certificates; violations: %v", vs)
	}
	if !strings.Contains(res.Trace(), "-chaos.seed=4242") {
		t.Fatal("trace does not include the replayable seed")
	}

	// The oracle applies the step rules itself: relabelled to any other
	// step, a final certificate is refused before a vote is looked at.
	l := res.Cluster.Nodes[0].Ledger()
	for r := uint64(1); r <= l.ChainLength(); r++ {
		b, _ := l.BlockAt(r)
		prev, _ := l.BlockAt(r - 1)
		cert, ok := l.Certificate(b.Hash())
		if !ok || !cert.Final {
			continue
		}
		if err := checkCertificate(res.Cluster.Provider, l, res.Cluster.Cfg.Params, b, prev, cert); err != nil {
			t.Fatalf("round %d: honest final certificate refused: %v", r, err)
		}
		relabelled := *cert
		relabelled.Step = 9999
		if err := checkCertificate(res.Cluster.Provider, l, res.Cluster.Cfg.Params, b, prev, &relabelled); err == nil ||
			!strings.Contains(err.Error(), "final certificate from step") {
			t.Fatalf("round %d: final certificate at step 9999 got %v", r, err)
		}
		return
	}
	t.Fatal("node 0 holds no final certificate; test premise broken")
}
