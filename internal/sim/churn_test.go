package sim

import (
	"errors"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/node"
	"algorand/internal/txflow"
	"algorand/internal/vtime"
)

// churnConfig accelerates the protocol timeouts the way the chaos
// harness does, so churn lifecycle tests measure recovery logic rather
// than the paper's wall-clock λ values.
func churnConfig(nodes int, rounds uint64) Config {
	cfg := DefaultConfig(nodes, rounds)
	cfg.Params.LambdaPriority = time.Second
	cfg.Params.LambdaStepVar = time.Second
	cfg.Params.LambdaBlock = 5 * time.Second
	cfg.Params.LambdaStep = 2 * time.Second
	cfg.Params.MaxSteps = 8
	cfg.RecoveryInterval = 90 * time.Second
	return cfg
}

// TestChurnRestartDuringRestart crashes a node, restarts it, and then
// crashes the replacement while it is still inside its rejoin phase —
// the lifecycle continuous churn produces whenever the inter-arrival
// time undercuts the rejoin time. The second replacement must inherit
// whatever partial state the first one accumulated and still reach the
// end of the run in agreement with the network.
func TestChurnRestartDuringRestart(t *testing.T) {
	cfg := churnConfig(12, 6)
	const victim = 4
	c := NewCluster(cfg)
	restarts := 0
	c.Sim.Spawn("churn-script", func(p *vtime.Proc) {
		for c.Nodes[victim].Ledger().ChainLength() < 2 {
			p.Sleep(100 * time.Millisecond)
		}
		c.CrashNode(victim)
		p.Sleep(2 * time.Second)
		if _, _, err := c.RestartNode(victim, time.Hour); err != nil {
			t.Errorf("first restart: %v", err)
			return
		}
		restarts++
		// Kill the replacement before its rejoin can plausibly finish
		// (sync alone needs at least one request/reply exchange).
		p.Sleep(500 * time.Millisecond)
		c.CrashNode(victim)
		p.Sleep(2 * time.Second)
		if _, _, err := c.RestartNode(victim, time.Hour); err != nil {
			t.Errorf("second restart: %v", err)
			return
		}
		restarts++
	})
	c.Run()
	if restarts != 2 {
		t.Fatalf("script completed %d of 2 restarts", restarts)
	}
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	if got := c.Nodes[victim].Ledger().ChainLength(); got < cfg.Rounds {
		t.Errorf("victim chain reached %d of %d rounds", got, cfg.Rounds)
	}
}

// TestChurnJoinMidRound models a brand-new machine joining the network
// in the middle of a round: the slot's crashed predecessor leaves
// nothing behind (empty store, no archive), so the joiner must fetch
// and certificate-validate the whole chain from peers while a round is
// in flight, then fall into lockstep.
func TestChurnJoinMidRound(t *testing.T) {
	cfg := churnConfig(12, 6)
	const joiner = 7
	c := NewCluster(cfg)
	var restored uint64
	joined := false
	c.Sim.Spawn("join-script", func(p *vtime.Proc) {
		for c.Nodes[0].Ledger().ChainLength() < 2 {
			p.Sleep(100 * time.Millisecond)
		}
		c.CrashNode(joiner)
		// Re-enter off the round grid: an odd offset lands the join in
		// the middle of the network's current round.
		p.Sleep(1300 * time.Millisecond)
		var err error
		_, restored, err = c.RestartNodeFromStore(joiner, ledger.NewStore(0, 1), time.Hour)
		if err != nil {
			t.Errorf("join: %v", err)
			return
		}
		joined = true
	})
	c.Run()
	if !joined {
		t.Fatal("join script never ran")
	}
	if restored != 0 {
		t.Fatalf("joiner restored %d rounds from an empty store", restored)
	}
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	if got := c.Nodes[joiner].Ledger().ChainLength(); got < cfg.Rounds {
		t.Errorf("joiner chain reached %d of %d rounds", got, cfg.Rounds)
	}
}

// TestChurnScriptedDeterministic runs one scripted churn sequence (two
// crash/restart cycles at fixed virtual times) twice and demands
// bit-identical outcomes: same elapsed virtual time, same head hash on
// every node. Replayability is what makes a churned chaos seed
// debuggable, and it holds only if restarts introduce no randomness of
// their own.
func TestChurnScriptedDeterministic(t *testing.T) {
	run := func() (time.Duration, []crypto.Digest) {
		cfg := churnConfig(10, 5)
		c := NewCluster(cfg)
		c.Sim.Spawn("churn-script", func(p *vtime.Proc) {
			p.Sleep(8 * time.Second)
			c.CrashNode(5)
			p.Sleep(4 * time.Second)
			if _, _, err := c.RestartNode(5, time.Hour); err != nil {
				t.Errorf("restart 5: %v", err)
			}
			p.Sleep(3 * time.Second)
			c.CrashNode(2)
			p.Sleep(5 * time.Second)
			if _, _, err := c.RestartNode(2, time.Hour); err != nil {
				t.Errorf("restart 2: %v", err)
			}
		})
		elapsed := c.Run()
		heads := make([]crypto.Digest, len(c.Nodes))
		for i, n := range c.Nodes {
			heads[i] = n.Ledger().HeadHash()
		}
		return elapsed, heads
	}
	elapsedA, headsA := run()
	elapsedB, headsB := run()
	if elapsedA != elapsedB {
		t.Fatalf("elapsed diverged across identical runs: %v vs %v", elapsedA, elapsedB)
	}
	for i := range headsA {
		if headsA[i] != headsB[i] {
			t.Fatalf("node %d head diverged across identical churned runs", i)
		}
	}
}

// TestRestartedNodeGossipsSubmissions pins that a replacement node is a
// full node: a payment submitted to it after its restart is flushed to
// its neighbors like any other node's, so it commits even though the
// replacement — a token-stake account sortition passes over — proposes
// nothing itself.
func TestRestartedNodeGossipsSubmissions(t *testing.T) {
	cfg := churnConfig(12, 8)
	const victim = 4
	cfg.Weights = make([]uint64, cfg.N)
	for i := range cfg.Weights {
		cfg.Weights[i] = 1000
	}
	cfg.Weights[victim] = 1
	c := NewCluster(cfg)
	tx := &ledger.Transaction{From: c.Identity(0).PublicKey(), To: c.Identity(1).PublicKey(), Amount: 1}
	tx.Sign(c.Identity(0))
	c.Sim.Spawn("restart-then-submit", func(p *vtime.Proc) {
		for c.Nodes[victim].Ledger().ChainLength() < 2 {
			p.Sleep(100 * time.Millisecond)
		}
		c.CrashNode(victim)
		p.Sleep(2 * time.Second)
		if _, _, err := c.RestartNode(victim, time.Hour); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		if err := c.Nodes[victim].SubmitTx(tx); err != nil {
			t.Errorf("submit to the restarted node: %v", err)
		}
	})
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	l := c.Nodes[0].Ledger()
	for r := uint64(1); r <= l.ChainLength(); r++ {
		b, _ := l.BlockAt(r)
		for i := range b.Txns {
			if b.Txns[i].ID() != tx.ID() {
				continue
			}
			if b.Proposer == c.Identity(victim).PublicKey() {
				t.Fatalf("round %d: the payment was proposed by the restarted node itself", r)
			}
			return
		}
	}
	t.Fatalf("payment submitted to the restarted node never committed (chain %d)", l.ChainLength())
}

// TestCaughtUpNodeShedsCommittedTransactions pins that a block a node
// adopts through §8.3 catch-up gets the same post-commit hook as a block
// of a round it agreed on: a token-stake node is cut off under load for
// the rest of the run and healed once the others are done, so its only
// way to the head is trySyncBehind. Afterwards its mempool must hold
// nothing the chain already committed, and its nonce floors must reject
// a replay of anything committed in its absence.
func TestCaughtUpNodeShedsCommittedTransactions(t *testing.T) {
	const victim, rounds = 4, 6
	cfg := churnConfig(12, rounds)
	cfg.Weights = make([]uint64, cfg.N)
	for i := range cfg.Weights {
		cfg.Weights[i] = 1000
	}
	cfg.Weights[victim] = 1
	c := NewCluster(cfg)
	c.Workload(20, 7)
	cut := false
	c.Net.AddPartition(func(a, b int) bool { return cut && (a == victim || b == victim) })
	c.Sim.Spawn("partition-script", func(p *vtime.Proc) {
		for c.Nodes[0].Ledger().ChainLength() < 2 {
			p.Sleep(100 * time.Millisecond)
		}
		cut = true
		for i, n := range c.Nodes {
			for i != victim && !n.Done() {
				p.Sleep(100 * time.Millisecond)
			}
		}
		cut = false
	})
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}

	v := c.Nodes[victim]
	l := v.Ledger()
	if l.ChainLength() != rounds || l.HeadHash() != c.Nodes[0].Ledger().HeadHash() {
		t.Fatalf("victim at round %d, network at %d", l.ChainLength(), c.Nodes[0].Ledger().ChainLength())
	}
	agreed := map[uint64]bool{}
	for _, st := range v.Stats {
		agreed[st.Round] = true
	}
	replayed := 0
	for r := uint64(1); r <= rounds; r++ {
		if agreed[r] {
			continue
		}
		b, _ := l.BlockAt(r)
		for i := range b.Txns {
			replayed++
			if err := v.TxFlow().Submit(&b.Txns[i]); !errors.Is(err, txflow.ErrStaleNonce) {
				t.Fatalf("round %d, adopted by catch-up: replay of a committed payment got %v, want stale-nonce", r, err)
			}
		}
	}
	if replayed == 0 {
		t.Fatal("no payment committed in the victim's absence; test premise broken")
	}
	// Whatever is still pending anywhere was admitted and never committed.
	uncommitted := c.WorkloadStats().Admitted - int64(c.CommittedTxCount(rounds))
	if pending := int64(v.TxFlow().Len()); pending > uncommitted {
		t.Fatalf("victim holds %d pending payments, only %d are uncommitted", pending, uncommitted)
	}
}

// TestRestartedNodeFetchesAgreedBlockOverNetwork: a restarted node enters
// its first live rounds after the bodies went round, so BA⋆ concludes for
// it on a hash it cannot resolve. The body reaches it through the one
// by-hash fetch every binary runs — a BlockRequest to a neighbour and a
// BlockFill back, both on the simulated wire with their bytes and their
// latency — and the round commits. An oracle once resolved the hash from
// another node's memory and moved nothing.
func TestRestartedNodeFetchesAgreedBlockOverNetwork(t *testing.T) {
	// The paper's λ, not the accelerated ones: there a failed live round
	// costs more than the network needs for a round, and a restarted node
	// keeps up by syncing without ever running a round of its own.
	cfg := DefaultConfig(12, 10)
	cfg.Params.BlockSize = 64 << 10
	const victim = 4
	cfg.Weights = make([]uint64, cfg.N)
	for i := range cfg.Weights {
		cfg.Weights[i] = 1000
	}
	cfg.Weights[victim] = 1 // never a proposer: every body it commits came from somebody else
	c := NewCluster(cfg)
	c.Workload(20, 7)

	var askedAt int64                  // Net.TotalBytes when the victim last asked for a block
	fills := map[crypto.Digest]int64{} // agreed hash → bytes the network moved to answer
	for i := range c.Nodes {
		if n := c.Nodes[i]; i != victim {
			c.Net.SetHandler(i, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
				if _, ok := m.(*node.BlockRequest); ok && from == victim {
					askedAt = c.Net.TotalBytes()
				}
				return n.HandleMessage(from, m)
			}))
		}
	}
	c.Sim.Spawn("restart-script", func(p *vtime.Proc) {
		for c.Nodes[victim].Ledger().ChainLength() < 2 {
			p.Sleep(100 * time.Millisecond)
		}
		c.CrashNode(victim)
		for c.Nodes[0].Ledger().ChainLength() < 3 {
			p.Sleep(100 * time.Millisecond)
		}
		n, _, err := c.RestartNode(victim, time.Hour)
		if err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		c.Net.SetHandler(victim, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
			if f, ok := m.(*node.BlockFill); ok {
				if moved := c.Net.TotalBytes() - askedAt; moved < int64(f.WireSize()) {
					t.Errorf("a %d-byte fill arrived and the network moved %d bytes since it was asked for", f.WireSize(), moved)
				}
				fills[f.Block.Hash()] = int64(f.WireSize())
			}
			return n.HandleMessage(from, m)
		}))
	})
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}

	v := c.Nodes[victim]
	if got := v.Ledger().ChainLength(); got < cfg.Rounds {
		t.Fatalf("victim chain reached %d of %d rounds", got, cfg.Rounds)
	}
	fetched := 0
	for _, st := range v.Stats {
		if size, ok := fills[st.Value]; ok && !st.Empty {
			fetched++
			t.Logf("round %d: agreed body fetched by hash, %d bytes", st.Round, size)
		}
	}
	if fetched == 0 {
		t.Fatal("the restarted node committed no non-empty block it had to fetch by hash; test premise broken")
	}
	snap := c.Registry(victim).Snapshot()
	if got := snap["algorand_node_block_fetches_total"].Value; got < float64(fetched) {
		t.Errorf("block fetch counter %v after %d fetched rounds", got, fetched)
	}
	if got := snap["algorand_node_block_fetch_failures_total"].Value; got != 0 {
		t.Errorf("%v block fetches failed on a healthy network", got)
	}
}
