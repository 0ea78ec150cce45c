package sim

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/node"
	"algorand/internal/trace"
	"algorand/internal/vtime"
	"algorand/internal/wire"
)

func TestSmallClusterReachesConsensus(t *testing.T) {
	cfg := DefaultConfig(30, 3)
	c := NewCluster(cfg)
	c.Run()

	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	for r := uint64(1); r <= 3; r++ {
		lat := c.RoundLatencies(r)
		if len(lat) < cfg.N*9/10 {
			t.Fatalf("round %d completed on only %d/%d nodes", r, len(lat), cfg.N)
		}
	}
	final, empty := c.FinalityRate()
	if final < 0.9 {
		t.Fatalf("finality rate %.2f, want ≈1 in the honest case", final)
	}
	if empty > 0.5 {
		t.Fatalf("empty-block rate %.2f too high for honest run", empty)
	}
}

func TestHeadsConverge(t *testing.T) {
	c := NewCluster(DefaultConfig(25, 3))
	c.Run()
	head := c.Nodes[0].Ledger().HeadHash()
	for i, n := range c.Nodes {
		if n.Ledger().HeadHash() != head {
			// A node may legitimately lag by a round at the horizon; only
			// identical or ancestor heads are acceptable.
			if n.Ledger().ChainLength()+1 < c.Nodes[0].Ledger().ChainLength() {
				t.Fatalf("node %d head diverged", i)
			}
		}
	}
}

func TestRoundLatencyUnderAMinute(t *testing.T) {
	// The headline: with paper timeouts and a 1 MB block, rounds
	// complete in well under a minute (paper: ~22s at 50k users).
	cfg := DefaultConfig(50, 2)
	c := NewCluster(cfg)
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	p := Summarize(c.AllRoundLatencies(1, 2))
	if p.N == 0 {
		t.Fatal("no completed rounds")
	}
	if p.Median > time.Minute {
		t.Fatalf("median round latency %v, want < 1m", p.Median)
	}
	if p.Median < 5*time.Second {
		t.Fatalf("median %v implausibly fast given λ_priority+λ_stepvar=10s", p.Median)
	}
}

func TestTransactionsConfirm(t *testing.T) {
	cfg := DefaultConfig(25, 3)
	c := NewCluster(cfg)

	// Submit a payment from user 1 to user 2 before starting.
	tx := &ledger.Transaction{
		From:   c.Identity(1).PublicKey(),
		To:     c.Identity(2).PublicKey(),
		Amount: 3,
		Nonce:  0,
	}
	tx.Sign(c.Identity(1))
	c.Sim.After(0, func() {
		if err := c.Nodes[1].SubmitTx(tx); err != nil {
			t.Errorf("submit: %v", err)
		}
	})

	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	// The payment must be reflected in (nearly) everyone's balances.
	confirmed := 0
	for _, n := range c.Nodes {
		if n.Ledger().Balances().MoneyOf(tx.To) == cfg.WeightEach+3 {
			confirmed++
		}
	}
	if confirmed < len(c.Nodes)*8/10 {
		t.Fatalf("tx confirmed on only %d/%d nodes", confirmed, len(c.Nodes))
	}
}

func TestPhaseBreakdownSane(t *testing.T) {
	cfg := DefaultConfig(30, 2)
	c := NewCluster(cfg)
	c.Run()
	ph := c.Phases(1)
	if ph.RoundCompletion.N == 0 {
		t.Fatal("no phase data")
	}
	// Block proposal takes at least λ_priority + λ_stepvar.
	min := cfg.Params.LambdaPriority + cfg.Params.LambdaStepVar
	if ph.BlockProposal.Median < min {
		t.Fatalf("proposal phase %v < %v", ph.BlockProposal.Median, min)
	}
	if ph.BAWithoutFinal.Median <= 0 || ph.FinalStep.Median <= 0 {
		t.Fatalf("phases not positive: %+v", ph)
	}
}

func TestEquivocationAttackPreservesAgreement(t *testing.T) {
	cfg := DefaultConfig(40, 3)
	c := NewCluster(cfg)
	c.MakeEquivocatingProposers(8) // 20% malicious

	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatalf("safety violated under equivocation attack: %v", err)
	}
	// Honest majority must still complete rounds.
	lat := c.AllRoundLatencies(1, 3)
	if len(lat) < 2*cfg.N {
		t.Fatalf("too few completed rounds under attack: %d", len(lat))
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, int64) {
		c := NewCluster(DefaultConfig(20, 2))
		c.Run()
		return c.Sim.EventCount, c.Net.TotalBytes()
	}
	e1, b1 := run()
	e2, b2 := run()
	if e1 != e2 || b1 != b2 {
		t.Fatalf("nondeterministic: events %d/%d bytes %d/%d", e1, e2, b1, b2)
	}
}

func TestBandwidthAccounting(t *testing.T) {
	cfg := DefaultConfig(25, 2)
	c := NewCluster(cfg)
	end := c.Run()
	bw := c.BandwidthPerNode(end)
	var nonzero int
	for _, b := range bw {
		if b > 0 {
			nonzero++
		}
	}
	if nonzero < len(bw)/2 {
		t.Fatalf("only %d nodes sent traffic", nonzero)
	}
	if c.CommittedPayloadBytes(2) <= 0 {
		t.Fatal("no payload committed")
	}
}

func TestSkewedWeightDistribution(t *testing.T) {
	// The paper's evaluation gives everyone an equal share ("maximizes
	// the number of messages"); real deployments are skewed. Consensus
	// must work identically when one user holds 30% of the money and
	// the rest follow a long tail.
	cfg := DefaultConfig(30, 3)
	weights := make([]uint64, cfg.N)
	var total uint64
	for i := range weights {
		weights[i] = uint64(1 + i) // long tail
		total += weights[i]
	}
	weights[0] = total / 2 // a whale with ~1/3 of the supply
	cfg.Weights = weights
	c := NewCluster(cfg)
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	lat := c.AllRoundLatencies(1, 3)
	if len(lat) < cfg.N*2 {
		t.Fatalf("only %d round completions", len(lat))
	}
	// The whale's ledger weight matches its genesis share.
	whale := c.Nodes[0].PublicKey()
	if got := c.Nodes[0].Ledger().Balances().MoneyOf(whale); got != weights[0] {
		t.Fatalf("whale balance %d, want %d", got, weights[0])
	}
}

func TestPullGossipBoundsBlockTraffic(t *testing.T) {
	// With inv/getdata dissemination, each node downloads each block
	// body roughly once; total block traffic must be O(N · blocksize),
	// not O(N · fanout · blocksize).
	cfg := DefaultConfig(40, 2)
	cfg.Params.BlockSize = 1 << 20
	c := NewCluster(cfg)
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	perNode := float64(c.Net.TotalBytes()) / float64(cfg.N) / float64(cfg.Rounds)
	// Expect roughly one block download per node per round plus some
	// proposer/loser overlap; 9 copies each would be ~9 MB.
	if perNode > 4*float64(cfg.Params.BlockSize) {
		t.Fatalf("per-node traffic %.1f MB/round; pull gossip should bound this near 1-2 blocks",
			perNode/(1<<20))
	}
	if perNode < float64(cfg.Params.BlockSize)/2 {
		t.Fatalf("per-node traffic %.1f MB/round implausibly low", perNode/(1<<20))
	}
}

func TestWithholdingCommitteeMembers(t *testing.T) {
	// 20% of users are selected for committees but never speak (a
	// fail-stop / DoS'd population). h=80% honest online is exactly the
	// paper's operating assumption: rounds must still complete.
	cfg := DefaultConfig(40, 3)
	c := NewCluster(cfg)
	for i := 0; i < 8; i++ {
		c.Nodes[i].VoteSaboteur = func(n *node.Node, v *ledger.Vote) []*ledger.Vote {
			return nil // withhold every vote
		}
	}
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	completions := len(c.AllRoundLatencies(1, 3))
	if completions < 32*3*8/10 {
		t.Fatalf("only %d round completions with 20%% silent users", completions)
	}
}

// TestRunningNodeIsOneProcess: a node in the middle of its rounds is one
// vtime process, so one goroutine. Its transaction flush is a timer, and
// its §7.4 final step runs in that process before the commit.
func TestRunningNodeIsOneProcess(t *testing.T) {
	// A process of an earlier test that has just returned may not have
	// exited yet: count once the number holds still.
	goroutines := func() int {
		n, still := runtime.NumGoroutine(), 0
		for deadline := time.Now().Add(2 * time.Second); still < 3 && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				still++
			} else {
				n, still = m, 0
			}
		}
		return n
	}
	before := goroutines()
	cfg := DefaultConfig(10, 100)
	cfg.Horizon = 25 * time.Second
	c := NewCluster(cfg)
	c.Run()
	if added := goroutines() - before; added != cfg.N {
		t.Fatalf("%d running nodes added %d goroutines, want one each", cfg.N, added)
	}
	for i, n := range c.Nodes {
		if n.Done() || len(n.Stats) == 0 {
			t.Fatalf("node %d: done %v after %d rounds, want it running past its first", i, n.Done(), len(n.Stats))
		}
	}
}

func TestWorkloadTransactionsGetCommitted(t *testing.T) {
	cfg := DefaultConfig(25, 3)
	c := NewCluster(cfg)
	c.Workload(2.0, 99) // 2 tx/s of virtual time
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	got := c.CommittedTxCount(3)
	// Three rounds ≈ 33s of virtual time at 2 tx/s ≈ ~60 submitted; most
	// should land in blocks (those submitted before the last proposal).
	if got < 10 {
		t.Fatalf("only %d workload transactions committed", got)
	}
	// Conservation: total money is unchanged.
	if c.Nodes[0].Ledger().Balances().Total != uint64(cfg.N)*cfg.WeightEach {
		t.Fatal("money supply changed")
	}
}

func TestPeerReshufflingKeepsConsensus(t *testing.T) {
	cfg := DefaultConfig(25, 3)
	c := NewCluster(cfg)
	c.StartPeerReshuffling(8 * time.Second) // ≈ per round, as in the paper
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	if len(c.AllRoundLatencies(1, 3)) < 2*cfg.N {
		t.Fatal("rounds did not complete under reshuffling")
	}
}

// TestSoakManyRounds is a longer deterministic run: 40 users, 12
// rounds, continuous transaction workload and per-round peer
// reshuffling, checking agreement, finality and state consistency at
// the end.
func TestSoakManyRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cfg := DefaultConfig(40, 12)
	c := NewCluster(cfg)
	c.Workload(1.0, 7)
	c.StartPeerReshuffling(20 * time.Second)
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	if got := c.Nodes[0].Ledger().ChainLength(); got != 12 {
		t.Fatalf("chain length %d", got)
	}
	final, _ := c.FinalityRate()
	if final < 0.8 {
		t.Fatalf("finality rate %.2f over 12 rounds", final)
	}
	// All nodes that finished agree on the head block-for-block.
	ref := c.Nodes[0].Ledger()
	for i, n := range c.Nodes {
		l := n.Ledger()
		upTo := min(l.ChainLength(), ref.ChainLength())
		for r := uint64(1); r <= upTo; r++ {
			a, _ := ref.BlockAt(r)
			b, _ := l.BlockAt(r)
			if a.Hash() != b.Hash() {
				t.Fatalf("node %d disagrees at round %d", i, r)
			}
		}
	}
	// Balances are consistent and conserve the supply.
	var sum uint64
	ref.Balances().Accounts(func(a ledger.AccountRecord) bool {
		sum += a.Money
		return true
	})
	if sum != uint64(cfg.N)*cfg.WeightEach {
		t.Fatalf("money supply drifted: %d", sum)
	}
}

func min(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// TestPendingProposalsFollowTheRound: once a round commits, no ledger
// still holds a proposal that lost it — every proposer but the winner
// used to keep its own body, a full block at load, for the life of the
// process — while every committed hash still resolves.
func TestPendingProposalsFollowTheRound(t *testing.T) {
	cfg := DefaultConfig(16, 5)
	cfg.Params.BlockSize = 64 << 10
	c := NewCluster(cfg)
	c.Workload(20, 5)
	proposed := map[crypto.Digest]uint64{} // every body any node heard announced → its round
	for i := range c.Nodes {
		n := c.Nodes[i]
		c.Net.SetHandler(i, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
			if pg, ok := m.(*node.PriorityGossip); ok {
				proposed[pg.M.BlockHash] = pg.M.Round
			}
			return n.HandleMessage(from, m)
		}))
	}
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	ref := c.Nodes[0].Ledger()
	lost := 0
	for h, round := range proposed {
		committed, _ := ref.HashAt(round)
		if h != committed {
			lost++
		}
		for i, n := range c.Nodes {
			_, held := n.Ledger().BlockOfHash(h)
			switch {
			case h == committed && !held:
				t.Errorf("node %d: committed block of round %d does not resolve", i, round)
			case h != committed && held && round <= n.Ledger().ChainLength():
				t.Errorf("node %d at round %d still holds a proposal that lost round %d", i, n.Ledger().ChainLength(), round)
			}
		}
	}
	if lost == 0 {
		t.Fatal("every proposal heard of was committed; test premise broken")
	}
}

// TestBlocksAreBuiltOnlyByProposers: §6 has a user run proposer sortition
// first and prepare a block only if selected, so over a run a node's
// assemble spans are its proposals, one for one — and most node-rounds
// have neither.
func TestBlocksAreBuiltOnlyByProposers(t *testing.T) {
	const n, rounds = 50, 3
	c := NewCluster(DefaultConfig(n, rounds))
	c.Workload(20, 5)
	// A proposer's own priority message reaches its neighbours straight
	// from it, whatever the relay filter makes of it afterwards.
	proposed := make([]map[uint64]bool, n)
	for i := range c.Nodes {
		nd := c.Nodes[i]
		proposed[i] = map[uint64]bool{}
		c.Net.SetHandler(i, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
			if pg, ok := m.(*node.PriorityGossip); ok && pg.M.Proposer == c.Nodes[from].PublicKey() {
				proposed[from][pg.M.Round] = true
			}
			return nd.HandleMessage(from, m)
		}))
	}
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	proposals := 0
	for i := range c.Nodes {
		assembled, elected := 0, 0
		for _, rt := range c.Tracer(i).Rounds() {
			for _, s := range rt.Spans {
				switch s.Phase {
				case trace.PhaseAssemble:
					assembled++
				case trace.PhaseSortition:
					elected++
				}
			}
		}
		if assembled != len(proposed[i]) {
			t.Errorf("node %d assembled %d blocks and gossiped %d proposals", i, assembled, len(proposed[i]))
		}
		if elected != rounds {
			t.Errorf("node %d recorded %d sortition spans in %d rounds", i, elected, rounds)
		}
		proposals += len(proposed[i])
	}
	if proposals < rounds || proposals > n*rounds/2 {
		t.Fatalf("%d proposals over %d node-rounds; test premise broken", proposals, n*rounds)
	}
}

// paymentRun drives a 50-node cluster for three rounds with a submitter
// that, like a client reusing one buffer, scribbles over every payment as
// soon as SubmitTx returns. It returns the cluster, what was submitted
// (wire bytes by transaction ID) and what the process allocated.
func paymentRun(t *testing.T, txPerSecond int) (*Cluster, map[crypto.Digest][]byte, uint64) {
	const n, rounds = 50, 3
	c := NewCluster(DefaultConfig(n, rounds))
	submitted := make(map[crypto.Digest][]byte)
	if txPerSecond > 0 {
		c.Sim.Spawn("submitter", func(p *vtime.Proc) {
			nonces := make([]uint64, n)
			for i := 0; !c.Sim.Stopped() && !c.allNodesDone(); i++ {
				p.Sleep(time.Second / time.Duration(txPerSecond))
				from := i % n
				tx := &ledger.Transaction{From: c.ids[from].PublicKey(), To: c.ids[(from+7)%n].PublicKey(), Amount: 1, Nonce: nonces[from]}
				tx.Sign(c.ids[from])
				id, enc := tx.ID(), wire.Encode(tx)
				if err := c.Nodes[from].SubmitTx(tx); err != nil {
					continue
				}
				nonces[from]++
				submitted[id] = enc
				tx.Amount, tx.Nonce, tx.To = 999, 77, crypto.PublicKey{1}
				for j := range tx.Sig {
					tx.Sig[j] ^= 0xff
				}
			}
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Run()
	runtime.ReadMemStats(&after)
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	return c, submitted, after.TotalAlloc - before.TotalAlloc
}

// TestPaymentIsOneObjectFromSubmitToBlock: a payment is copied once where
// it enters the cluster and then handed from pool to outbox to batch to
// pool as it is, every node holding the same object. What every node
// commits is byte for byte what the sender submitted, and what a payment
// costs a node to hear, hold, hand on and commit — the run's allocation
// over an idle run's, per payment per node — stays a few words over the
// payment's own copy into the blocks that carry it.
func TestPaymentIsOneObjectFromSubmitToBlock(t *testing.T) {
	c, submitted, loaded := paymentRun(t, 100)
	committed := 0
	for i, nd := range c.Nodes {
		for r := uint64(1); r <= nd.Ledger().ChainLength(); r++ {
			b, ok := nd.Ledger().BlockAt(r)
			if !ok {
				t.Fatalf("node %d has no block %d", i, r)
			}
			for j := range b.Txns {
				tx := &b.Txns[j]
				if want, ok := submitted[tx.ID()]; !ok || !bytes.Equal(wire.Encode(tx), want) {
					t.Fatalf("node %d, round %d, payment %d: committed %x, submitted %x", i, r, j, wire.Encode(tx), want)
				}
			}
			if i == 0 {
				committed += len(b.Txns)
			}
		}
	}
	if committed < len(submitted)/3 {
		t.Fatalf("%d of %d submitted payments committed; test premise broken", committed, len(submitted))
	}
	if !poolKeeps() {
		t.Skip("sync.Pool drops Puts here (race detector): every batch ID and block hash allocates its preimage again")
	}
	_, _, idle := paymentRun(t, 0)
	const bound = 250 // bytes per payment per node
	per := (float64(loaded) - float64(idle)) / float64(len(submitted)*len(c.Nodes))
	t.Logf("%d payments, %d committed on node 0; %.0f bytes allocated per payment per node", len(submitted), committed, per)
	if per > bound {
		t.Errorf("a payment costs %.0f bytes per node, want at most %d", per, bound)
	}
}

// poolKeeps reports whether sync.Pool hands back what it was given. The
// race detector makes it drop a quarter of all Puts on purpose: an
// allocation budget over borrowed buffers holds only where this does.
func poolKeeps() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != any(x) {
			return false
		}
	}
	return true
}

// TestVoteIsOneObjectFromGossipToCertificate: a vote exists once in the
// process from the node that cast it to the certificates that quote it.
// Every node is handed the same VoteMsg, counts the Vote inside it by
// pointer (internal/node's TestCountedVoteIsTheDeliveredVote pins that
// end), and copies it only into a certificate, byte for byte; so handling
// a vote costs a node a pointer with a count and a slot in an inbox, not
// the 240 bytes of a validated copy.
func TestVoteIsOneObjectFromGossipToCertificate(t *testing.T) {
	const n, rounds = 50, 3
	c := NewCluster(DefaultConfig(n, rounds))
	gossiped := make(map[crypto.Digest]*node.VoteMsg)
	var handled, allocated uint64
	for i := range c.Nodes {
		i := i
		c.Net.SetHandler(i, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
			vm, ok := m.(*node.VoteMsg)
			if !ok {
				return c.Nodes[i].HandleMessage(from, m)
			}
			if first, ok := gossiped[vm.ID()]; ok && first != vm {
				t.Errorf("node %d was handed a second object for the vote %x", i, vm.ID())
			}
			gossiped[vm.ID()] = vm
			if i != 0 {
				return c.Nodes[i].HandleMessage(from, m)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			verdict := c.Nodes[i].HandleMessage(from, m)
			runtime.ReadMemStats(&after)
			handled++
			allocated += after.TotalAlloc - before.TotalAlloc
			return verdict
		}))
	}
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	quoted := 0
	for i, nd := range c.Nodes {
		for r := uint64(1); r <= rounds; r++ {
			cert, ok := nd.Ledger().CertificateAt(r)
			if !ok || len(cert.Votes) == 0 {
				t.Fatalf("node %d has no certificate for round %d", i, r)
			}
			for j := range cert.Votes {
				v := &cert.Votes[j]
				vm, ok := gossiped[(&node.VoteMsg{Vote: *v}).ID()]
				if !ok || !bytes.Equal(wire.Encode(v), wire.Encode(&vm.Vote)) {
					t.Fatalf("node %d, round %d: vote %d of the certificate is not a vote gossip delivered", i, r, j)
				}
			}
			quoted += len(cert.Votes)
		}
	}
	if int(handled) < len(gossiped)*9/10 {
		t.Fatalf("node 0 handled %d of %d votes; test premise broken", handled, len(gossiped))
	}
	const bound = 80 // bytes a node allocates to handle a vote
	per := float64(allocated) / float64(handled)
	t.Logf("%d votes, quoted %d times in %d certificates; node 0 handled %d, %.0f bytes allocated each", len(gossiped), quoted, n*rounds, handled, per)
	if per > bound {
		t.Errorf("handling a vote allocated %.0f bytes, want at most %d", per, bound)
	}
}
