package node_test

import (
	"testing"
	"time"

	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/node"
	"algorand/internal/sim"
)

// TestCrashRestartCatchesUp is the §8.3 crash path end to end: a node
// crashes mid-run, a replacement restores the certified prefix of the
// crashed node's chain, pulls the missing rounds from peers, and
// rejoins consensus in time to finish the run with everyone else.
func TestCrashRestartCatchesUp(t *testing.T) {
	cfg := sim.DefaultConfig(16, 10)
	fastParams(&cfg)
	c := sim.NewCluster(cfg)

	// Rounds complete in ~2.7 virtual seconds with fastParams: crash
	// mid-run (~round 3) and restart a couple of rounds later.
	const victim = 3
	var restored uint64
	var restartErr error
	var chainAtCrash, certifiedAtCrash uint64
	c.Sim.After(8*time.Second, func() {
		c.CrashNode(victim)
		chainAtCrash = c.Nodes[victim].Ledger().ChainLength()
		certifiedAtCrash = uint64(ledger.CertifiedChain(c.Nodes[victim].Ledger()).Rounds())
	})
	c.Sim.After(14*time.Second, func() {
		_, restored, restartErr = c.RestartNode(victim, 10*time.Minute)
	})

	c.Run()

	if restartErr != nil {
		t.Fatalf("restart: %v", restartErr)
	}
	if restored == 0 {
		t.Fatal("archive replay restored nothing; crash happened too early for the test premise")
	}
	if restored != certifiedAtCrash {
		t.Fatalf("restored %d rounds, want the %d certified rounds the crashed node held", restored, certifiedAtCrash)
	}
	if chainAtCrash >= cfg.Rounds {
		t.Fatal("crash happened after the run finished; test premise broken")
	}
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	repl := c.Nodes[victim]
	if got := repl.Ledger().ChainLength(); got != cfg.Rounds {
		t.Fatalf("replacement chain length %d, want %d", got, cfg.Rounds)
	}
	// The replacement's chain must be block-for-block the chain the rest
	// of the network committed.
	ref := c.Nodes[0].Ledger()
	for r := uint64(1); r <= cfg.Rounds; r++ {
		want, ok1 := ref.BlockAt(r)
		got, ok2 := repl.Ledger().BlockAt(r)
		if !ok1 || !ok2 {
			t.Fatalf("round %d missing (ref %v, replacement %v)", r, ok1, ok2)
		}
		if want.Hash() != got.Hash() {
			t.Fatalf("round %d: replacement diverged", r)
		}
	}
	// And the crashed node must not have completed rounds after the crash.
	if repl.Halted() {
		t.Fatal("replacement inherited the halt flag")
	}
}

// TestRestartFromEmptyArchive crashes a node before its archive has
// anything useful and restarts it: the replacement must rebuild the
// whole chain from peers alone.
func TestRestartFromEmptyArchive(t *testing.T) {
	cfg := sim.DefaultConfig(16, 8)
	fastParams(&cfg)
	c := sim.NewCluster(cfg)

	const victim = 5
	c.Sim.After(time.Second, func() { // before round 1 completes
		c.CrashNode(victim)
	})
	c.Sim.After(10*time.Second, func() {
		if _, _, err := c.RestartNode(victim, 10*time.Minute); err != nil {
			t.Errorf("restart: %v", err)
		}
	})

	c.Run()

	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	if got := c.Nodes[victim].Ledger().ChainLength(); got != cfg.Rounds {
		t.Fatalf("replacement chain length %d, want %d", got, cfg.Rounds)
	}
}

// TestRestartRejectsTamperedArchive corrupts the crashed node's archive
// before restart: the replacement validates every archived block against
// its certificate and must refuse the forged round rather than replay it.
func TestRestartRejectsTamperedArchive(t *testing.T) {
	cfg := sim.DefaultConfig(16, 6)
	fastParams(&cfg)
	c := sim.NewCluster(cfg)

	const victim = 7
	var restored uint64
	var restartErr error
	tampered := false
	c.Sim.After(10*time.Second, func() {
		c.CrashNode(victim)
		// Build a forged copy of the crashed node's chain: round 2's block
		// is altered (block pointers are shared between nodes in the
		// simulation, so the original must not be mutated in place).
		src := ledger.CertifiedChain(c.Nodes[victim].Ledger())
		forgedStore := ledger.NewStore()
		for r := uint64(1); ; r++ {
			b, ok1 := src.Block(r)
			cert, ok2 := src.Cert(r)
			if !ok1 || !ok2 {
				break
			}
			if r == 2 {
				forged := *b
				forged.Timestamp++ // changes the hash; cert no longer matches
				b = &forged
				tampered = true
			}
			forgedStore.Put(b, b.Hash(), cert)
		}
		if !tampered {
			return // premise check below fails the test
		}
		_, restored, restartErr = c.RestartNodeFromStore(victim, forgedStore, 10*time.Minute)
	})

	c.Run()

	if !tampered {
		t.Fatal("archive had fewer than 2 rounds at crash time; test premise broken")
	}
	if restartErr == nil {
		t.Fatal("restore accepted a tampered archive block")
	}
	if restored != 1 {
		t.Fatalf("restored %d rounds before the forgery, want 1", restored)
	}
	// The untampered remainder of the network is unaffected.
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestHaltSilencesNode pins the crash semantics: a halted node emits and
// handles nothing, so its stats freeze while the network proceeds.
func TestHaltSilencesNode(t *testing.T) {
	cfg := sim.DefaultConfig(12, 6)
	fastParams(&cfg)
	c := sim.NewCluster(cfg)

	const victim = 2
	var bytesAtCrash int64
	c.Sim.After(6*time.Second, func() { // ~round 3 of 6
		c.CrashNode(victim)
		bytesAtCrash = c.Net.NodeStats(victim).BytesSent
	})
	c.Run()

	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	// The survivors finish all rounds without the victim.
	done := 0
	for i, n := range c.Nodes {
		if i == victim {
			continue
		}
		if n.Ledger().ChainLength() == cfg.Rounds {
			done++
		}
	}
	if done != len(c.Nodes)-1 {
		t.Fatalf("%d/%d survivors completed all rounds", done, len(c.Nodes)-1)
	}
	// The victim sent almost nothing after the crash (an in-flight
	// transfer may still have been on its uplink).
	after := c.Net.NodeStats(victim).BytesSent - bytesAtCrash
	if after > 2048 {
		t.Fatalf("halted node sent %d bytes after crash", after)
	}
	if c.Nodes[victim].Ledger().ChainLength() >= cfg.Rounds {
		t.Fatal("halted node kept committing rounds")
	}
	tx := &ledger.Transaction{Amount: 1}
	pre := c.Net.NodeStats(victim).BytesSent
	c.Nodes[victim].SubmitTx(tx)
	if c.Net.NodeStats(victim).BytesSent != pre {
		t.Fatal("halted node gossiped a submitted transaction")
	}
}

// TestPredecessorReplyProvesItself: a chain reply is taken because the
// peer it comes from was asked, not because of which request it answers.
// A predecessor holding round 1 asks peer P for the chain from round 2
// and halts; its replacement, restored to round 3, files its own request
// to P. P's late reply to the predecessor reaches the replacement, which
// takes it: rounds 2 and 3 are stale and skipped, 4 to 6 extend its head
// and are applied under their certificates. P never answers the
// replacement's own request, and every other peer is silent, so that
// reply is the only way to the network's head.
func TestPredecessorReplyProvesItself(t *testing.T) {
	const slot, rounds = 0, 6
	cfg := sim.DefaultConfig(12, rounds)
	fastParams(&cfg)
	c := sim.NewCluster(cfg)
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	ref := c.Nodes[1].Ledger()
	upTo := func(k uint64) *ledger.Store {
		s := ledger.NewStore()
		for r := uint64(1); r <= k; r++ {
			b, _ := ref.BlockAt(r)
			cert, _ := ref.CertificateAt(r)
			h, _ := ref.HashAt(r)
			s.Put(b, h, cert)
		}
		return s
	}
	fresh := func(held uint64) *node.Node {
		n := node.New(slot, c.Sim, c.Net, c.Provider, c.Identity(slot),
			node.Config{Params: cfg.Params, LedgerCfg: cfg.LedgerCfg}, c.Genesis, c.Seed0)
		if _, err := n.RestoreFromArchive(upTo(held)); err != nil {
			t.Fatal(err)
		}
		n.StopAfterRound = rounds
		return n
	}

	peers := c.Net.Neighbors(slot)
	p := peers[0] // the first peer a sync asks
	var late *node.ChainRequest
	answered := false
	for _, peer := range peers {
		c.Net.SetHandler(peer, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
			req, ok := m.(*node.ChainRequest)
			if !ok || peer != p || from != slot {
				return network.Verdict{}
			}
			switch {
			case req.FromRound == 2 && late == nil:
				late = req // the predecessor's: held back
			case req.FromRound == 4 && late != nil && !answered:
				// The replacement has asked: the predecessor's reply lands now.
				answered = true
				reply := &node.ChainReply{}
				for r := late.FromRound; r <= rounds; r++ {
					b, _ := ref.BlockAt(r)
					cert, _ := ref.CertificateAt(r)
					reply.Blocks, reply.Certs = append(reply.Blocks, b), append(reply.Certs, cert)
				}
				c.Net.Unicast(p, slot, reply)
			}
			return network.Verdict{}
		}))
	}

	pred := fresh(1)
	if _, err := pred.Rejoin(time.Minute); err != nil {
		t.Fatal(err)
	}
	var repl *node.Node
	c.Sim.After(time.Second, func() {
		pred.Halt()
		repl = fresh(3)
		if _, err := repl.Rejoin(time.Minute); err != nil {
			t.Error(err)
		}
	})
	c.Sim.Run(c.Sim.Now() + 5*time.Minute)

	if late == nil || !answered {
		t.Fatalf("the predecessor's request was not held back and answered late (held %v, answered %v)", late != nil, answered)
	}
	if got := repl.Ledger().ChainLength(); got != rounds || repl.Ledger().HeadHash() != ref.HeadHash() {
		t.Fatalf("replacement at round %d, want the network's head at %d: the predecessor's reply was not taken", got, rounds)
	}
	if pred.Ledger().ChainLength() != 1 {
		t.Fatalf("the halted predecessor moved to round %d", pred.Ledger().ChainLength())
	}
}
