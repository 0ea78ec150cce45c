package node_test

import (
	"testing"
	"time"

	"algorand/internal/blockprop"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/node"
	"algorand/internal/sim"
	"algorand/internal/vtime"
)

// fastParams shrinks the timeouts so stall-and-recover scenarios run in
// little virtual time.
func fastParams(c *sim.Config) {
	c.Params.LambdaPriority = time.Second
	c.Params.LambdaStepVar = time.Second
	c.Params.LambdaBlock = 5 * time.Second
	c.Params.LambdaStep = 2 * time.Second
	c.Params.MaxSteps = 8
	c.Params.BlockSize = 4096
}

func TestNodeBasicRounds(t *testing.T) {
	cfg := sim.DefaultConfig(20, 4)
	fastParams(&cfg)
	c := sim.NewCluster(cfg)
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	n := c.Nodes[0]
	if n.Ledger().ChainLength() != 4 {
		t.Fatalf("chain length %d, want 4", n.Ledger().ChainLength())
	}
	if len(n.Stats) != 4 {
		t.Fatalf("stats for %d rounds", len(n.Stats))
	}
	for _, st := range n.Stats {
		if st.End <= st.Start || st.BinaryDone < st.ProposalDone {
			t.Fatalf("inconsistent timeline: %+v", st)
		}
	}
}

// TestForkRecovery exercises §8.2 end to end: a partition with a
// weakened step threshold lets the two halves commit *tentative* forks;
// after healing, nodes detect alien votes and the recovery protocol
// converges everyone onto one fork. Final consensus must never conflict.
func TestForkRecovery(t *testing.T) {
	cfg := sim.DefaultConfig(20, 0) // run until horizon
	fastParams(&cfg)
	// Weaken only the ordinary-step threshold so each half can commit
	// tentative blocks during the partition; the final-step threshold
	// stays at the paper's value, so no forked block can become final.
	cfg.Params.TStep = 0.40
	cfg.RecoveryInterval = 2 * time.Minute
	cfg.Horizon = 8 * time.Minute
	c := sim.NewCluster(cfg)
	c.SplitWorld(0, 60) // partition for the first virtual minute
	// Once the network heals, restore the paper's safe threshold so the
	// weakened-TStep fork generator stops firing and recovery can stick.
	c.Sim.After(70*time.Second, func() {
		honest := cfg.Params
		honest.TStep = 0.685
		for _, n := range c.Nodes {
			n.SetParams(honest)
		}
	})

	c.Run()

	// 1. Forks must actually have formed (the test premise).
	forked := false
	seen := map[uint64]crypto.Digest{}
	for _, n := range c.Nodes {
		for _, st := range n.Stats {
			if prev, ok := seen[st.Round]; ok && prev != st.Value {
				forked = true
			} else {
				seen[st.Round] = st.Value
			}
		}
	}
	if !forked {
		t.Fatal("partition did not produce forks; test premise broken")
	}

	// 2. No two nodes may have *final* consensus on different blocks in
	// the same round (safety, §8.2).
	finals := map[uint64]crypto.Digest{}
	for _, n := range c.Nodes {
		for _, st := range n.Stats {
			if !st.Final {
				continue
			}
			if prev, ok := finals[st.Round]; ok && prev != st.Value {
				t.Fatalf("FINAL fork at round %d", st.Round)
			}
			finals[st.Round] = st.Value
		}
	}

	// 3. Recovery must have run on most nodes.
	recovered := 0
	for _, n := range c.Nodes {
		if n.Recovered > 0 {
			recovered++
		}
	}
	if recovered < len(c.Nodes)/2 {
		t.Fatalf("recovery ran on only %d/%d nodes", recovered, len(c.Nodes))
	}

	// 4. After recovery, heads must have converged onto one chain: every
	// node's head is on the chain of the longest head.
	var best *ledger.Ledger
	for _, n := range c.Nodes {
		if best == nil || n.Ledger().ChainLength() > best.ChainLength() {
			best = n.Ledger()
		}
	}
	converged := 0
	for _, n := range c.Nodes {
		l := n.Ledger()
		if b, ok := best.BlockAt(l.ChainLength()); ok && b.Hash() == l.HeadHash() {
			converged++
		}
	}
	if converged < len(c.Nodes)*8/10 {
		t.Fatalf("only %d/%d nodes converged after recovery", converged, len(c.Nodes))
	}
}

// TestStallRecovery: a full partition (paper thresholds) stalls BA⋆
// entirely; after healing and the recovery checkpoint, progress resumes.
func TestStallRecovery(t *testing.T) {
	cfg := sim.DefaultConfig(16, 0)
	fastParams(&cfg)
	cfg.RecoveryInterval = 90 * time.Second
	cfg.Horizon = 8 * time.Minute
	c := sim.NewCluster(cfg)
	c.SplitWorld(0, 45)

	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	// Progress must resume: chains should be well past genesis.
	short := 0
	for _, n := range c.Nodes {
		if n.Ledger().ChainLength() < 2 {
			short++
		}
	}
	if short > len(c.Nodes)/4 {
		t.Fatalf("%d/%d nodes made no progress after heal", short, len(c.Nodes))
	}
}

// TestCatchUpCrossesRecoveryAdoption: a chain that holds a round the
// network adopted through §8.2 recovery — proven by a recovery
// certificate, not a chain round's — re-validates offline from genesis
// through ledger.CatchUp, the way a new user or an auditor would check
// it, and reaches the same head.
func TestCatchUpCrossesRecoveryAdoption(t *testing.T) {
	cfg := sim.DefaultConfig(16, 3)
	fastParams(&cfg)
	cfg.RecoveryInterval = 90 * time.Second
	cfg.Horizon = 8 * time.Minute
	c := sim.NewCluster(cfg)
	c.SplitWorld(0, 45) // stalls BA⋆ entirely; progress resumes by recovery
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}

	src := c.Nodes[0].Ledger()
	var blocks []*ledger.Block
	var certs []*ledger.Certificate
	adopted := 0
	for r := uint64(1); r <= src.ChainLength(); r++ {
		b, _ := src.BlockAt(r)
		cert, _ := src.Certificate(b.Hash()) // nil beneath a recovery adoption
		if cert != nil && cert.Round >= ledger.RecoveryRoundBase {
			adopted++
		}
		blocks, certs = append(blocks, b), append(certs, cert)
	}
	if adopted == 0 || src.ChainLength() < 3 {
		t.Fatalf("chain of %d rounds holds %d recovery adoptions; test premise broken", src.ChainLength(), adopted)
	}
	l, err := ledger.CatchUp(c.Provider, cfg.LedgerCfg, c.Genesis, c.Seed0, blocks, certs,
		node.CommitteeParamsFor(cfg.Params))
	if err != nil {
		t.Fatalf("catch-up across a recovery adoption: %v", err)
	}
	if l.HeadHash() != src.HeadHash() {
		t.Fatal("offline catch-up reached a different head")
	}
}

func TestCatchUpFromClusterArchive(t *testing.T) {
	cfg := sim.DefaultConfig(20, 3)
	fastParams(&cfg)
	c := sim.NewCluster(cfg)
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}

	// Collect blocks+certs from node 0's archive and bootstrap a fresh
	// user from genesis (§8.3).
	src := c.Nodes[0]
	var blocks []*ledger.Block
	var certs []*ledger.Certificate
	for r := uint64(1); r <= src.Ledger().ChainLength(); r++ {
		b, ok := src.Store().Block(r)
		if !ok {
			t.Fatalf("round %d missing from archive", r)
		}
		cert, ok := src.Store().Cert(r)
		if !ok {
			t.Fatalf("round %d missing certificate", r)
		}
		blocks = append(blocks, b)
		certs = append(certs, cert)
	}
	cp := ledger.CommitteeParams{
		TauStep:        cfg.Params.TauStep,
		StepThreshold:  cfg.Params.StepThreshold(),
		TauFinal:       cfg.Params.TauFinal,
		FinalThreshold: cfg.Params.FinalThreshold(),
	}
	l, err := ledger.CatchUp(c.Provider, cfg.LedgerCfg, c.Genesis, c.Seed0, blocks, certs, cp)
	if err != nil {
		t.Fatalf("catch-up: %v", err)
	}
	if l.HeadHash() != src.Ledger().HeadHash() {
		t.Fatal("bootstrapped user reached a different head")
	}
}

func TestEmptyRoundsWhenProposersSilent(t *testing.T) {
	// If every selected proposer withholds its block, rounds still
	// complete — with empty blocks (the §6 liveness fallback).
	cfg := sim.DefaultConfig(16, 2)
	fastParams(&cfg)
	c := sim.NewCluster(cfg)
	for _, n := range c.Nodes {
		n.Misbehave = func(*node.Node, *blockprop.Proposal) {} // selected, says nothing
	}
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	_, empty := c.FinalityRate()
	if empty < 0.99 {
		t.Fatalf("empty-block rate %.2f, want 1.0 with silent proposers", empty)
	}
	if c.Nodes[0].Ledger().ChainLength() != 2 {
		t.Fatalf("chain did not grow: %d", c.Nodes[0].Ledger().ChainLength())
	}
}

// TestObserverSyncsOverNetwork: a brand-new user joins the gossip
// network after several rounds and bootstraps its ledger entirely over
// the network via ChainRequest/ChainReply (§8.3), validating every
// block against its certificate.
func TestObserverSyncsOverNetwork(t *testing.T) {
	cfg := sim.DefaultConfig(20, 4)
	fastParams(&cfg)
	c := sim.NewCluster(cfg)

	// The observer occupies network slot 20: build the network with one
	// extra endpoint.
	// (Cluster sizes the network to N, so instead attach the observer to
	// an existing slot after the run completes — slot reuse is fine since
	// the original node has stopped.)
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}

	// Fresh node with an empty ledger on slot 0 (taking over its
	// endpoint and handler).
	obsID := 0
	observer := node.New(obsID, c.Sim, c.Net, c.Provider,
		c.Identity(obsID), node.Config{
			Params:    cfg.Params,
			LedgerCfg: cfg.LedgerCfg,
		}, c.Genesis, c.Seed0)

	// Rejoin with nothing local: the whole chain comes from peers. The
	// network has stopped, so the observer stops too once it holds every
	// round there is.
	observer.StopAfterRound = cfg.Rounds
	if _, err := observer.Rejoin(nil, 2*time.Minute); err != nil {
		t.Fatalf("observer bring-up: %v", err)
	}
	c.Sim.Run(c.Sim.Now() + 3*time.Minute)

	if !observer.Done() {
		t.Fatal("observer sync never completed")
	}
	gotRounds := observer.Ledger().ChainLength()
	ref := c.Nodes[1].Ledger()
	if gotRounds != ref.ChainLength() {
		t.Fatalf("observer reached round %d, network at %d", gotRounds, ref.ChainLength())
	}
	if observer.Ledger().HeadHash() != ref.HeadHash() {
		t.Fatal("observer head differs from the network's")
	}
}

// TestObserverRejectsTamperedReply: catch-up must fail closed on a
// forged chain.
func TestObserverRejectsTamperedReply(t *testing.T) {
	cfg := sim.DefaultConfig(20, 3)
	fastParams(&cfg)
	c := sim.NewCluster(cfg)
	c.Run()

	src := c.Nodes[1]
	var blocks []*ledger.Block
	var certs []*ledger.Certificate
	for r := uint64(1); r <= src.Ledger().ChainLength(); r++ {
		b, _ := src.Store().Block(r)
		cert, _ := src.Store().Cert(r)
		blocks = append(blocks, b)
		certs = append(certs, cert)
	}
	// Tamper: alter round 1's block content. Its own certificate no
	// longer matches the forged hash, and the round-2 PrevHash link —
	// which could otherwise validate an uncertified block transitively —
	// breaks too, so validation must reject the run either way.
	if len(blocks) < 2 {
		t.Skip("need >=2 rounds")
	}
	forged := *blocks[0]
	forged.Timestamp++
	blocks[0] = &forged

	observer := node.New(0, c.Sim, c.Net, c.Provider, c.Identity(0), node.Config{
		Params:    cfg.Params,
		LedgerCfg: cfg.LedgerCfg,
	}, c.Genesis, c.Seed0)
	// Feed the forged reply directly through the handler path.
	var syncErr error
	done := false
	c.Sim.Spawn("tampered-sync", func(p *vtime.Proc) {
		_, syncErr = observer.ApplyForgedReplyForTest(blocks, certs)
		done = true
	})
	c.Sim.Run(c.Sim.Now() + time.Minute)
	if !done {
		t.Fatal("did not run")
	}
	if syncErr == nil {
		t.Fatal("forged certificate accepted during catch-up")
	}
}
