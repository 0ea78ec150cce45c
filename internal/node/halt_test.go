package node

import (
	"testing"
	"time"

	"algorand/internal/agreement"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/params"
	"algorand/internal/vtime"
)

// haltOnVote is a Transport that halts its node as the node casts a vote
// of a given step: the node is then mid-round, about to count that step.
type haltOnVote struct {
	Transport
	sim  *vtime.Sim
	node *Node
	step uint64
	at   time.Duration
}

func (h *haltOnVote) Gossip(origin int, m network.Message) {
	if v, ok := m.(*VoteMsg); ok && v.Vote.Step == h.step && h.at == 0 {
		h.at = h.sim.Now()
		h.sim.After(0, h.node.Halt)
	}
	h.Transport.Gossip(origin, m)
}

// TestHaltedNodeProcessEnds: a node halted mid-round starts no further
// BA⋆ count, and its process returns once the count it is in has run out,
// rather than counting the round out to MaxSteps and sleeping to the next
// recovery checkpoint.
func TestHaltedNodeProcessEnds(t *testing.T) {
	const n = 5
	sim := vtime.New()
	provider := crypto.NewFast()
	net := network.New(sim, network.DefaultConfig(), n)
	var ids []crypto.Identity
	genesis := make(map[crypto.PublicKey]uint64)
	for i := 0; i < n; i++ {
		id := provider.NewIdentity(crypto.SeedFromUint64(uint64(i)))
		ids = append(ids, id)
		genesis[id.PublicKey()] = 100
	}
	prm := params.Default()
	prm.TauProposer, prm.TauStep, prm.TauFinal = 200, 200, 200
	prm.LambdaPriority, prm.LambdaStepVar = time.Second, time.Second
	prm.LambdaBlock, prm.LambdaStep = 5*time.Second, 2*time.Second
	prm.MaxSteps = 8
	prm.BlockSize = 4096
	cfg := Config{Params: prm, LedgerCfg: ledger.DefaultConfig()}
	victim := &haltOnVote{Transport: net, sim: sim, step: agreement.StepReduction2}
	var nodes []*Node
	for i := 0; i < n; i++ {
		var tr Transport = net
		if i == 0 {
			tr = victim
		}
		nodes = append(nodes, New(i, sim, tr, provider, ids[i], cfg, genesis, crypto.HashBytes("g")))
	}
	victim.node = nodes[0]
	for _, nd := range nodes {
		nd.StopAfterRound = 3
		nd.Start()
	}
	var mid, ended bool
	sim.Spawn("watch", func(p *vtime.Proc) {
		for victim.at == 0 {
			p.Sleep(time.Millisecond)
		}
		mid = !nodes[0].finished.Load()
		p.Sleep(victim.at + prm.LambdaStep + prm.LambdaStepVar - p.Now())
		ended = nodes[0].finished.Load()
	})
	sim.Run(time.Hour)

	if victim.at == 0 || !mid {
		t.Fatalf("the victim was not halted mid-round (halted at %v, running then: %v)", victim.at, mid)
	}
	if !ended {
		t.Fatalf("halted at %v, the victim's process was still running λ_step + λ_stepvar later", victim.at)
	}
	if got := nodes[0].Ledger().ChainLength(); got != 0 {
		t.Fatalf("the halted victim committed %d rounds", got)
	}
}
