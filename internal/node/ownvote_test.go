package node

import (
	"bytes"
	"testing"
	"time"

	"algorand/internal/agreement"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/metrics"
	"algorand/internal/network"
	"algorand/internal/params"
	"algorand/internal/sortition"
	"algorand/internal/vtime"
)

// committeeCounter is one node's view of the shared provider: it counts
// the committee-role proofs the node asks to have verified, and those of
// them that name the node's own key.
type committeeCounter struct {
	crypto.Provider
	own       crypto.PublicKey
	all, mine int
}

func (c *committeeCounter) VRFVerify(pk crypto.PublicKey, alpha, proof []byte) (crypto.VRFOutput, bool) {
	if bytes.Contains(alpha, []byte(sortition.RoleCommittee)) {
		c.all++
		if pk == c.own {
			c.mine++
		}
	}
	return c.Provider.VRFVerify(pk, alpha, proof)
}

// runCounted runs five nodes, each behind its own committeeCounter, for
// the given number of rounds; setup may alter a node before it starts.
func runCounted(t *testing.T, rounds uint64, setup func(n *Node, id crypto.Identity)) ([]*Node, []*committeeCounter) {
	t.Helper()
	const users = 5
	sim := vtime.New()
	net := network.New(sim, network.DefaultConfig(), users)
	fast := crypto.NewFast()
	ids := make([]crypto.Identity, users)
	genesis := make(map[crypto.PublicKey]uint64)
	for i := range ids {
		ids[i] = fast.NewIdentity(crypto.SeedFromUint64(uint64(i)))
		genesis[ids[i].PublicKey()] = 100
	}
	prm := params.Default()
	prm.TauProposer, prm.TauStep, prm.TauFinal = 5, 200, 200
	prm.LambdaPriority, prm.LambdaStepVar = time.Second, time.Second
	prm.LambdaBlock, prm.LambdaStep = 5*time.Second, 2*time.Second
	prm.BlockSize = 4096
	var nodes []*Node
	var counters []*committeeCounter
	for i := range ids {
		c := &committeeCounter{Provider: fast, own: ids[i].PublicKey()}
		n := New(i, sim, net, c, ids[i], Config{Params: prm, LedgerCfg: ledger.DefaultConfig()}, genesis, crypto.HashBytes("g"))
		n.StopAfterRound = rounds
		setup(n, ids[i])
		nodes, counters = append(nodes, n), append(counters, c)
	}
	for _, n := range nodes {
		n.Start()
	}
	sim.Run(10 * time.Minute)
	for _, n := range nodes {
		if got := n.Ledger().ChainLength(); got != rounds {
			t.Fatalf("node %d committed %d rounds, want %d", n.ID, got, rounds)
		}
	}
	return nodes, counters
}

func counter(n *Node, name string) int {
	return int(n.Metrics().Snapshot()[name].Value)
}

// TestOwnVotesAreNotVerified: a node counts the votes it casts with the j
// its own sortition returned. It used to sign a vote, prove its
// membership, and then pay a signature check and a VRF verification to
// learn the same number — seven times a round on the step's critical
// path. Votes off the wire are verified as before, one
// algorand_node_sortition_checks_total{of="vote"} each.
func TestOwnVotesAreNotVerified(t *testing.T) {
	nodes, counters := runCounted(t, 4, func(*Node, crypto.Identity) {})
	for i, n := range nodes {
		cast := counter(n, "algorand_ba_votes_cast_total")
		counted := counter(n, "algorand_ba_votes_counted_total")
		checks := counter(n, metrics.Name("algorand_node_sortition_checks_total", "of", "vote"))
		if cast == 0 || counted <= cast {
			t.Fatalf("node %d cast %d votes and counted %d: the run proves nothing", i, cast, counted)
		}
		if counters[i].mine != 0 {
			t.Errorf("node %d had %d of its own committee proofs verified (it cast %d votes)", i, counters[i].mine, cast)
		}
		if counters[i].all != checks {
			t.Errorf("node %d: %d committee proofs verified, %d vote checks counted", i, counters[i].all, checks)
		}
	}
}

// TestSabotagedVotesAreVerified: what a VoteSaboteur hands back in place
// of the node's vote is not the node's word any more, and is counted only
// after ProcessVote has passed it.
func TestSabotagedVotesAreVerified(t *testing.T) {
	nodes, counters := runCounted(t, 3, func(n *Node, id crypto.Identity) {
		if n.ID != 0 {
			return
		}
		n.VoteSaboteur = func(n *Node, v *ledger.Vote) []*ledger.Vote {
			forged := *v
			forged.SortHash[0] ^= 1 // a credential the proof does not back
			forged.Sign(id)
			return []*ledger.Vote{v, &forged}
		}
	})
	cast := counter(nodes[0], "algorand_ba_votes_cast_total")
	if counters[0].mine != 2*cast {
		t.Errorf("the saboteur's node verified %d of its own committee proofs, want two for each of its %d votes", counters[0].mine, cast)
	}
	if counters[1].mine != 0 {
		t.Errorf("an honest node verified %d of its own committee proofs", counters[1].mine)
	}
}

// received empties a vote inbox.
func received(r *handlerRig, mb *vtime.Mailbox) (got []*agreement.ValidatedVote) {
	r.sim.Spawn("reader", func(p *vtime.Proc) {
		for mb.Len() > 0 {
			got = append(got, p.Recv(mb).(*agreement.ValidatedVote))
		}
	})
	r.sim.Run(0)
	return got
}

// TestCountedVoteIsTheDeliveredVote: what a step counts is the vote
// gossip delivered, by pointer — nobody writes a delivered vote again —
// and taking the pointer skips no check. A vote off the wire, a vote that
// waited in the next-round buffer and what a saboteur put in its own
// vote's place each pass ProcessVote before they reach an inbox, and one
// that fails it never does.
func TestCountedVoteIsTheDeliveredVote(t *testing.T) {
	r := newHandlerRig(t, 5)
	n := r.node
	checks := func() int { return int(n.voteChecks.Load()) }
	step := agreement.StepReduction1

	// Off the wire.
	msg := &VoteMsg{Vote: *r.makeVote(t, 1, 1, step, crypto.HashBytes("v"))}
	forged := &VoteMsg{Vote: msg.Vote}
	forged.Vote.Sender = r.ids[2].PublicKey()
	n.handleMessage(1, msg)
	n.handleMessage(2, forged)
	if got := received(r, n.voteInbox(1, step)); len(got) != 1 || got[0].Vote != &msg.Vote || got[0].NumVotes == 0 {
		t.Fatalf("inbox holds %d votes after one valid and one forged, want the valid one as delivered", len(got))
	}
	if checks() != 2 {
		t.Fatalf("%d votes checked, want both", checks())
	}

	// Through the next-round buffer: checked on entry to the round, not before.
	if err := n.Ledger().Commit(n.Ledger().NextEmptyBlock(), nil); err != nil {
		t.Fatal(err)
	}
	r.ctx = agreement.NewContext(n.Ledger())
	early := &VoteMsg{Vote: *r.makeVote(t, 3, 2, step, crypto.HashBytes("w"))}
	earlyForged := &VoteMsg{Vote: early.Vote}
	earlyForged.Vote.Value = crypto.HashBytes("not what was signed")
	n.handleMessage(3, early)
	n.handleMessage(4, earlyForged)
	if checks() != 2 || len(n.pendingMsgs[2]) != 2 {
		t.Fatalf("%d votes checked and %d buffered while a round behind, want 2 and 2", checks(), len(n.pendingMsgs[2]))
	}
	n.setContext(r.ctx)
	if got := received(r, n.voteInbox(2, step)); len(got) != 1 || got[0].Vote != &early.Vote {
		t.Fatalf("inbox holds %d votes after replaying one valid and one forged, want the valid one as buffered", len(got))
	}
	if checks() != 4 {
		t.Fatalf("%d votes checked after the replay, want 4", checks())
	}

	// Our own vote: counted unchecked, and it is the one gossip carries.
	var gossiped []*VoteMsg
	r.net.SetHandler(r.net.Neighbors(0)[0], network.HandlerFunc(func(from int, m network.Message) network.Verdict {
		gossiped = append(gossiped, m.(*VoteMsg))
		return network.Verdict{}
	}))
	own := r.makeVote(t, 0, 2, step, crypto.HashBytes("w"))
	n.gossipVote(own, 3)
	got := received(r, n.voteInbox(2, step))
	if len(got) != 1 || len(gossiped) != 1 || got[0].Vote != &gossiped[0].Vote || got[0].NumVotes != 3 || checks() != 4 {
		t.Fatalf("own vote: %d counted, %d gossiped, %d checks, want one object and no check", len(got), len(gossiped), checks()-4)
	}

	// A saboteur's substitutes are anybody's: each is checked.
	n.VoteSaboteur = func(_ *Node, v *ledger.Vote) []*ledger.Vote {
		bad := *v
		bad.Value = crypto.HashBytes("and another value")
		bad.SortHash[0] ^= 1 // a credential the proof does not back
		bad.Sign(r.ids[0])
		return []*ledger.Vote{v, &bad}
	}
	gossiped = nil
	n.gossipVote(r.makeVote(t, 0, 2, agreement.StepReduction2, crypto.HashBytes("w")), 3)
	got = received(r, n.voteInbox(2, agreement.StepReduction2))
	if len(gossiped) != 2 || checks() != 6 {
		t.Fatalf("saboteur: %d votes gossiped, %d checked, want 2 and 2", len(gossiped), checks()-4)
	}
	if len(got) != 1 || got[0].Vote != &gossiped[0].Vote {
		t.Fatalf("saboteur: %d votes counted, want only the one whose credential verifies, as gossiped", len(got))
	}
}

// TestStragglerNeverReachesTheNextRound: the vote inboxes of a finished
// round are emptied and handed out again in the next. A straggler's vote
// left unread in round 1's inbox is dropped with it, so round 2's count
// gets only round 2's votes out of the same mailbox.
func TestStragglerNeverReachesTheNextRound(t *testing.T) {
	r := newHandlerRig(t, 5)
	n := r.node
	steps := []uint64{agreement.StepReduction1, agreement.StepReduction2}
	retired := map[*vtime.Mailbox]bool{}
	for i, step := range steps {
		n.handleMessage(1+i, &VoteMsg{Vote: *r.makeVote(t, 1+i, 1, step, crypto.HashBytes("straggler"))})
		mb := n.voteInbox(1, step)
		if mb.Len() != 1 {
			t.Fatalf("round 1 step %d: %d votes waiting, want the straggler", step, mb.Len())
		}
		retired[mb] = true
	}

	if err := n.Ledger().Commit(n.Ledger().NextEmptyBlock(), nil); err != nil {
		t.Fatal(err)
	}
	r.ctx = agreement.NewContext(n.Ledger())
	n.setContext(r.ctx)
	for i, step := range steps {
		mb := n.voteInbox(2, step)
		if !retired[mb] {
			t.Fatalf("round 2 step %d counts from a new mailbox, not one round 1 left", step)
		}
		fresh := &VoteMsg{Vote: *r.makeVote(t, 3+i, 2, step, crypto.HashBytes("fresh"))}
		n.handleMessage(3+i, fresh)
		if got := received(r, mb); len(got) != 1 || got[0].Vote != &fresh.Vote {
			t.Fatalf("round 2 step %d: inbox gave %d votes, want only round 2's", step, len(got))
		}
	}
}
