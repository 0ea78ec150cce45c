package node

// White-box tests of the node's gossip message handling: verdicts,
// pull-based block fetching, pending-round buffering.

import (
	"testing"
	"time"

	"algorand/internal/agreement"
	"algorand/internal/blockprop"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/params"
	"algorand/internal/sortition"
	"algorand/internal/trace"
	"algorand/internal/txflow"
	"algorand/internal/vtime"
)

// handlerRig is a two-node network where node 0 is the unit under test.
type handlerRig struct {
	sim      *vtime.Sim
	net      *network.Network
	provider crypto.Provider
	ids      []crypto.Identity
	node     *Node
	ctx      *agreement.Context
}

func newHandlerRig(t *testing.T, n int) *handlerRig {
	r := &handlerRig{
		sim:      vtime.New(),
		provider: crypto.NewFast(),
	}
	r.net = network.New(r.sim, network.DefaultConfig(), n)
	genesis := make(map[crypto.PublicKey]uint64)
	for i := 0; i < n; i++ {
		id := r.provider.NewIdentity(crypto.SeedFromUint64(uint64(i)))
		r.ids = append(r.ids, id)
		genesis[id.PublicKey()] = 100
	}
	prm := params.Default()
	prm.TauProposer = 200 // everyone proposes (deterministic tests)
	prm.TauStep = 200
	prm.TauFinal = 200
	cfg := Config{Params: prm, LedgerCfg: ledger.DefaultConfig()}
	r.node = New(0, r.sim, r.net, r.provider, r.ids[0], cfg, genesis, crypto.HashBytes("g"))
	r.ctx = agreement.NewContext(r.node.Ledger())
	r.node.setContext(r.ctx)
	return r
}

// makeProposal builds a valid proposal for the rig's round 1, proposed
// by identity idx.
func (r *handlerRig) makeProposal(t *testing.T, idx int) *blockprop.Proposal {
	id := r.ids[idx]
	out, proof := id.VRFProve(ledger.SeedAlpha(r.node.Ledger().PrevSeed(), 1))
	block := &ledger.Block{
		Round:     1,
		PrevHash:  r.node.Ledger().HeadHash(),
		Timestamp: time.Second,
		Seed:      ledger.SeedFromVRF(out),
		SeedProof: proof,
		Proposer:  id.PublicKey(),
	}
	prop := blockprop.Propose(id, sortition.RoleProposer, r.ctx.Seed, 1,
		r.node.cfg.Params.TauProposer, 100, r.ctx.TotalWeight, block)
	if prop == nil {
		t.Fatal("identity not selected; raise tau")
	}
	return prop
}

// makeVote builds a valid committee vote for (round, step) by identity idx.
func (r *handlerRig) makeVote(t *testing.T, idx int, round, step uint64, value crypto.Digest) *ledger.Vote {
	id := r.ids[idx]
	role := sortition.Role{Kind: sortition.RoleCommittee, Round: round, Step: step}
	res := sortition.Execute(id, r.ctx.Seed[:], role, r.node.cfg.Params.TauStep, 100, r.ctx.TotalWeight)
	if res.J == 0 {
		t.Fatal("identity not on committee; raise tau")
	}
	v := &ledger.Vote{
		Sender:    id.PublicKey(),
		Round:     round,
		Step:      step,
		SortHash:  res.Output,
		SortProof: res.Proof,
		PrevHash:  r.ctx.LastBlockHash,
		Value:     value,
	}
	v.Sign(id)
	return v
}

func TestHandlerVoteVerdicts(t *testing.T) {
	r := newHandlerRig(t, 5)

	good := r.makeVote(t, 1, 1, agreement.StepReduction1, crypto.HashBytes("v"))
	if v := r.node.handleMessage(1, &VoteMsg{Vote: *good}); !v.Relay {
		t.Fatal("valid vote not relayed")
	}
	if r.node.voteInbox(1, agreement.StepReduction1).Len() != 1 {
		t.Fatal("valid vote not enqueued")
	}

	// Tampered signature: no relay, no enqueue.
	bad := *good
	bad.Value = crypto.HashBytes("other")
	if v := r.node.handleMessage(1, &VoteMsg{Vote: bad}); v.Relay {
		t.Fatal("tampered vote relayed")
	}

	// Wrong-chain vote counts as fork evidence, not a relayable message.
	alien := r.makeVote(t, 2, 1, agreement.StepReduction1, crypto.HashBytes("v"))
	alien.PrevHash = crypto.Digest{9}
	alien.Sign(r.ids[2])
	before := r.node.alienVotes
	if v := r.node.handleMessage(2, &VoteMsg{Vote: *alien}); v.Relay {
		t.Fatal("alien vote relayed")
	}
	if r.node.alienVotes != before+1 {
		t.Fatal("alien vote not counted as fork evidence")
	}

	// Next-round votes are buffered for later validation.
	r2 := r.ctx.Round + 1
	future := &ledger.Vote{Sender: r.ids[3].PublicKey(), Round: r2, Step: 1}
	if v := r.node.handleMessage(3, &VoteMsg{Vote: *future}); v.Relay {
		t.Fatal("future vote relayed before validation")
	}
	if len(r.node.pendingMsgs[r2]) != 1 {
		t.Fatal("future vote not buffered")
	}
}

// holder makes node idx of the rig a scripted complete holder of prop's
// body: it answers piece requests from the pieces Split cut, and counts
// them.
func (r *handlerRig) holder(idx int, prop *blockprop.Proposal, requests *int) *BlockAnnounce {
	m, pieces := blockprop.Split(r.ids[idx], &prop.Block)
	r.net.SetHandler(idx, network.HandlerFunc(func(from int, msg network.Message) network.Verdict {
		if req, ok := msg.(*PieceRequest); ok {
			*requests++
			r.net.Unicast(idx, req.Requester, &BlockPiece{P: pieces[req.Index], Recipient: req.Requester, Nonce: req.Nonce})
		}
		return network.Verdict{}
	}))
	return &BlockAnnounce{Manifest: *m, Announcer: idx}
}

func TestHandlerAnnounceTriggersFetch(t *testing.T) {
	r := newHandlerRig(t, 5)
	prop := r.makeProposal(t, 1)

	// Node 1 holds the block; its announce should make node 0 request it
	// and, once the transfer arrives, re-announce.
	requests := 0
	announce := r.holder(1, prop, &requests)
	// Count announces reaching node 0's other neighbours (the re-announce).
	reannounced, others := 0, 0
	for _, nb := range r.net.Neighbors(0) {
		if nb == 1 {
			continue
		}
		others++
		r.net.SetHandler(nb, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
			if a, ok := m.(*BlockAnnounce); ok && from == 0 && a.Have == nil {
				reannounced++
			}
			return network.Verdict{}
		}))
	}

	r.sim.Spawn("driver", func(p *vtime.Proc) {
		r.net.Unicast(1, 0, announce)
		p.Sleep(10 * time.Second)
	})
	r.sim.Run(time.Minute)

	if requests != 1 {
		t.Fatalf("announcer served %d requests, want 1", requests)
	}
	h := prop.Block.Block.Hash()
	if pc, _ := r.node.fetch.Serve(-1, h, 0); pc == nil {
		t.Fatal("block body not held after transfer")
	}
	if _, ok := r.node.Ledger().BlockOfHash(h); !ok {
		t.Fatal("block not registered as proposal")
	}
	if r.node.propInbox(1).Len() != 2 {
		t.Fatalf("waiter saw %d arrivals, want the priority and the block", r.node.propInbox(1).Len())
	}
	if others == 0 || reannounced != others {
		t.Fatalf("node 0 announced the whole body %d times to its %d other neighbours, want once each", reannounced, others)
	}
}

func TestHandlerDoesNotRefetchHeldBlock(t *testing.T) {
	r := newHandlerRig(t, 5)
	prop := r.makeProposal(t, 1)
	r.node.HoldProposal(&prop.Block)

	requests := 0
	announce := r.holder(1, prop, &requests)
	r.sim.Spawn("driver", func(p *vtime.Proc) {
		r.net.Unicast(1, 0, announce)
		p.Sleep(5 * time.Second)
	})
	r.sim.Run(time.Minute)
	if requests != 0 {
		t.Fatalf("node refetched a block it already holds (%d requests)", requests)
	}
}

func TestHandlerServesPieceRequests(t *testing.T) {
	r := newHandlerRig(t, 5)
	prop := r.makeProposal(t, 1)
	r.node.HoldProposal(&prop.Block)
	h := prop.Block.Block.Hash()

	served := 0
	r.net.SetHandler(3, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
		if bp, ok := m.(*BlockPiece); ok {
			if bp.P.BlockHash() != h || bp.P.Index() != 0 || bp.Nonce != 1 {
				t.Error("served the wrong piece")
			}
			served++
		}
		return network.Verdict{}
	}))
	r.sim.Spawn("driver", func(p *vtime.Proc) {
		r.net.Unicast(3, 0, &PieceRequest{Hash: h, Index: 0, Requester: 3, Nonce: 1})
		// Requests for unknown blocks and for pieces the body does not
		// have are ignored.
		r.net.Unicast(3, 0, &PieceRequest{Hash: crypto.Digest{42}, Index: 0, Requester: 3, Nonce: 2})
		r.net.Unicast(3, 0, &PieceRequest{Hash: h, Index: 7, Requester: 3, Nonce: 3})
		p.Sleep(5 * time.Second)
	})
	r.sim.Run(time.Minute)
	if served != 1 {
		t.Fatalf("served %d transfers, want 1", served)
	}
}

func TestHandlerPriorityRelayFilter(t *testing.T) {
	r := newHandlerRig(t, 8)
	a := r.makeProposal(t, 1)
	b := r.makeProposal(t, 2)
	hi, lo := a, b
	if a.Priority.Priority.Less(b.Priority.Priority) {
		hi, lo = b, a
	}

	// Higher priority first: relayed. Lower afterwards: not relayed.
	if v := r.node.handleMessage(1, &PriorityGossip{M: hi.Priority}); !v.Relay {
		t.Fatal("high-priority message not relayed")
	}
	if v := r.node.handleMessage(2, &PriorityGossip{M: lo.Priority}); v.Relay {
		t.Fatal("low-priority message relayed after better one seen")
	}
	// Both still reach the waiter (discard is about relaying, §6).
	if r.node.propInbox(1).Len() != 2 {
		t.Fatalf("proposal inbox has %d arrivals, want 2", r.node.propInbox(1).Len())
	}
}

func TestHandlerEquivocatingAnnouncesBothTravel(t *testing.T) {
	r := newHandlerRig(t, 8)
	prop := r.makeProposal(t, 1)
	// Second variant: same credentials, different block hash, re-signed.
	alt := prop.Priority
	alt.BlockHash = crypto.HashBytes("other-block")
	alt.Sig = r.ids[1].Sign(alt.SigningBytes())

	if v := r.node.handleMessage(1, &PriorityGossip{M: prop.Priority}); !v.Relay {
		t.Fatal("first variant not relayed")
	}
	// The equal-priority second variant must also relay so the network
	// learns about the equivocation (§10.4).
	if v := r.node.handleMessage(1, &PriorityGossip{M: alt}); !v.Relay {
		t.Fatal("equivocation evidence not relayed")
	}
}

func TestPendingVotesReplayOnRoundEntry(t *testing.T) {
	r := newHandlerRig(t, 5)
	// A vote for round 2 arrives while we are in round 1.
	nextRoundVote := &ledger.Vote{
		Sender: r.ids[1].PublicKey(),
		Round:  2,
		Step:   agreement.StepReduction1,
	}
	r.node.handleMessage(1, &VoteMsg{Vote: *nextRoundVote})
	if len(r.node.pendingMsgs[2]) != 1 {
		t.Fatal("not buffered")
	}
	// Advance to round 2: commit an empty block and install its context.
	if err := r.node.Ledger().Commit(r.node.Ledger().NextEmptyBlock(), nil); err != nil {
		t.Fatal(err)
	}
	ctx2 := agreement.NewContext(r.node.Ledger())
	// Craft a now-valid vote for round 2 and buffer it too.
	role := sortition.Role{Kind: sortition.RoleCommittee, Round: 2, Step: 1}
	res := sortition.Execute(r.ids[1], ctx2.Seed[:], role, r.node.cfg.Params.TauStep, 100, ctx2.TotalWeight)
	if res.J > 0 {
		v := &ledger.Vote{
			Sender: r.ids[1].PublicKey(), Round: 2, Step: 1,
			SortHash: res.Output, SortProof: res.Proof,
			PrevHash: ctx2.LastBlockHash, Value: crypto.HashBytes("x"),
		}
		v.Sign(r.ids[1])
		r.node.pendingMsgs[2] = append(r.node.pendingMsgs[2], &VoteMsg{Vote: *v})
	}
	r.node.setContext(ctx2)
	if len(r.node.pendingMsgs[2]) != 0 {
		t.Fatal("pending buffer not drained")
	}
	if res.J > 0 && r.node.voteInbox(2, 1).Len() == 0 {
		t.Fatal("valid buffered vote not replayed into inbox")
	}
}

// TestAllocBudgetStragglerVote guards the straggler branch of handleVote:
// comparing a late vote's PrevHash with our block at that position reads
// the hash the ledger indexed the block under, so it costs nothing, and
// in particular nothing that grows with the block — it used to encode
// all of a 5 000-payment block per late vote.
func TestAllocBudgetStragglerVote(t *testing.T) {
	for _, payments := range []int{10, 5000} {
		r := newHandlerRig(t, 5)
		l := r.node.Ledger()
		// Round 1 carries the payments (each user pays the next in turn,
		// so balances never run out), round 2 is empty, and the node is
		// in round 3 when a vote for round 2 arrives.
		post := l.Balances().Clone()
		txns := make([]ledger.Transaction, payments)
		for i := range txns {
			from := r.ids[i%len(r.ids)].PublicKey()
			txns[i] = ledger.Transaction{
				From: from, To: r.ids[(i+1)%len(r.ids)].PublicKey(),
				Amount: 1, Nonce: post.NonceOf(from),
			}
			if err := post.ApplyTx(&txns[i]); err != nil {
				t.Fatal(err)
			}
		}
		b1 := &ledger.Block{Round: 1, PrevHash: l.HeadHash(), StateRoot: post.Root(), Txns: txns}
		if err := l.Commit(b1, nil); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(l.NextEmptyBlock(), nil); err != nil {
			t.Fatal(err)
		}
		r.node.setContext(agreement.NewContext(l))

		late := &VoteMsg{Vote: ledger.Vote{Sender: r.ids[1].PublicKey(), Round: 2, Step: agreement.StepReduction1, PrevHash: b1.Hash()}}
		alien := &VoteMsg{Vote: ledger.Vote{Sender: r.ids[2].PublicKey(), Round: 2, Step: agreement.StepReduction1, PrevHash: crypto.Digest{9}}}
		before := r.node.alienVotes
		r.node.handleMessage(1, late)
		if r.node.alienVotes != before {
			t.Fatalf("%d payments: a vote extending our own block counted as fork evidence", payments)
		}
		r.node.handleMessage(2, alien)
		if r.node.alienVotes != before+1 {
			t.Fatalf("%d payments: a vote extending another block at that position not counted", payments)
		}
		if got := testing.AllocsPerRun(50, func() { r.node.handleMessage(1, late) }); got != 0 {
			t.Errorf("straggler vote against a %d-payment block: %.0f allocations, want 0", payments, got)
		}
	}
}

// TestBlockPieceIDSeparatesTransfers: the duplicate suppression sees a
// piece sent to two requesters, or twice to one, or two pieces of one
// body, or a forged piece under a genuine transfer's coordinates, as
// different messages, and the same transfer as one.
func TestBlockPieceIDSeparatesTransfers(t *testing.T) {
	r := newHandlerRig(t, 5)
	prop := r.makeProposal(t, 1)
	prop.Block.Block.PayloadPadding = 3 * blockprop.PieceSize
	_, pieces := blockprop.Split(r.ids[1], &prop.Block)
	forged := blockprop.NewPiece(pieces[1].BlockHash(), 1, len(pieces), nil, nil, nil, pieces[1].Padding()-1)
	transfer := func(p *blockprop.Piece, recipient int, nonce uint64) *BlockPiece {
		return &BlockPiece{P: p, Recipient: recipient, Nonce: nonce}
	}
	pairs := [][2]*BlockPiece{
		{transfer(pieces[1], 7, 1), transfer(pieces[1], 8, 1)},
		{transfer(pieces[1], 7, 1), transfer(pieces[1], 7, 2)},
		{transfer(pieces[1], 7, 1), transfer(pieces[2], 7, 1)},
		{transfer(pieces[1], 7, 1), transfer(forged, 7, 1)},
		{transfer(pieces[1], 1<<16+7, 2), transfer(pieces[1], 7, 3)},
	}
	for i, p := range pairs {
		if p[0].ID() == p[1].ID() {
			t.Errorf("pair %d shares a dedup key", i)
		}
	}
	if transfer(pieces[1], 7, 1).ID() != transfer(pieces[1], 7, 1).ID() {
		t.Fatal("the same transfer has two IDs")
	}
}

// TestRequestsAnsweredToSenderOnly: a request for a block, a run of the
// chain or a checkpoint is answered to the peer it came from. One that
// names a third party as requester — 44 bytes that would have an honest
// node send that party a whole block, 64 of them with certificates, or
// every account — produces no transfer at all.
func TestRequestsAnsweredToSenderOnly(t *testing.T) {
	r := newHandlerRig(t, 5)
	l := r.node.Ledger()
	b1 := l.NextEmptyBlock()
	cert := &ledger.Certificate{Round: 1, Value: b1.Hash()}
	if err := l.Commit(b1, cert); err != nil {
		t.Fatal(err)
	}
	r.node.checkpoint = ledger.CheckpointOf(b1, cert, l.Balances())

	const sender, third = 3, 2
	cases := []struct {
		name    string
		request func(requester int) network.Message
		isReply func(m network.Message) bool
	}{
		{"block",
			func(req int) network.Message {
				return &BlockRequest{Hash: b1.Hash(), Requester: req, Nonce: uint64(req)}
			},
			func(m network.Message) bool { _, ok := m.(*BlockFill); return ok }},
		{"chain",
			func(req int) network.Message {
				return &ChainRequest{FromRound: 1, MaxBlocks: 8, Requester: req, Nonce: uint64(req)}
			},
			func(m network.Message) bool { _, ok := m.(*ChainReply); return ok }},
		{"snapshot",
			func(req int) network.Message { return &SnapshotRequest{Requester: req, Nonce: uint64(req)} },
			func(m network.Message) bool { _, ok := m.(*SnapshotReply); return ok }},
	}
	for _, tc := range cases {
		got := map[int]int{} // transfers by the node that received them
		for peer := 1; peer < 5; peer++ {
			peer := peer
			r.net.SetHandler(peer, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
				if tc.isReply(m) {
					got[peer]++
				}
				return network.Verdict{}
			}))
		}
		r.sim.Spawn("driver-"+tc.name, func(p *vtime.Proc) {
			r.net.Unicast(sender, 0, tc.request(third))
			p.Sleep(5 * time.Second)
			if len(got) != 0 {
				t.Errorf("%s request naming a third party produced transfers to %v", tc.name, got)
			}
			r.net.Unicast(sender, 0, tc.request(sender))
			p.Sleep(5 * time.Second)
		})
		r.sim.Run(time.Hour)
		if len(got) != 1 || got[sender] != 1 {
			t.Errorf("%s request naming its sender: transfers %v, want one to node %d", tc.name, got, sender)
		}
	}
}

// TestBlockFillAcceptedOnlyWhenSolicited: a fill nobody is waiting for —
// any peer can send one, of any block — leaves no trace in the node; the
// one fetchBlock asked for is handed to it.
func TestBlockFillAcceptedOnlyWhenSolicited(t *testing.T) {
	r := newHandlerRig(t, 5)
	prop := r.makeProposal(t, 1)
	block, h := prop.Block.Block, prop.Block.AnnouncedHash()
	other := r.makeProposal(t, 2).Block.Block

	r.node.handleMessage(1, &BlockFill{Block: block, Recipient: 0})
	if _, ok := r.node.Ledger().BlockOfHash(h); ok || r.node.blockFills.Len() != 0 {
		t.Fatal("an unsolicited fill was kept")
	}

	peers := r.net.Neighbors(0)
	r.net.SetHandler(peers[0], network.HandlerFunc(func(from int, m network.Message) network.Verdict {
		if req, ok := m.(*BlockRequest); ok {
			// The wrong block, the right block for somebody else, then the answer.
			r.net.Unicast(peers[0], 0, &BlockFill{Block: other, Recipient: 0})
			r.net.Unicast(peers[0], 0, &BlockFill{Block: block, Recipient: 4})
			r.net.Unicast(peers[0], 0, &BlockFill{Block: block, Recipient: req.Requester})
		}
		return network.Verdict{}
	}))
	var got *ledger.Block
	r.sim.Spawn("fetcher", func(p *vtime.Proc) {
		got, _ = r.node.fetchBlock(p, h, p.Now()+time.Minute)
	})
	r.sim.Run(time.Hour)
	if got == nil || got.Hash() != h {
		t.Fatal("the fill that was asked for was not delivered")
	}
	if r.node.blockFills.Len() != 0 || r.node.blockWanted != (crypto.Digest{}) {
		t.Fatal("fetch state left behind")
	}
	if _, ok := r.node.Ledger().BlockOfHash(other.Hash()); ok {
		t.Fatal("a fill with another hash was kept")
	}
	snap := r.node.Metrics().Snapshot()
	if f, x := snap["algorand_node_block_fetches_total"].Value, snap["algorand_node_block_fetch_failures_total"].Value; f != 1 || x != 0 {
		t.Fatalf("fetches %v failures %v, want 1 and 0", f, x)
	}
}

// TestPendingBufferBounded: what a node holds for the round after its own
// cannot be verified yet, so a neighbour that floods it with next-round
// messages fills maxPendingBytes and no more; the rest is dropped and
// counted, and entering the round empties the buffer.
func TestPendingBufferBounded(t *testing.T) {
	r := newHandlerRig(t, 5)
	dropped := func() float64 {
		return r.node.Metrics().Snapshot()["algorand_node_pending_dropped_total"].Value
	}
	flood := &VoteMsg{Vote: ledger.Vote{Sender: r.ids[1].PublicKey(), Round: 2, Step: 1, SortProof: make([]byte, 1<<10), Sig: make([]byte, 64)}}
	fits := maxPendingBytes / flood.WireSize()
	for i := 0; i < fits+500; i++ {
		if v := r.node.handleMessage(1, flood); v.Relay {
			t.Fatal("unverified next-round vote relayed")
		}
	}
	if got := len(r.node.pendingMsgs[2]); got != fits {
		t.Fatalf("%d messages buffered, want the %d that fit in %d bytes", got, fits, maxPendingBytes)
	}
	if got := dropped(); got != 500 {
		t.Fatalf("dropped counter reads %v, want 500", got)
	}
	// Every kind shares the one budget.
	r.node.handleMessage(2, &BlockHave{Round: 2, Announcer: 2, Have: make(blockprop.Bitmap, 1<<10)})
	r.node.handleMessage(1, &PriorityGossip{M: blockprop.PriorityMsg{Round: 2, SortProof: make([]byte, 1<<10)}})
	if got := dropped(); got != 502 {
		t.Fatalf("dropped counter reads %v after two more kinds, want 502", got)
	}

	if err := r.node.Ledger().Commit(r.node.Ledger().NextEmptyBlock(), nil); err != nil {
		t.Fatal(err)
	}
	r.node.setContext(agreement.NewContext(r.node.Ledger()))
	if len(r.node.pendingMsgs) != 0 || len(r.node.pendingSize) != 0 {
		t.Fatalf("entering round 2 left %d buffers, %d byte counts", len(r.node.pendingMsgs), len(r.node.pendingSize))
	}
	r.node.handleMessage(1, &VoteMsg{Vote: ledger.Vote{Sender: r.ids[1].PublicKey(), Round: 3, Step: 1}})
	if len(r.node.pendingMsgs[3]) != 1 {
		t.Fatal("round 3 vote not buffered after the flood was cleared")
	}
}

// TestAllocBudgetUnselectedProposer guards §6's order: a user runs
// proposer sortition first and prepares a block only if selected. A node
// sortition passes over assembles nothing — it allocates the same with 10
// and with 10 000 payments pending and records no assemble span — where
// it used to build, apply and root a whole block and then throw it away.
func TestAllocBudgetUnselectedProposer(t *testing.T) {
	spans := func(r *handlerRig, phase trace.Phase) (k int) {
		for _, rt := range r.node.Tracer().Rounds() {
			for _, s := range rt.Spans {
				if s.Phase == phase {
					k++
				}
			}
		}
		return k
	}
	propose := func(r *handlerRig, payments int, tau uint64) (allocs float64) {
		prm := r.node.cfg.Params
		prm.TauProposer = tau
		r.node.SetParams(prm)
		r.node.flow = txflow.New(r.provider, txflow.Config{MaxPerSender: payments, Now: r.sim.Now})
		for i := 0; i < payments; i++ {
			id := r.ids[i%len(r.ids)]
			tx := &ledger.Transaction{From: id.PublicKey(), To: r.ids[(i+1)%len(r.ids)].PublicKey(), Amount: 1, Nonce: uint64(i / len(r.ids))}
			tx.Sign(id)
			if err := r.node.SubmitTx(tx); err != nil {
				t.Fatal(err)
			}
		}
		r.sim.Spawn("proposer", func(p *vtime.Proc) {
			r.node.proc = p
			allocs = testing.AllocsPerRun(20, func() { r.node.proposeIfSelected(r.ctx, 0) })
		})
		r.sim.Run(time.Second)
		return allocs
	}

	var unselected [2]float64
	for k, payments := range []int{10, 10000} {
		r := newHandlerRig(t, 5)
		if blockprop.Elect(r.ids[0], sortition.RoleProposer, r.ctx.Seed, 1, 1, 100, r.ctx.TotalWeight).Selected() {
			t.Fatal("node 0 is selected at τ_proposer = 1; the rig needs another seed")
		}
		unselected[k] = propose(r, payments, 1)
		if got := spans(r, trace.PhaseAssemble); got != 0 {
			t.Errorf("%d pending, not selected: %d assemble spans", payments, got)
		}
		if got := spans(r, trace.PhaseSortition); got != 21 {
			t.Errorf("%d pending: %d sortition spans over 21 elections", payments, got)
		}
		if r.node.propInbox(1).Len() != 0 {
			t.Error("an unselected node delivered itself a proposal")
		}
	}
	if unselected[0] != unselected[1] {
		t.Errorf("not selected: %.0f allocations with 10 pending, %.0f with 10 000", unselected[0], unselected[1])
	}

	// Selected, the same call assembles: one span and one proposal a call.
	r := newHandlerRig(t, 5)
	if selected := propose(r, 10, 200); selected <= unselected[0] {
		t.Errorf("selected proposer allocated %.0f, unselected %.0f", selected, unselected[0])
	}
	if got := spans(r, trace.PhaseAssemble); got != 21 {
		t.Errorf("selected: %d assemble spans over 21 proposals", got)
	}
	if got := r.node.propInbox(1).Len(); got != 42 {
		t.Errorf("selected: %d arrivals for the waiter, want a priority and a block per proposal", got)
	}
}
