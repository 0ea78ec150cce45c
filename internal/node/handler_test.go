package node

// White-box tests of the node's gossip message handling: verdicts,
// pull-based block fetching, pending-round buffering.

import (
	"sync"
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
			r.net.Unicast(idx, from, &BlockPiece{P: pieces[req.Index]})
		}
		return network.Verdict{}
	}))
	return &BlockAnnounce{Manifest: *m}
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
			if bp.P.BlockHash() != h || bp.P.Index() != 0 {
				t.Error("served the wrong piece")
			}
			served++
		}
		return network.Verdict{}
	}))
	r.sim.Spawn("driver", func(p *vtime.Proc) {
		r.net.Unicast(3, 0, &PieceRequest{Hash: h, Index: 0})
		// Requests for unknown blocks and for pieces the body does not
		// have are ignored.
		r.net.Unicast(3, 0, &PieceRequest{Hash: crypto.Digest{42}, Index: 0})
		r.net.Unicast(3, 0, &PieceRequest{Hash: h, Index: 7})
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
		r.node.pendingMsgs[2] = append(r.node.pendingMsgs[2], pending{1, &VoteMsg{Vote: *v}})
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

// TestRequestsAnsweredToSenderOnly: a request for a piece, a block, a
// run of the chain or a checkpoint is answered to the peer it came from;
// it has no field that could name anybody else. A third party that sends
// the genuine requester's exact bytes first is answered itself, and does
// not stop the genuine requester from being served: the transport
// remembers no request.
func TestRequestsAnsweredToSenderOnly(t *testing.T) {
	r := newHandlerRig(t, 5)
	prop := r.makeProposal(t, 1)
	r.node.HoldProposal(&prop.Block)
	l := r.node.Ledger()
	b1 := l.NextEmptyBlock()
	cert := &ledger.Certificate{Round: 1, Value: b1.Hash()}
	if err := l.Commit(b1, cert); err != nil {
		t.Fatal(err)
	}
	r.node.checkpoint = ledger.CheckpointOf(b1, cert, l.Balances())

	const genuine, third = 3, 2
	cases := []struct {
		name    string
		request func() network.Message
		isReply func(m network.Message) bool
	}{
		{"piece",
			func() network.Message { return &PieceRequest{Hash: prop.Block.Block.Hash(), Index: 0} },
			func(m network.Message) bool { _, ok := m.(*BlockPiece); return ok }},
		{"block",
			func() network.Message { return &BlockRequest{Hash: b1.Hash()} },
			func(m network.Message) bool { _, ok := m.(*BlockFill); return ok }},
		{"chain",
			func() network.Message { return &ChainRequest{FromRound: 1, MaxBlocks: 8} },
			func(m network.Message) bool { _, ok := m.(*ChainReply); return ok }},
		{"snapshot",
			func() network.Message { return &SnapshotRequest{} },
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
			r.net.Unicast(third, 0, tc.request())
			p.Sleep(time.Second)
			r.net.Unicast(genuine, 0, tc.request())
			p.Sleep(5 * time.Second)
		})
		r.sim.Run(time.Hour)
		if len(got) != 2 || got[third] != 1 || got[genuine] != 1 {
			t.Errorf("%s request sent by a third party, then by its requester: transfers %v, want one to each of %d and %d",
				tc.name, got, third, genuine)
		}
	}
}

// TestForgedCopyDoesNotShadowGenuine: duplicate suppression marks a
// flooded message seen before the handler verifies it, so its ID covers
// every byte the handler authenticates. A vote, a priority announcement
// or a batch with one signature byte changed, delivered first, is
// rejected, and the genuine message after it is still counted or
// admitted. A holder's announce handed on by another neighbour first
// still lets the holder's own announce make it a source.
func TestForgedCopyDoesNotShadowGenuine(t *testing.T) {
	r := newHandlerRig(t, 5)
	vote := r.makeVote(t, 1, 1, agreement.StepReduction1, crypto.HashBytes("v"))
	prop := r.makeProposal(t, 1)
	tx := &ledger.Transaction{From: r.ids[1].PublicKey(), To: r.ids[2].PublicKey(), Amount: 1}
	tx.Sign(r.ids[1])
	forge := func(sig []byte) []byte {
		f := append([]byte(nil), sig...)
		f[0] ^= 1
		return f
	}
	forgedVote := *vote
	forgedVote.Sig = forge(vote.Sig)
	forgedPri := prop.Priority
	forgedPri.Sig = forge(prop.Priority.Sig)
	forgedTx := *tx
	forgedTx.Sig = forge(tx.Sig)

	pairs := [][2]network.Message{
		{&VoteMsg{Vote: forgedVote}, &VoteMsg{Vote: *vote}},
		{&PriorityGossip{M: forgedPri}, &PriorityGossip{M: prop.Priority}},
		{&TxBatch{Txns: []*ledger.Transaction{&forgedTx}}, &TxBatch{Txns: []*ledger.Transaction{tx}}},
	}
	r.sim.Spawn("forger", func(p *vtime.Proc) {
		for _, pair := range pairs {
			r.net.Unicast(2, 0, pair[0])
			p.Sleep(time.Second)
			r.net.Unicast(1, 0, pair[1])
			p.Sleep(time.Second)
		}
	})
	r.sim.Run(time.Minute)
	if got := r.node.voteInbox(1, agreement.StepReduction1).Len(); got != 1 {
		t.Errorf("%d votes counted, want the genuine one", got)
	}
	if got := r.node.propInbox(1).Len(); got != 1 {
		t.Errorf("%d priority arrivals, want the genuine one", got)
	}
	if st := r.node.TxFlow().Stats(); st.Pending != 1 {
		t.Errorf("%d payments pending, want the genuine one", st.Pending)
	}

	// An announce travels one hop and names no holder: neighbour 2 handing
	// on holder 1's announce first makes 2 a source, and 1's own announce
	// still makes 1 one. 2 never serves a piece, so 1 is asked.
	a := newHandlerRig(t, 5)
	requests := 0
	ann := a.holder(1, prop, &requests)
	a.sim.Spawn("hand-on", func(p *vtime.Proc) {
		a.net.Unicast(2, 0, ann)
		p.Sleep(time.Second)
		a.net.Unicast(1, 0, ann)
	})
	a.sim.Run(time.Minute)
	if _, ok := a.node.Ledger().BlockOfHash(prop.Block.AnnouncedHash()); requests == 0 || !ok {
		t.Errorf("holder 1 asked for %d pieces and the body assembled: %v; want it asked and the body held", requests, ok)
	}
}

// TestReplayedOneHopVerifiedOnce: no transport remembers a one-hop
// message, so what a copy of one costs is its handler's to bound. A
// neighbour announces a body once: the same genuine announce delivered
// 100 times costs one sortition check, for a body taken and for a third
// body of one proposer, which is refused. A batch delivered 100 times is
// admitted once and each payment's signature verified once, because the
// mempool drops a payment it holds before its signature is looked at.
func TestReplayedOneHopVerifiedOnce(t *testing.T) {
	r := newHandlerRig(t, 5)
	checks := func() int { return counter(r.node, announceChecksName) }
	body := func(tag string) *BlockAnnounce {
		pri := r.makeProposal(t, 1).Priority
		if tag != "" {
			pri.BlockHash = crypto.HashBytes(tag)
			pri.Sig = r.ids[1].Sign(pri.SigningBytes())
		}
		return &BlockAnnounce{Manifest: blockprop.Manifest{Announce: pri}}
	}
	r.node.handleMessage(1, body("second"))
	for _, tc := range []struct {
		name string
		ann  *BlockAnnounce
	}{{"taken", body("")}, {"refused third body", body("third")}} {
		before := checks()
		for i := 0; i < 100; i++ {
			r.node.handleMessage(2, tc.ann)
		}
		if got := checks() - before; got != 1 {
			t.Errorf("%s: one announce delivered 100 times cost %d sortition checks, want 1", tc.name, got)
		}
	}
	if got := r.node.fetch.Bodies(); got != 2 {
		t.Errorf("the fetcher holds %d bodies of proposer 1, want 2 and the third refused", got)
	}

	var txs []*ledger.Transaction
	for i := 1; i <= 2; i++ {
		tx := &ledger.Transaction{From: r.ids[i].PublicKey(), To: r.ids[0].PublicKey(), Amount: 1}
		tx.Sign(r.ids[i])
		txs = append(txs, tx)
	}
	batch := &TxBatch{Txns: txs}
	for i := 0; i < 100; i++ {
		r.node.handleMessage(3, batch)
	}
	if st := r.node.TxFlow().Stats(); st.Admitted != 2 || st.Verified != 2 {
		t.Errorf("a batch of 2 delivered 100 times: %d admitted, %d signatures verified; want 2 and 2", st.Admitted, st.Verified)
	}
}

// TestAllocBudgetFloodedIDs: a relayed message's ID, a vote's or a
// priority announcement's, covers its signed bytes and signature. Two
// copies of one message share it, an equivocator's two votes or
// announcements and a copy with a forged signature do not, and working it
// out allocates nothing once the preimage pool is warm.
func TestAllocBudgetFloodedIDs(t *testing.T) {
	r := newHandlerRig(t, 5)
	a := r.makeProposal(t, 1)
	b := r.makeProposal(t, 1)
	b.Priority.BlockHash = crypto.HashBytes("equivocation")
	b.Priority.Sig = r.ids[1].Sign(b.Priority.SigningBytes())
	vote := func(value string, sig func([]byte)) network.Flooded {
		v := r.makeVote(t, 1, 1, agreement.StepReduction1, crypto.HashBytes(value))
		sig(v.Sig)
		return &VoteMsg{Vote: *v}
	}
	keep, flip := func([]byte) {}, func(s []byte) { s[len(s)-1] ^= 1 }
	same := [][2]network.Flooded{
		{vote("v", keep), vote("v", keep)},
		{&PriorityGossip{M: a.Priority}, &PriorityGossip{M: a.Priority}},
	}
	distinct := [][2]network.Flooded{
		{vote("v", keep), vote("w", keep)},
		{vote("v", keep), vote("v", flip)},
		{&PriorityGossip{M: a.Priority}, &PriorityGossip{M: b.Priority}},
	}
	for i, p := range same {
		if p[0].ID() != p[1].ID() {
			t.Errorf("same %d: two copies of one %T have two IDs", i, p[0])
		}
	}
	for i, p := range distinct {
		if p[0].ID() == p[1].ID() {
			t.Errorf("distinct %d: two %T share an ID", i, p[0])
		}
	}
	if !poolKeeps() {
		t.Skip("sync.Pool drops Puts here (race detector): every dropped preimage is allocated again")
	}
	for _, m := range []network.Flooded{same[0][0], same[1][0]} {
		if got := testing.AllocsPerRun(100, func() { m.ID() }); got != 0 {
			t.Errorf("%T.ID: %.0f allocations, want 0", m, got)
		}
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

// TestRepliesSentTwiceTakenOnce: a reply or a piece is not Flooded, so
// the network hands each copy to the handler, and the handler's request
// tables take it once — a chain or snapshot reply once for the loop
// that asked (Requests), a piece once for the fetcher. (A block fill
// sent twice is TestBlockFillAcceptedOnlyWhenSolicited's.)
func TestRepliesSentTwiceTakenOnce(t *testing.T) {
	r := newHandlerRig(t, 5)
	n := r.node
	b1 := n.Ledger().NextEmptyBlock()
	chk := ledger.CheckpointOf(b1, &ledger.Certificate{Round: 1, Value: b1.Hash()}, n.Ledger().Balances())
	n.asked.File(1, TagChainReply)
	n.asked.File(2, TagSnapshotReply)
	r.sim.Spawn("replier", func(p *vtime.Proc) {
		for i := 0; i < 2; i++ {
			r.net.Unicast(1, 0, &ChainReply{Blocks: []*ledger.Block{b1}})
			r.net.Unicast(2, 0, &SnapshotReply{Checkpoint: chk})
		}
		p.Sleep(time.Second)
	})
	r.sim.Run(time.Minute)
	if n.chainReplies.Len() != 1 || n.snapReplies.Len() != 1 {
		t.Fatalf("answers queued: %d chain, %d snapshot; want one each", n.chainReplies.Len(), n.snapReplies.Len())
	}

	prop := r.bigProposal(t, 1, 3)
	m, pieces := blockprop.Split(r.ids[1], &prop.Block)
	r.net.SetHandler(1, network.HandlerFunc(func(from int, msg network.Message) network.Verdict {
		if req, ok := msg.(*PieceRequest); ok {
			r.net.Unicast(1, from, &BlockPiece{P: pieces[req.Index]})
			r.net.Unicast(1, from, &BlockPiece{P: pieces[req.Index]})
		}
		return network.Verdict{}
	}))
	r.sim.Spawn("announcer", func(p *vtime.Proc) {
		r.net.Unicast(1, 0, &BlockAnnounce{Manifest: *m})
		p.Sleep(10 * time.Second)
	})
	r.sim.Run(2 * time.Minute)
	snapM := n.Metrics().Snapshot()
	requested := snapM["algorand_blockprop_pieces_requested_total"].Value
	received := snapM["algorand_blockprop_pieces_received_total"].Value
	dup := snapM["algorand_blockprop_pieces_duplicate_total"].Value
	if int(requested) != len(pieces) || received != requested || dup != requested {
		t.Fatalf("%d pieces: %v requested, %v taken, %v dropped as duplicates; want each piece taken once and its copy dropped",
			len(pieces), requested, received, dup)
	}
	if got := n.propInbox(1).Len(); got != 2 {
		t.Fatalf("waiter saw %d arrivals, want the priority and the block once", got)
	}
}

// TestBlockFillAcceptedOnlyWhenSolicited: a fill nobody is waiting for —
// any peer can send one, of any block — leaves no trace in the node; the
// one fetchBlock asked for is handed to it, once.
func TestBlockFillAcceptedOnlyWhenSolicited(t *testing.T) {
	r := newHandlerRig(t, 5)
	prop := r.makeProposal(t, 1)
	block, h := prop.Block.Block, prop.Block.AnnouncedHash()
	other := r.makeProposal(t, 2).Block.Block

	r.node.handleMessage(1, &BlockFill{Block: block})
	if _, ok := r.node.Ledger().BlockOfHash(h); ok || r.node.blockFills.Len() != 0 {
		t.Fatal("an unsolicited fill was kept")
	}

	peers := r.net.Neighbors(0)
	r.net.SetHandler(peers[0], network.HandlerFunc(func(from int, m network.Message) network.Verdict {
		if _, ok := m.(*BlockRequest); ok {
			// The wrong block, then the answer twice: the second copy
			// finds nobody waiting.
			r.net.Unicast(peers[0], from, &BlockFill{Block: other})
			r.net.Unicast(peers[0], from, &BlockFill{Block: block})
			r.net.Unicast(peers[0], from, &BlockFill{Block: block})
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

// TestRepliesTakenOnlyWhenAsked: the node's chain and snapshot replies
// go through its Requests table. A flood nobody asked for, a reply from
// another peer and a second reply to one request are dropped unread; the
// answer is queued for the loop that asked, once.
func TestRepliesTakenOnlyWhenAsked(t *testing.T) {
	r := newHandlerRig(t, 5)
	n := r.node
	queued := func() int { return n.chainReplies.Len() + n.snapReplies.Len() }
	for i := 0; i < 1000; i++ {
		for _, from := range []int{1, 2} {
			n.handleMessage(from, &ChainReply{})
			n.handleMessage(from, &SnapshotReply{Checkpoint: &ledger.Checkpoint{}})
		}
	}
	if got := queued(); got != 0 {
		t.Fatalf("%d unsolicited replies queued", got)
	}

	n.asked.File(1, TagChainReply)
	n.asked.File(2, TagSnapshotReply)
	n.handleMessage(2, &ChainReply{})
	n.handleMessage(1, &SnapshotReply{Checkpoint: &ledger.Checkpoint{}})
	if got := queued(); got != 0 {
		t.Fatalf("%d replies from a peer not asked queued", got)
	}
	for i := 0; i < 2; i++ {
		n.handleMessage(1, &ChainReply{})
		n.handleMessage(2, &SnapshotReply{Checkpoint: &ledger.Checkpoint{}})
	}
	if n.chainReplies.Len() != 1 || n.snapReplies.Len() != 1 {
		t.Fatalf("answers queued: %d chain, %d snapshot; want one each", n.chainReplies.Len(), n.snapReplies.Len())
	}
}

// TestRequests: a reply is taken once per request filed to the peer it
// came from with the tag asked for, the oldest of more than maxAsked
// filed requests is forgotten, and a late reply is taken while its
// request is still filed.
func TestRequests(t *testing.T) {
	type msg struct {
		peer int
		tag  byte
	}
	chain, snap := msg{1, TagChainReply}, msg{2, TagSnapshotReply}
	times := func(k int, m msg) []msg {
		out := make([]msg, k)
		for i := range out {
			out[i] = m
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		file    []msg
		replies []msg
		taken   int // how many of replies, counted from the first, are taken
	}{
		{"once per request", []msg{chain, chain}, times(3, chain), 2},
		{"wrong peer or tag", []msg{chain}, []msg{{2, TagChainReply}, {1, TagSnapshotReply}}, 0},
		{"oldest forgotten", append([]msg{snap}, times(maxAsked, chain)...), append(times(maxAsked+1, chain), snap), maxAsked},
		{"late reply", append([]msg{snap}, times(maxAsked-1, chain)...), []msg{snap}, 1},
	} {
		var r Requests
		for _, m := range tc.file {
			r.File(m.peer, m.tag)
		}
		for i, m := range tc.replies {
			if got := r.Take(m.peer, m.tag); got != (i < tc.taken) {
				t.Errorf("%s: reply %d from %d tagged %d taken = %v, want %v", tc.name, i, m.peer, m.tag, got, !got)
			}
		}
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
	r.node.handleMessage(2, &BlockHave{Round: 2, Have: make(blockprop.Bitmap, 1<<10)})
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

// TestRecoveryProposalOnlyForALiveAttempt: a §8.2 recovery proposal is
// verified, relayed and kept only for an attempt recover could be running
// — of this checkpoint or the one before, below maxRecoveryAttempts — and
// entering a regular round forgets every recovery round. A stakeholder
// that searches checkpoints offline until sortition picks it as fork
// proposer must not be able to grow every honest node by an inbox, a best
// priority and a body fetch per hit, for good.
func TestRecoveryProposalOnlyForALiveAttempt(t *testing.T) {
	r := newHandlerRig(t, 5)
	r.sim.After(2*time.Hour+time.Minute, func() {}) // the clock at checkpoint 2
	r.sim.Run(0)
	tips := r.node.Ledger().ForkTips()
	fork := ledger.EmptyBlock(tips[0].Block.Round+1, tips[0].Hash, tips[0].Block.Seed, tips[0].Block.StateRoot)
	propose := func(checkpoint, attempt uint64) *blockprop.Proposal {
		ctx := r.node.recoveryContext(checkpoint, attempt)
		body := *fork // a body of its own per attempt, for the fetcher to tell apart
		body.Timestamp = time.Duration(ctx.Round)
		prop := blockprop.Propose(r.ids[1], sortition.RoleForkProposer, ctx.Seed, ctx.Round,
			r.node.cfg.Params.TauProposer, 100, ctx.TotalWeight, &body)
		if prop == nil {
			t.Fatal("identity not selected as fork proposer; raise tau")
		}
		return prop
	}
	recoveryState := func() (inboxes, best int) {
		for round := range r.node.propInboxes {
			if round >= ledger.RecoveryRoundBase {
				inboxes++
				if _, ok := r.node.fetch.Best(round); ok {
					best++
				}
			}
		}
		return inboxes, best
	}

	maxAttempts := uint64(maxRecoveryAttempts)
	var dead [][2]uint64
	for cp := uint64(1000); cp < 1040; cp++ {
		dead = append(dead, [2]uint64{cp, 0})
	}
	dead = append(dead, [2]uint64{0, 0}, [2]uint64{3, 0}, [2]uint64{2, maxAttempts})
	for _, c := range dead {
		if v := r.node.handleMessage(1, &PriorityGossip{M: propose(c[0], c[1]).Priority}); v.Relay {
			t.Fatalf("a proposal for checkpoint %d attempt %d at checkpoint 2 was relayed", c[0], c[1])
		}
	}
	if got := r.node.priorityChecks.Load(); got != 0 {
		t.Fatalf("%d proposals for attempts no node can be running were verified", got)
	}
	if inboxes, best := recoveryState(); inboxes != 0 || best != 0 {
		t.Fatalf("they left %d inboxes and %d best priorities", inboxes, best)
	}

	live := [][2]uint64{{1, 0}, {2, 0}, {2, maxAttempts - 1}}
	for _, c := range live {
		prop := propose(c[0], c[1])
		if v := r.node.handleMessage(1, &PriorityGossip{M: prop.Priority}); !v.Relay {
			t.Fatalf("a proposal for checkpoint %d attempt %d at checkpoint 2 was not relayed", c[0], c[1])
		}
		m, _ := blockprop.Split(r.ids[1], &prop.Block)
		r.node.handleMessage(1, &BlockAnnounce{Manifest: *m})
	}
	if inboxes, best := recoveryState(); inboxes != len(live) || best != len(live) || r.node.fetch.Bodies() != len(live) {
		t.Fatalf("live attempts left %d inboxes, %d best priorities, %d bodies; want %d each",
			inboxes, best, r.node.fetch.Bodies(), len(live))
	}

	r.node.setContext(agreement.NewContext(r.node.Ledger()))
	if inboxes, best := recoveryState(); inboxes != 0 || best != 0 || r.node.fetch.Bodies() != 0 {
		t.Fatalf("a regular round kept %d recovery inboxes, %d best priorities, %d bodies", inboxes, best, r.node.fetch.Bodies())
	}
}
