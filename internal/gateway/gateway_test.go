package gateway

import (
	"slices"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/node"
	"algorand/internal/params"
	"algorand/internal/sortition"
	"algorand/internal/txflow"
	"algorand/internal/vtime"
)

// stubNet records the gateway's outgoing traffic without a network.
type stubNet struct {
	unicasts  []stubSend
	gossips   []network.Message
	handler   network.Handler
	neighbors []int
}

type stubSend struct {
	to int
	m  network.Message
}

func (s *stubNet) Gossip(origin int, m network.Message) { s.gossips = append(s.gossips, m) }
func (s *stubNet) Unicast(from, to int, m network.Message) {
	s.unicasts = append(s.unicasts, stubSend{to: to, m: m})
}
func (s *stubNet) SetHandler(id int, h network.Handler) { s.handler = h }
func (s *stubNet) Neighbors(id int) []int               { return s.neighbors }

// testCommittee is the harness's certificate-verification
// configuration: a committee large enough that every funded identity
// votes, with thresholds the deterministic fast crypto always clears.
var testCommittee = ledger.CommitteeParams{
	TauStep: 120, StepThreshold: 5, TauFinal: 120, FinalThreshold: 5,
}

// testParams size the harness gateway's chain requests (node.ChainAsk).
var testParams = params.Default()

// testHarness is a gateway against a stub transport, plus a shadow
// ledger speaking for the consensus cluster: it proposes certified
// blocks the gateway's read model must verify.
type testHarness struct {
	sim   *vtime.Sim
	net   *stubNet
	gw    *Gateway
	prov  crypto.Provider
	ids   []crypto.Identity
	seed0 crypto.Digest
	l     *ledger.Ledger
	// genesis is what a replacement gateway is built from.
	genesis map[crypto.PublicKey]uint64
}

func newHarness(t *testing.T, cfg Config, users int) *testHarness {
	t.Helper()
	sim := vtime.New()
	prov := crypto.NewFast()
	genesis := make(map[crypto.PublicKey]uint64, users)
	var ids []crypto.Identity
	for i := 0; i < users; i++ {
		id := prov.NewIdentity(crypto.SeedFromUint64(uint64(i) + 1))
		ids = append(ids, id)
		genesis[id.PublicKey()] = 1000
	}
	cfg.Committee = testCommittee
	cfg.LedgerCfg = ledger.DefaultConfig()
	seed0 := crypto.HashBytes("gateway.test.seed0")
	net := &stubNet{neighbors: []int{0, 1, 2}}
	gw := New(100, sim, net, prov, cfg, testParams, genesis, seed0)
	l := ledger.New(prov, cfg.LedgerCfg, genesis, seed0)
	return &testHarness{sim: sim, net: net, gw: gw, prov: prov, ids: ids, seed0: seed0, l: l, genesis: genesis}
}

func (h *testHarness) tx(t *testing.T, from, to, nonce int) *ledger.Transaction {
	t.Helper()
	tx := &ledger.Transaction{
		From:   h.ids[from].PublicKey(),
		To:     h.ids[to].PublicKey(),
		Amount: 1,
		Fee:    1,
		Nonce:  uint64(nonce),
	}
	tx.Sign(h.ids[from])
	return tx
}

// propose builds a valid block extending the shadow ledger's head,
// proposed by ids[0], without committing it.
func (h *testHarness) propose(txs ...ledger.Transaction) *ledger.Block {
	id := h.ids[0]
	round := h.l.NextRound()
	out, proof := id.VRFProve(ledger.SeedAlpha(h.l.PrevSeed(), round))
	post := h.l.Balances().Clone()
	for i := range txs {
		post.ApplyTx(&txs[i])
	}
	return &ledger.Block{
		Round:     round,
		PrevHash:  h.l.HeadHash(),
		Timestamp: time.Duration(round) * time.Second,
		StateRoot: post.Root(),
		Seed:      ledger.SeedFromVRF(out),
		SeedProof: proof,
		Proposer:  id.PublicKey(),
		Txns:      txs,
	}
}

// certify builds a valid committee certificate for b at the shadow
// ledger's head by running sortition across the whole population.
func (h *testHarness) certify(b *ledger.Block, final bool) *ledger.Certificate {
	const step = 1
	value := b.Hash()
	seed := h.l.SortitionSeed(b.Round)
	weights, total := h.l.SortitionWeights(b.Round)
	role := sortition.Role{Kind: sortition.RoleCommittee, Round: b.Round, Step: step}
	cert := &ledger.Certificate{Round: b.Round, Step: step, Value: value, Final: final}
	for _, id := range h.ids {
		res := sortition.Execute(id, seed[:], role, testCommittee.TauStep, weights[id.PublicKey()], total)
		if res.J == 0 {
			continue
		}
		v := ledger.Vote{
			Sender:    id.PublicKey(),
			Round:     b.Round,
			Step:      step,
			SortHash:  res.Output,
			SortProof: res.Proof,
			PrevHash:  h.l.HeadHash(),
			Value:     value,
		}
		v.Sign(id)
		cert.Votes = append(cert.Votes, v)
	}
	return cert
}

// advance commits one certified block (with the given transactions) on
// both the shadow ledger and, via a ChainReply, the gateway.
func (h *testHarness) advance(t *testing.T, txs ...ledger.Transaction) *ledger.Block {
	t.Helper()
	b := h.propose(txs...)
	cert := h.certify(b, false)
	if err := h.l.Commit(b, cert); err != nil {
		t.Fatalf("shadow commit: %v", err)
	}
	h.gw.applyRun([]*ledger.Block{b}, []*ledger.Certificate{cert})
	return b
}

func TestReadModelGenesisMatchesLedger(t *testing.T) {
	h := newHarness(t, Config{}, 3)
	_, head := h.gw.rm.Head()
	if head != h.l.HeadHash() {
		t.Fatalf("read-model genesis head %x != ledger genesis head %x", head, h.l.HeadHash())
	}
}

// TestFlushGossipsEveryDrainedBatch: a gateway hands payments to the
// network as a node does — each drained batch leaves as one TxBatch
// flood, in admission order, and nothing is unicast to a chosen node.
func TestFlushGossipsEveryDrainedBatch(t *testing.T) {
	h := newHarness(t, Config{}, 16)
	// More than one batch's worth.
	var want []crypto.Digest
	for bytes := 0; bytes <= node.MaxTxBatchBytes; {
		from := len(want) % len(h.ids)
		tx := h.tx(t, from, (from+1)%len(h.ids), len(want)/len(h.ids))
		if err := h.gw.Submit(tx); err != nil {
			t.Fatalf("submit: %v", err)
		}
		want = append(want, tx.ID())
		bytes += tx.WireSize()
	}
	h.gw.flushOnce()
	if len(h.net.unicasts) != 0 {
		t.Fatalf("flush unicast %d messages", len(h.net.unicasts))
	}
	if len(h.net.gossips) < 2 {
		t.Fatalf("%d payments left in %d floods, want them split at the batch cap", len(want), len(h.net.gossips))
	}
	var got []crypto.Digest
	for _, m := range h.net.gossips {
		batch, ok := m.(*node.TxBatch)
		if !ok || batch.WireSize() > node.MaxTxBatchBytes+4 {
			t.Fatalf("flush gossiped %T of %d bytes", m, m.WireSize())
		}
		for _, tx := range batch.Txns {
			got = append(got, tx.ID())
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("floods carry %d payments, want the %d admitted in admission order", len(got), len(want))
	}
	if st := h.gw.Stats(); st.BatchesRouted != int64(len(h.net.gossips)) || st.TxsRouted != int64(len(want)) {
		t.Fatalf("stats batches=%d txs=%d, want %d/%d", st.BatchesRouted, st.TxsRouted, len(h.net.gossips), len(want))
	}
	// Drained: a second flush sends nothing.
	floods := len(h.net.gossips)
	h.gw.flushOnce()
	if len(h.net.gossips) != floods {
		t.Fatal("a second flush sent again")
	}
}

// TestResendWaitsThreeAppliedRounds: the chain paces the resend. A
// payment still pending is flooded again once the read model has
// applied resendAfter rounds past the head it was admitted at, not
// before, and then not again until resendAfter more.
func TestResendWaitsThreeAppliedRounds(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	old := h.tx(t, 0, 1, 0)
	if err := h.gw.Submit(old); err != nil {
		t.Fatalf("submit: %v", err)
	}
	h.gw.flushOnce()
	h.advance(t) // round 1
	young := h.tx(t, 1, 2, 0)
	if err := h.gw.Submit(young); err != nil {
		t.Fatalf("submit: %v", err)
	}
	h.gw.flushOnce()
	resent := func() []crypto.Digest {
		var ids []crypto.Digest
		for _, m := range h.net.gossips[2:] {
			for _, tx := range m.(*node.TxBatch).Txns {
				ids = append(ids, tx.ID())
			}
		}
		return ids
	}
	h.advance(t) // round 2: old was admitted at 0, two rounds ago
	if ids := resent(); len(ids) != 0 {
		t.Fatalf("%d payments re-sent two rounds after admission", len(ids))
	}
	h.advance(t) // round 3: old is three rounds old, young two
	if ids := resent(); !slices.Equal(ids, []crypto.Digest{old.ID()}) {
		t.Fatalf("re-sent %d payments at round 3, want the one admitted at round 0", len(ids))
	}
	h.advance(t) // round 4: young is three rounds old; old was re-sent at 3
	if ids := resent(); !slices.Equal(ids, []crypto.Digest{old.ID(), young.ID()}) {
		t.Fatalf("re-sent %d payments by round 4, want old once and young once", len(ids))
	}
	if st := h.gw.Stats(); st.Resent != 2 {
		t.Fatalf("resent = %d, want 2", st.Resent)
	}
	// Committed: cleared from the pool, never sent again.
	h.advance(t, *old, *young)
	h.advance(t)
	h.advance(t)
	h.advance(t)
	if st := h.gw.Stats(); st.Resent != 2 || st.Pending != 0 {
		t.Fatalf("after commit: resent=%d pending=%d, want 2/0", st.Resent, st.Pending)
	}
}

// TestOneChainRequestPerStartingRound: the gateway's process wakes every
// flushInterval and asks once per askInterval, from the round past its
// head. A reply that moves the head moves the next request's starting
// round; a head that has not moved is asked for again an askInterval later.
func TestOneChainRequestPerStartingRound(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	h.gw.Start()
	b1 := h.propose()
	cert1 := h.certify(b1, false)
	if err := h.l.Commit(b1, cert1); err != nil {
		t.Fatalf("shadow commit: %v", err)
	}
	h.sim.Run(askInterval + askInterval/2)
	if req := h.lastRequest(t); len(h.net.unicasts) != 1 || req.FromRound != 1 {
		t.Fatalf("six wakes sent %d requests, last from round %d; want 1, from round 1", len(h.net.unicasts), req.FromRound)
	}
	h.gw.handleMessage(h.net.unicasts[0].to, &node.ChainReply{
		Blocks: []*ledger.Block{b1}, Certs: []*ledger.Certificate{cert1},
	})
	h.sim.Run(2*askInterval + askInterval/2)
	if req := h.lastRequest(t); len(h.net.unicasts) != 2 || req.FromRound != 2 {
		t.Fatalf("after the head moved to 1: %d requests, last from round %d; want 2, from round 2", len(h.net.unicasts), req.FromRound)
	}
	h.sim.Run(3*askInterval + askInterval/2)
	if req := h.lastRequest(t); len(h.net.unicasts) != 3 || req.FromRound != 2 {
		t.Fatalf("the same gap an askInterval later: %d requests, last from round %d; want 3, from round 2", len(h.net.unicasts), req.FromRound)
	}
}

// TestAnnounceDrivesChainFetchAndCertifiedApply: one chain request to one
// neighbour suffices, because the certificates in its reply carry the
// trust, and the certified reply moves balances and transaction status.
func TestAnnounceDrivesChainFetchAndCertifiedApply(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	b1 := h.propose(*h.tx(t, 0, 1, 0))
	cert1 := h.certify(b1, false)

	h.gw.askChain()
	if len(h.net.unicasts) != 1 {
		t.Fatalf("want 1 chain fetch, got %d", len(h.net.unicasts))
	}
	req, ok := h.net.unicasts[0].m.(*node.ChainRequest)
	if !ok || req.FromRound != 1 || h.net.unicasts[0].to != 0 {
		t.Fatalf("unexpected fetch %#v", h.net.unicasts[0])
	}
	// The certified reply applies the block.
	h.gw.handleMessage(0, &node.ChainReply{
		Blocks: []*ledger.Block{b1}, Certs: []*ledger.Certificate{cert1},
	})
	round, head := h.gw.rm.Head()
	if round != 1 || head != b1.Hash() {
		t.Fatalf("head = (%d, %x), want (1, %x)", round, head, b1.Hash())
	}
	// Balances moved and the tx is committed.
	money, nonce, asOf := h.gw.rm.Balance(h.ids[0].PublicKey())
	if money != 998 || nonce != 1 || asOf != 1 {
		t.Fatalf("sender state = (%d, %d, %d), want (998, 1, 1)", money, nonce, asOf)
	}
	status, r, _ := h.gw.rm.TxStatus(b1.Txns[0].ID())
	if status != StatusCommitted || r != 1 {
		t.Fatalf("tx status = (%s, %d), want (committed, 1)", status, r)
	}
}

// TestGatewayAsksNeighboursInTurn: once per askInterval the gateway asks
// the next of its neighbours, as the transport names them, for the chain
// from the round past its head, as many blocks as a node asks for
// (node.ChainAsk), and it takes a reply only from the neighbour it asked.
// A reply from another is not applied, even a genuine one.
func TestGatewayAsksNeighboursInTurn(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	blocks := node.ChainAsk(testParams)
	h.gw.Start()
	b1 := h.propose()
	cert1 := h.certify(b1, false)
	if err := h.l.Commit(b1, cert1); err != nil {
		t.Fatalf("shadow commit: %v", err)
	}
	reply := &node.ChainReply{Blocks: []*ledger.Block{b1}, Certs: []*ledger.Certificate{cert1}}
	h.sim.Run(2 * askInterval)
	if len(h.net.unicasts) != 2 || h.net.unicasts[0].to != 0 || h.net.unicasts[1].to != 1 {
		t.Fatalf("two askIntervals sent %+v, want one ChainRequest to 0, then one to 1", h.net.unicasts)
	}
	h.gw.handleMessage(2, reply)
	if round, _ := h.gw.rm.Head(); round != 0 {
		t.Fatalf("a reply from a neighbour not asked moved the head to %d", round)
	}
	h.gw.handleMessage(1, reply)
	if round, head := h.gw.rm.Head(); round != 1 || head != b1.Hash() {
		t.Fatalf("head = (%d, %x) after the reply of the neighbour asked, want (1, %x)", round, head, b1.Hash())
	}
	h.sim.Run(4 * askInterval)
	var to []int
	for i, u := range h.net.unicasts {
		req := u.m.(*node.ChainRequest)
		if want := uint64(1 + i/2); req.FromRound != want || req.MaxBlocks != blocks {
			t.Fatalf("request %d asks from round %d for %d blocks, want from %d for %d", i, req.FromRound, req.MaxBlocks, want, blocks)
		}
		to = append(to, u.to)
	}
	if !slices.Equal(to, []int{0, 1, 2, 0}) {
		t.Fatalf("four askIntervals asked %v, want the neighbours in turn: [0 1 2 0]", to)
	}
}

func TestApplyRejectsUncertifiedAndForgedBlocks(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	b1 := h.propose(*h.tx(t, 0, 1, 0))

	// No certificate at all: the run has no anchor, nothing applies.
	if applied, _, _ := h.gw.rm.ApplyRun([]*ledger.Block{b1}, nil); len(applied) != 0 {
		t.Fatal("applied a block without any certificate")
	}

	// A certificate signed by nobody in the committee: rejected.
	forged := &ledger.Certificate{Round: 1, Step: 1, Value: b1.Hash()}
	forged.Votes = []ledger.Vote{{Sender: h.ids[0].PublicKey(), Round: 1, Step: 1, Value: b1.Hash()}}
	if applied, _, err := h.gw.rm.ApplyRun(
		[]*ledger.Block{b1}, []*ledger.Certificate{forged}); len(applied) != 0 || err == nil {
		t.Fatal("applied a block under a forged certificate")
	}

	// A valid certificate for a DIFFERENT block must not certify b2.
	cert1 := h.certify(b1, false)
	b2 := h.propose() // same round, no txs, different hash
	if b2.Hash() == b1.Hash() {
		t.Fatal("test blocks collide")
	}
	if applied, _, _ := h.gw.rm.ApplyRun(
		[]*ledger.Block{b2}, []*ledger.Certificate{cert1}); len(applied) != 0 {
		t.Fatal("applied a block under another block's certificate")
	}

	// The genuine pair applies.
	applied, _, err := h.gw.rm.ApplyRun([]*ledger.Block{b1}, []*ledger.Certificate{cert1})
	if err != nil || len(applied) != 1 {
		t.Fatalf("genuine certified block rejected: %v", err)
	}
	if st := h.gw.Stats(); st.CertRejects != 0 {
		// ApplyRun was called directly; the counter moves via applyRun.
		t.Fatalf("unexpected cert rejects %d", st.CertRejects)
	}
}

// lastRequest returns the chain request the gateway sent last.
func (h *testHarness) lastRequest(t *testing.T) *node.ChainRequest {
	t.Helper()
	if len(h.net.unicasts) == 0 {
		t.Fatal("the gateway sent no chain request")
	}
	req, ok := h.net.unicasts[len(h.net.unicasts)-1].m.(*node.ChainRequest)
	if !ok {
		t.Fatalf("last unicast is %T, not a chain request", h.net.unicasts[len(h.net.unicasts)-1].m)
	}
	return req
}

// forgedReply is a reply carrying b under a certificate no committee
// signed.
func (h *testHarness) forgedReply(b *ledger.Block) *node.ChainReply {
	forged := &ledger.Certificate{Round: b.Round, Step: 1, Value: b.Hash(),
		Votes: []ledger.Vote{{Sender: h.ids[1].PublicKey(), Round: b.Round, Step: 1, Value: b.Hash()}}}
	return &node.ChainReply{Blocks: []*ledger.Block{b}, Certs: []*ledger.Certificate{forged}}
}

func TestForgedReplyCountsCertReject(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	b1 := h.propose(*h.tx(t, 0, 1, 0))
	h.gw.askChain()
	h.gw.handleMessage(0, h.forgedReply(b1))
	if round, _ := h.gw.rm.Head(); round != 0 {
		t.Fatalf("forged reply moved the head to %d", round)
	}
	if st := h.gw.Stats(); st.CertRejects != 1 || st.BlocksApplied != 0 {
		t.Fatalf("stats certRejects=%d blocksApplied=%d, want 1/0", st.CertRejects, st.BlocksApplied)
	}
}

func TestGapTriggersChainFillAndCatchUp(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	// Build rounds 1..3 on the shadow ledger (committed there only).
	var blocks []*ledger.Block
	var certs []*ledger.Certificate
	for r := 0; r < 3; r++ {
		b := h.propose()
		c := h.certify(b, false)
		if err := h.l.Commit(b, c); err != nil {
			t.Fatalf("shadow commit: %v", err)
		}
		blocks = append(blocks, b)
		certs = append(certs, c)
	}

	// The gateway, at genesis, asks for everything past it.
	h.gw.askChain()
	if len(h.net.unicasts) != 1 {
		t.Fatalf("want 1 chain request, got %d", len(h.net.unicasts))
	}
	req, ok := h.net.unicasts[0].m.(*node.ChainRequest)
	if !ok || req.FromRound != 1 {
		t.Fatalf("unexpected gap fill %#v", h.net.unicasts[0].m)
	}
	// The reply catches the model up, verifying every certificate.
	h.gw.handleMessage(0, &node.ChainReply{Blocks: blocks, Certs: certs})
	round, head := h.gw.rm.Head()
	if round != 3 || head != blocks[2].Hash() {
		t.Fatalf("head = (%d, %x), want (3, %x)", round, head, blocks[2].Hash())
	}
}

// TestRepliesAppliedOnlyWhenAsked: a gateway's chain replies go through
// its node.Requests table, so it applies a ChainReply from the peer it
// asked, once per request filed to it. Anything else is
// dropped before a certificate is looked at, so no neighbour can make it
// verify what it did not ask for.
func TestRepliesAppliedOnlyWhenAsked(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	b1 := h.propose()
	cert1 := h.certify(b1, false)

	// Unsolicited, forged: neither applied nor verified.
	h.gw.handleMessage(0, h.forgedReply(b1))
	if round, _ := h.gw.rm.Head(); round != 0 {
		t.Fatalf("unsolicited reply moved the head to %d", round)
	}
	if st := h.gw.Stats(); st.CertRejects != 0 {
		t.Fatalf("unsolicited reply cost %d certificate verifications", st.CertRejects)
	}

	h.gw.askChain() // asks neighbour 0
	genuine := func(from int) {
		h.gw.handleMessage(from, &node.ChainReply{Blocks: []*ledger.Block{b1}, Certs: []*ledger.Certificate{cert1}})
	}
	genuine(1) // another peer
	if st := h.gw.Stats(); st.BlocksApplied != 0 || st.CertRejects != 0 {
		t.Fatalf("stray reply: blocksApplied=%d certRejects=%d, want 0/0", st.BlocksApplied, st.CertRejects)
	}
	genuine(0)
	if round, head := h.gw.rm.Head(); round != 1 || head != b1.Hash() {
		t.Fatalf("the reply asked for did not apply: head (%d, %x)", round, head)
	}
	// Answered once: a repeat is not taken again.
	h.gw.handleMessage(0, h.forgedReply(b1))
	if st := h.gw.Stats(); st.BlocksApplied != 1 || st.CertRejects != 0 {
		t.Fatalf("after a repeat: blocksApplied=%d certRejects=%d, want 1/0", st.BlocksApplied, st.CertRejects)
	}
}

// TestBlockQueryReadsTheReplica: a block query answers any applied
// round, however far back, from the read model's own chain.
func TestBlockQueryReadsTheReplica(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	var blocks []*ledger.Block
	for r := 0; r < 70; r++ {
		blocks = append(blocks, h.advance(t))
	}
	for _, want := range []*ledger.Block{blocks[0], blocks[5], blocks[69]} {
		got, ok := h.gw.rm.BlockAt(want.Round)
		if !ok || got.Hash() != want.Hash() {
			t.Fatalf("round %d of 70: block not answered", want.Round)
		}
	}
	if _, ok := h.gw.rm.BlockAt(71); ok {
		t.Fatal("answered a round not applied yet")
	}
	if _, ok := h.gw.rm.BlockAt(0); ok {
		t.Fatal("answered genesis as an applied block")
	}
	reply, ok := h.gw.handleQuery([]byte(`{"op":"block","round":1}`)).(queryReply)
	if !ok || !reply.Ok || reply.Round != 1 || reply.AsOfRound != 70 {
		t.Fatalf("block query for round 1: %+v", reply)
	}
}

func TestUncertifiedPrefixNeedsCertifiedAnchor(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	b1 := h.propose()
	if err := h.l.Commit(b1, nil); err != nil {
		t.Fatalf("shadow commit: %v", err)
	}
	b2 := h.propose()
	cert2 := h.certify(b2, false)
	if err := h.l.Commit(b2, cert2); err != nil {
		t.Fatalf("shadow commit: %v", err)
	}

	// The uncertified block alone is held back…
	if applied, _, _ := h.gw.rm.ApplyRun([]*ledger.Block{b1}, nil); len(applied) != 0 {
		t.Fatal("applied an uncertified block with no anchor")
	}
	if round, _ := h.gw.rm.Head(); round != 0 {
		t.Fatalf("uncertified block moved the head to %d", round)
	}
	// …but commits beneath a later certified anchor (§8.3 transitivity).
	applied, _, err := h.gw.rm.ApplyRun(
		[]*ledger.Block{b1, b2}, []*ledger.Certificate{cert2})
	if err != nil || len(applied) != 2 {
		t.Fatalf("anchored run applied %d blocks, err %v; want 2", len(applied), err)
	}
	if round, head := h.gw.rm.Head(); round != 2 || head != b2.Hash() {
		t.Fatalf("head = (%d, %x), want (2, %x)", round, head, b2.Hash())
	}
}

func TestTypedRejectsCarryRetryHints(t *testing.T) {
	h := newHarness(t, Config{
		Flow: txflow.Config{RateLimit: 1, RateWindow: time.Second},
	}, 4)
	if err := h.gw.Submit(h.tx(t, 0, 1, 0)); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	err := h.gw.Submit(h.tx(t, 0, 1, 1))
	if err == nil {
		t.Fatal("rate limit did not trip")
	}
	if wait, ok := txflow.RetryAfterHint(err); !ok || wait <= 0 {
		t.Fatalf("no retry hint on rate-limit reject: %v", err)
	}
	st := h.gw.Stats()
	if st.Admitted != 1 || st.Rejected != 1 {
		t.Fatalf("stats admitted=%d rejected=%d, want 1/1", st.Admitted, st.Rejected)
	}
}

func TestCommittedClearsPendingAndBlocksResubmission(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	tx := h.tx(t, 0, 1, 0)
	if err := h.gw.Submit(tx); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if status, _, _ := h.gw.rm.TxStatus(tx.ID()); status != StatusPending {
		t.Fatalf("status before commit = %s, want pending", status)
	}
	h.advance(t, *tx)
	if status, r, _ := h.gw.rm.TxStatus(tx.ID()); status != StatusCommitted || r != 1 {
		t.Fatalf("status after commit = %s/%d", status, r)
	}
	if h.gw.flow.Len() != 0 {
		t.Fatalf("mempool still holds %d txs after commit", h.gw.flow.Len())
	}
	// Re-submitting the committed tx is now a stale nonce, not a fresh
	// admission.
	if err := h.gw.Submit(tx); err == nil {
		t.Fatal("re-admitted a committed transaction")
	}
}

func TestHaltedGatewayIgnoresTraffic(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	b1 := h.propose()
	cert1 := h.certify(b1, false)
	h.gw.askChain() // neighbour 0 is asked before the crash
	h.gw.Start()
	h.gw.Halt()
	h.gw.handleMessage(0, &node.ChainReply{Blocks: []*ledger.Block{b1}, Certs: []*ledger.Certificate{cert1}})
	if round, _ := h.gw.rm.Head(); round != 0 {
		t.Fatalf("halted gateway applied a reply: head %d", round)
	}
	h.sim.Run(2 * askInterval)
	if len(h.net.unicasts) != 1 {
		t.Fatal("halted gateway asked for the chain")
	}
	h.gw.Resume()
	h.sim.Run(3 * askInterval)
	if len(h.net.unicasts) != 2 {
		t.Fatalf("resumed gateway sent %d chain requests in an askInterval, want 1", len(h.net.unicasts)-1)
	}
}

// TestPredecessorReplyProvesItself: a chain reply is applied because the
// neighbour it comes from was asked, not because of which request it
// answers. A gateway whose one neighbour is 0 asks it for rounds 1 to 3
// and halts; its
// replacement in the same slot applies round 1 and asks 0 for the rest.
// 0's late reply to the predecessor is taken for it: round 1 is stale and
// skipped, 2 and 3 extend the head under their certificates, and nothing
// fails verification.
func TestPredecessorReplyProvesItself(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	h.net.neighbors = []int{0}
	var blocks []*ledger.Block
	var certs []*ledger.Certificate
	for r := 0; r < 3; r++ {
		b := h.propose()
		c := h.certify(b, false)
		if err := h.l.Commit(b, c); err != nil {
			t.Fatalf("shadow commit: %v", err)
		}
		blocks, certs = append(blocks, b), append(certs, c)
	}
	h.gw.askChain()
	if req := h.lastRequest(t); req.FromRound != 1 {
		t.Fatalf("the predecessor asked from round %d, want 1", req.FromRound)
	}
	h.gw.Halt()

	repl := New(100, h.sim, h.net, h.prov, Config{Committee: testCommittee, LedgerCfg: ledger.DefaultConfig()}, testParams, h.genesis, h.seed0)
	repl.askChain()
	repl.handleMessage(0, &node.ChainReply{Blocks: blocks[:1], Certs: certs[:1]})
	repl.askChain()
	if req := h.lastRequest(t); req.FromRound != 2 {
		t.Fatalf("the replacement asked from round %d, want 2", req.FromRound)
	}
	repl.handleMessage(0, &node.ChainReply{Blocks: blocks, Certs: certs}) // the predecessor's
	if round, head := repl.rm.Head(); round != 3 || head != blocks[2].Hash() {
		t.Fatalf("replacement head (%d, %x), want (3, %x): the predecessor's reply was not taken", round, head, blocks[2].Hash())
	}
	if st := repl.Stats(); st.BlocksApplied != 3 || st.CertRejects != 0 {
		t.Fatalf("blocksApplied=%d certRejects=%d, want 3/0: each round applied once, nothing rejected", st.BlocksApplied, st.CertRejects)
	}
}
