package gateway

import (
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/node"
	"algorand/internal/sortition"
	"algorand/internal/txflow"
	"algorand/internal/vtime"
)

// stubNet records the gateway's outgoing traffic without a network.
type stubNet struct {
	unicasts []stubSend
	gossips  []network.Message
	handler  network.Handler
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
func (s *stubNet) Neighbors(id int) []int               { return nil }

// testCommittee is the harness's certificate-verification
// configuration: a committee large enough that every funded identity
// votes, with thresholds the deterministic fast crypto always clears.
var testCommittee = ledger.CommitteeParams{
	TauStep: 120, StepThreshold: 5, TauFinal: 120, FinalThreshold: 5,
}

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
	if cfg.Consensus == nil {
		cfg.Consensus = []int{0, 1, 2, 3, 4, 5, 6, 7}
	}
	cfg.Committee = testCommittee
	cfg.LedgerCfg = ledger.DefaultConfig()
	seed0 := crypto.HashBytes("gateway.test.seed0")
	net := &stubNet{}
	gw := New(100, sim, net, prov, cfg, genesis, seed0)
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

func TestClusterRoutingIsDeterministicAndStable(t *testing.T) {
	h := newHarness(t, Config{Clusters: 4}, 16)
	for _, id := range h.ids {
		pk := id.PublicKey()
		ci := ClusterOf(pk, 4)
		if ci != ClusterOf(pk, 4) {
			t.Fatal("routing not deterministic")
		}
		if ci < 0 || ci >= 4 {
			t.Fatalf("cluster %d out of range", ci)
		}
	}
	// Every cluster's member set is disjoint and covers Consensus.
	seen := map[int]bool{}
	for ci := 0; ci < 4; ci++ {
		for _, m := range h.gw.clusterMembers(ci) {
			if seen[m] {
				t.Fatalf("consensus node %d serves two clusters", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != len(h.gw.cfg.Consensus) {
		t.Fatalf("cluster members cover %d of %d consensus nodes", len(seen), len(h.gw.cfg.Consensus))
	}
	// One flush that spans every cluster leaves in cluster order, every
	// time: the order of these sends is the order of the simulator's
	// events, so a gateway run repeats only if it does.
	for _, id := range h.ids {
		tx := &ledger.Transaction{From: id.PublicKey(), To: h.ids[0].PublicKey(), Amount: 1, Fee: 1}
		tx.Sign(id)
		if err := h.gw.Submit(tx); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	h.gw.flushOnce()
	prev := -1
	for _, u := range h.net.unicasts {
		ci := ClusterOf(u.m.(*node.TxBatch).Txns[0].From, 4)
		if ci < prev {
			t.Fatalf("cluster %d's batch left after cluster %d's", ci, prev)
		}
		prev = ci
	}
	if prev != 3 {
		t.Fatalf("flush reached clusters up to %d, want all 4", prev)
	}
}

func TestSubmitRoutesToSenderCluster(t *testing.T) {
	h := newHarness(t, Config{Clusters: 4, FanOut: 2}, 8)
	tx := h.tx(t, 0, 1, 0)
	if err := h.gw.Submit(tx); err != nil {
		t.Fatalf("submit: %v", err)
	}
	h.gw.flushOnce()
	if len(h.net.unicasts) != 2 {
		t.Fatalf("want FanOut=2 unicasts, got %d", len(h.net.unicasts))
	}
	wantCluster := ClusterOf(tx.From, 4)
	members := h.gw.clusterMembers(wantCluster)
	memberSet := map[int]bool{}
	for _, m := range members {
		memberSet[m] = true
	}
	for _, u := range h.net.unicasts {
		if !memberSet[u.to] {
			t.Fatalf("batch routed to node %d outside cluster %d members %v", u.to, wantCluster, members)
		}
		batch, ok := u.m.(*node.TxBatch)
		if !ok || len(batch.Txns) != 1 || batch.Txns[0].ID() != tx.ID() {
			t.Fatalf("unexpected routed message %#v", u.m)
		}
	}
}

func TestAnnounceDrivesChainFetchAndCertifiedApply(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	b1 := h.propose(*h.tx(t, 0, 1, 0))
	cert1 := h.certify(b1, false)

	// One announce suffices: the fetched certificates carry the trust.
	h.net.SetHandler(100, network.HandlerFunc(h.gw.handleMessage))
	h.gw.handleMessage(0, &node.CommitAnnounce{Round: 1, Hash: b1.Hash(), Announcer: 0})
	if len(h.net.unicasts) != 1 {
		t.Fatalf("want 1 chain fetch, got %d", len(h.net.unicasts))
	}
	req, ok := h.net.unicasts[0].m.(*node.ChainRequest)
	if !ok || req.FromRound != 1 || h.net.unicasts[0].to != 0 {
		t.Fatalf("unexpected fetch %#v", h.net.unicasts[0])
	}
	// The certified reply applies the block.
	h.gw.handleMessage(0, &node.ChainReply{
		Blocks: []*ledger.Block{b1}, Certs: []*ledger.Certificate{cert1}, Recipient: 100,
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

func TestForgedReplyCountsCertReject(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	b1 := h.propose(*h.tx(t, 0, 1, 0))
	forged := &ledger.Certificate{Round: 1, Step: 1, Value: b1.Hash(),
		Votes: []ledger.Vote{{Sender: h.ids[1].PublicKey(), Round: 1, Step: 1, Value: b1.Hash()}}}
	h.gw.handleMessage(0, &node.ChainReply{
		Blocks: []*ledger.Block{b1}, Certs: []*ledger.Certificate{forged}, Recipient: 100,
	})
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

	// The gateway hears about round 3 only (it was down for 1 and 2).
	h.gw.handleMessage(0, &node.CommitAnnounce{Round: 3, Hash: blocks[2].Hash(), Announcer: 0})
	if len(h.net.unicasts) != 1 {
		t.Fatalf("want 1 chain request, got %d", len(h.net.unicasts))
	}
	req, ok := h.net.unicasts[0].m.(*node.ChainRequest)
	if !ok || req.FromRound != 1 {
		t.Fatalf("unexpected gap fill %#v", h.net.unicasts[0].m)
	}
	// The reply catches the model up, verifying every certificate.
	h.gw.handleMessage(1, &node.ChainReply{Blocks: blocks, Certs: certs, Recipient: 100})
	round, head := h.gw.rm.Head()
	if round != 3 || head != blocks[2].Hash() {
		t.Fatalf("head = (%d, %x), want (3, %x)", round, head, blocks[2].Hash())
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

func TestStaleAnnouncesDoNotFetch(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	b1 := h.advance(t)
	h.gw.handleMessage(0, &node.CommitAnnounce{Round: 1, Hash: b1.Hash(), Announcer: 0})
	if len(h.net.unicasts) != 0 {
		t.Fatalf("stale announce triggered a fetch: %v", h.net.unicasts)
	}
	if st := h.gw.Stats(); st.StaleAnnounces != 1 {
		t.Fatalf("stale announces = %d, want 1", st.StaleAnnounces)
	}
}

func TestHaltedGatewayIgnoresTraffic(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	h.gw.Halt()
	b1 := h.propose()
	h.gw.handleMessage(0, &node.CommitAnnounce{Round: 1, Hash: b1.Hash(), Announcer: 0})
	if len(h.net.unicasts) != 0 {
		t.Fatal("halted gateway fetched a block")
	}
	h.gw.Resume()
	h.gw.handleMessage(0, &node.CommitAnnounce{Round: 1, Hash: b1.Hash(), Announcer: 0})
	if len(h.net.unicasts) != 1 {
		t.Fatal("resumed gateway ignored an announce")
	}
}

// TestIncarnationsNeverRepeatRequestIDs: a gateway restarted within the
// peers' duplicate window is as far behind as its predecessor was, so
// its first chain fill asks for the same rounds under the same network
// id. Only the nonce can tell the two requests apart; numbered from the
// scheduler's epoch, incarnations built at different clock readings
// never emit the same ChainRequest.
func TestIncarnationsNeverRepeatRequestIDs(t *testing.T) {
	h := newHarness(t, Config{}, 4)
	seen := map[crypto.Digest]bool{}
	fill := func(gw *Gateway) {
		gw.handleMessage(0, &node.CommitAnnounce{Round: 3, Announcer: 0})
		req := h.net.unicasts[len(h.net.unicasts)-1].m.(*node.ChainRequest)
		if seen[req.ID()] {
			t.Errorf("chain request %+v repeats an earlier incarnation's id", req)
		}
		seen[req.ID()] = true
	}
	fill(h.gw)
	h.sim.Spawn("restart", func(p *vtime.Proc) {
		p.Sleep(time.Second)
		fill(New(100, h.sim, h.net, h.prov, Config{Consensus: h.gw.cfg.Consensus}, h.genesis, h.seed0))
	})
	h.sim.Run(time.Minute)
	if len(seen) != 2 {
		t.Fatalf("%d chain requests seen, want one per incarnation", len(seen))
	}
}
