package ledger

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/sortition"
	"algorand/internal/wire"
)

// population is a test universe of users with equal weight.
type population struct {
	provider crypto.Provider
	ids      []crypto.Identity
	accounts map[crypto.PublicKey]uint64
	weight   uint64
}

func newPopulation(n int, weightEach uint64) *population {
	p := &population{
		provider: crypto.NewFast(),
		accounts: make(map[crypto.PublicKey]uint64, n),
		weight:   weightEach,
	}
	for i := 0; i < n; i++ {
		id := p.provider.NewIdentity(crypto.SeedFromUint64(uint64(i)))
		p.ids = append(p.ids, id)
		p.accounts[id.PublicKey()] = weightEach
	}
	return p
}

func (p *population) ledger() *Ledger {
	return New(p.provider, DefaultConfig(), p.accounts, crypto.HashBytes("genesis-seed"))
}

// proposeBlock builds a valid block extending l's head, proposed by ids[0].
func (p *population) proposeBlock(l *Ledger, txns []Transaction, ts time.Duration) *Block {
	id := p.ids[0]
	round := l.NextRound()
	out, proof := id.VRFProve(SeedAlpha(l.PrevSeed(), round))
	post := l.Balances().Clone()
	for i := range txns {
		post.ApplyTx(&txns[i])
	}
	return &Block{
		Round:     round,
		PrevHash:  l.HeadHash(),
		Timestamp: ts,
		StateRoot: post.Root(),
		Seed:      SeedFromVRF(out),
		SeedProof: proof,
		Proposer:  id.PublicKey(),
		Txns:      txns,
	}
}

// makeCert builds a valid certificate for value at (round, step) by
// running sortition across the whole population.
func (p *population) makeCert(l *Ledger, round, step uint64, value crypto.Digest, tau uint64, final bool) *Certificate {
	seed := l.SortitionSeed(round)
	weights, total := l.SortitionWeights(round)
	role := sortition.Role{Kind: sortition.RoleCommittee, Round: round, Step: step}
	cert := &Certificate{Round: round, Step: step, Value: value, Final: final}
	for _, id := range p.ids {
		res := sortition.Execute(id, seed[:], role, tau, weights[id.PublicKey()], total)
		if res.J == 0 {
			continue
		}
		v := Vote{
			Sender:    id.PublicKey(),
			Round:     round,
			Step:      step,
			SortHash:  res.Output,
			SortProof: res.Proof,
			PrevHash:  l.HeadHash(),
			Value:     value,
		}
		v.Sign(id)
		cert.Votes = append(cert.Votes, v)
	}
	return cert
}

func TestTransactionSignVerify(t *testing.T) {
	p := newPopulation(2, 100)
	tx := Transaction{From: p.ids[0].PublicKey(), To: p.ids[1].PublicKey(), Amount: 5}
	tx.Sign(p.ids[0])
	if !tx.VerifySig(p.provider) {
		t.Fatal("valid tx signature rejected")
	}
	tx.Amount = 6
	if tx.VerifySig(p.provider) {
		t.Fatal("tampered tx accepted")
	}
}

func TestBalancesApply(t *testing.T) {
	p := newPopulation(2, 100)
	b := NewBalances(p.accounts)
	a, bpk := p.ids[0].PublicKey(), p.ids[1].PublicKey()

	tx := &Transaction{From: a, To: bpk, Amount: 30, Nonce: 0}
	if err := b.ApplyTx(tx); err != nil {
		t.Fatal(err)
	}
	if b.MoneyOf(a) != 70 || b.MoneyOf(bpk) != 130 {
		t.Fatalf("balances %d/%d", b.MoneyOf(a), b.MoneyOf(bpk))
	}
	if b.Total != 200 {
		t.Fatalf("total changed: %d", b.Total)
	}
	// Replay (same nonce) rejected.
	if err := b.ApplyTx(tx); err == nil {
		t.Fatal("replay accepted")
	}
	// Overdraft rejected.
	if err := b.ApplyTx(&Transaction{From: a, To: bpk, Amount: 1000, Nonce: 1}); err == nil {
		t.Fatal("overdraft accepted")
	}
	// Zero amount rejected.
	if err := b.ApplyTx(&Transaction{From: a, To: bpk, Amount: 0, Nonce: 1}); err == nil {
		t.Fatal("zero amount accepted")
	}
}

func TestBalancesCloneIndependent(t *testing.T) {
	p := newPopulation(2, 100)
	b := NewBalances(p.accounts)
	c := b.Clone()
	from, to := p.ids[0].PublicKey(), p.ids[1].PublicKey()
	if err := c.ApplyTx(&Transaction{From: from, To: to, Amount: 99}); err != nil {
		t.Fatal(err)
	}
	if c.MoneyOf(from) != 1 || b.MoneyOf(from) != 100 || b.MoneyOf(to) != 100 {
		t.Fatal("clone aliases original")
	}
}

func TestBlockHashDeterministic(t *testing.T) {
	p := newPopulation(2, 100)
	l := p.ledger()
	b1 := p.proposeBlock(l, nil, time.Second)
	b2 := p.proposeBlock(l, nil, time.Second)
	if b1.Hash() != b2.Hash() {
		t.Fatal("identical blocks hash differently")
	}
	b3 := p.proposeBlock(l, nil, 2*time.Second)
	if b1.Hash() == b3.Hash() {
		t.Fatal("different blocks hash equal")
	}
}

// poolKeeps reports whether sync.Pool hands back what it was given. The
// race detector makes it drop a quarter of all Puts on purpose, and a
// borrowed buffer is then allocated afresh that often: an allocation
// budget over borrowed buffers holds only where this does.
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

// TestAllocBudgetBlockHash guards the borrowed preimage: a block with a
// round's worth of payments (1 100 of them, 160 KB of preimage) hashes
// without allocating once the buffer exists, and a mutated block hashes
// differently — there is no memo on a Block to go stale.
func TestAllocBudgetBlockHash(t *testing.T) {
	p := newPopulation(2, 1<<40)
	b := &Block{Round: 1, Proposer: p.ids[0].PublicKey(), PayloadPadding: 1 << 20}
	for i := 0; i < 1100; i++ {
		tx := Transaction{From: p.ids[0].PublicKey(), To: p.ids[1].PublicKey(), Amount: 1, Nonce: uint64(i)}
		tx.Sign(p.ids[0])
		b.Txns = append(b.Txns, tx)
	}
	before := b.Hash() // warm-up: the buffer grows to the preimage once
	b.Txns[1099].Amount++
	if b.Hash() == before {
		t.Fatal("a block edited after it was hashed still has the old hash")
	}
	if !poolKeeps() {
		t.Skip("sync.Pool drops Puts here (race detector): every dropped buffer is allocated again")
	}
	var sinkHash crypto.Digest
	if n := testing.AllocsPerRun(100, func() { sinkHash = b.Hash() }); n != 0 {
		t.Errorf("Block.Hash allocates %v times per call after warm-up, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkHash = RecoverySeed(b, 3, 1) }); n != 0 {
		t.Errorf("RecoverySeed allocates %v times per call, want 0", n)
	}
	_ = sinkHash
}

func TestEmptyBlockCanonical(t *testing.T) {
	p := newPopulation(1, 100)
	l := p.ledger()
	e1 := l.NextEmptyBlock()
	e2 := l.NextEmptyBlock()
	if e1.Hash() != e2.Hash() {
		t.Fatal("empty block not canonical")
	}
	if !e1.IsEmpty() {
		t.Fatal("empty block not recognized")
	}
	if err := l.ValidateBlock(e1, time.Minute); err != nil {
		t.Fatalf("canonical empty block rejected: %v", err)
	}
}

func TestValidateBlockChecks(t *testing.T) {
	p := newPopulation(3, 100)
	l := p.ledger()
	now := 10 * time.Second

	good := p.proposeBlock(l, nil, time.Second)
	if err := l.ValidateBlock(good, now); err != nil {
		t.Fatalf("good block rejected: %v", err)
	}

	wrongRound := *good
	wrongRound.Round = 5
	if err := l.ValidateBlock(&wrongRound, now); err == nil {
		t.Fatal("wrong round accepted")
	}

	wrongPrev := *good
	wrongPrev.PrevHash = crypto.Digest{1}
	if err := l.ValidateBlock(&wrongPrev, now); err == nil {
		t.Fatal("wrong prev accepted")
	}

	badSeed := *good
	badSeed.Seed = crypto.Digest{9}
	if err := l.ValidateBlock(&badSeed, now); err == nil {
		t.Fatal("bad seed accepted")
	}

	future := p.proposeBlock(l, nil, now+2*time.Hour)
	if err := l.ValidateBlock(future, now); err == nil {
		t.Fatal("far-future timestamp accepted")
	}

	// Block with invalid transaction.
	badTx := Transaction{From: p.ids[1].PublicKey(), To: p.ids[2].PublicKey(), Amount: 10000, Nonce: 0}
	badTx.Sign(p.ids[1])
	overdraft := p.proposeBlock(l, []Transaction{badTx}, time.Second)
	if err := l.ValidateBlock(overdraft, now); err == nil {
		t.Fatal("overdraft block accepted")
	}

	unsigned := Transaction{From: p.ids[1].PublicKey(), To: p.ids[2].PublicKey(), Amount: 1, Nonce: 0}
	forged := p.proposeBlock(l, []Transaction{unsigned}, time.Second)
	if err := l.ValidateBlock(forged, now); err == nil || !strings.Contains(err.Error(), "signature") {
		t.Fatalf("unsigned tx block: %v", err)
	}
}

func TestCommitChainAndState(t *testing.T) {
	p := newPopulation(3, 100)
	l := p.ledger()

	tx := Transaction{From: p.ids[0].PublicKey(), To: p.ids[1].PublicKey(), Amount: 25, Nonce: 0}
	tx.Sign(p.ids[0])
	b1 := p.proposeBlock(l, []Transaction{tx}, time.Second)
	if err := l.Commit(b1, nil); err != nil {
		t.Fatal(err)
	}
	if l.Head().Round != 1 || l.NextRound() != 2 {
		t.Fatalf("head round %d", l.Head().Round)
	}
	if got := l.Balances().MoneyOf(p.ids[1].PublicKey()); got != 125 {
		t.Fatalf("recipient balance %d", got)
	}

	b2 := p.proposeBlock(l, nil, 2*time.Second)
	if err := l.Commit(b2, nil); err != nil {
		t.Fatal(err)
	}
	if blk, ok := l.BlockAt(1); !ok || blk.Hash() != b1.Hash() {
		t.Fatal("BlockAt(1) wrong")
	}
	if err := l.Commit(b2, nil); err != nil {
		t.Fatalf("duplicate commit should be idempotent: %v", err)
	}
	// Unknown parent rejected.
	orphan := &Block{Round: 7, PrevHash: crypto.Digest{42}}
	if err := l.Commit(orphan, nil); err == nil {
		t.Fatal("orphan commit accepted")
	}
}

func TestSeedRotation(t *testing.T) {
	p := newPopulation(1, 100)
	cfg := DefaultConfig()
	cfg.SeedRefreshInterval = 3
	l := New(p.provider, cfg, p.accounts, crypto.HashBytes("g"))

	// Build 8 rounds of empty blocks.
	for r := 0; r < 8; r++ {
		if err := l.Commit(l.NextEmptyBlock(), nil); err != nil {
			t.Fatal(err)
		}
	}
	// seedRound(r) = r-1-(r mod 3).
	cases := map[uint64]uint64{1: 0, 2: 0, 3: 2, 4: 2, 5: 2, 6: 5, 7: 5, 8: 5}
	for r, want := range cases {
		if got := l.seedRound(r); got != want {
			t.Fatalf("seedRound(%d) = %d, want %d", r, got, want)
		}
	}
	// Seed must equal that block's recorded seed.
	b5, _ := l.BlockAt(5)
	if l.SortitionSeed(7) != b5.Seed {
		t.Fatal("SortitionSeed(7) != seed of block 5")
	}
}

func TestSortitionWeightsLookback(t *testing.T) {
	p := newPopulation(2, 100)
	cfg := DefaultConfig()
	cfg.SeedRefreshInterval = 1 // seedRound(r) = r-1-(r mod 1) = r-1... (r mod 1)=0 so r-1
	cfg.LookbackRounds = 2
	l := New(p.provider, cfg, p.accounts, crypto.HashBytes("g"))

	// Move all money in round 1.
	tx := Transaction{From: p.ids[0].PublicKey(), To: p.ids[1].PublicKey(), Amount: 100, Nonce: 0}
	tx.Sign(p.ids[0])
	b1 := p.proposeBlock(l, []Transaction{tx}, time.Second)
	if err := l.Commit(b1, nil); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if err := l.Commit(l.NextEmptyBlock(), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Round 5: seedRound = 4, lookback 2 → weights at round 2: post-transfer.
	w, total := l.SortitionWeights(5)
	if total != 200 {
		t.Fatalf("total %d", total)
	}
	if w[p.ids[0].PublicKey()] != 0 || w[p.ids[1].PublicKey()] != 200 {
		t.Fatalf("weights %v", w)
	}
	// Round 3: seedRound = 2, lookback 2 → round 0 (genesis): pre-transfer.
	w, _ = l.SortitionWeights(3)
	if w[p.ids[0].PublicKey()] != 100 {
		t.Fatalf("lookback weights %v", w)
	}
}

func TestForkTrackingAndSwitch(t *testing.T) {
	p := newPopulation(2, 100)
	l := p.ledger()

	b1 := p.proposeBlock(l, nil, time.Second)
	if err := l.Commit(b1, nil); err != nil {
		t.Fatal(err)
	}
	// A competing block at round 1 (fork off genesis): the canonical
	// empty block.
	genesisBlock, _ := l.BlockAt(0)
	fork := EmptyBlock(1, l.GenesisHash(), crypto.HashBytes("genesis-seed"), genesisBlock.StateRoot)
	if err := l.Commit(fork, nil); err != nil {
		t.Fatal(err)
	}
	// Extend the canonical chain so it is longer.
	b2 := p.proposeBlock(l, nil, 2*time.Second)
	if err := l.Commit(b2, nil); err != nil {
		t.Fatal(err)
	}

	tips := l.ForkTips()
	if len(tips) != 2 {
		t.Fatalf("tips = %d, want 2", len(tips))
	}
	if tips[0].Hash != b2.Hash() {
		t.Fatal("longest fork should come first")
	}

	// Switch to the fork and back.
	if err := l.SwitchHead(fork.Hash()); err != nil {
		t.Fatal(err)
	}
	if l.Head().Hash() != fork.Hash() || l.NextRound() != 2 {
		t.Fatal("switch failed")
	}
	if err := l.SwitchHead(crypto.Digest{99}); err == nil {
		t.Fatal("switch to unknown block accepted")
	}
}

func TestFinality(t *testing.T) {
	p := newPopulation(40, 10)
	l := p.ledger()

	b1 := p.proposeBlock(l, nil, time.Second)
	cert1 := p.makeCert(l, 1, 1, b1.Hash(), 200, false)
	if err := l.Commit(b1, cert1); err != nil {
		t.Fatal(err)
	}
	if l.IsFinal(b1.Hash()) {
		t.Fatal("tentative block reported final")
	}

	b2 := p.proposeBlock(l, nil, 2*time.Second)
	cert2 := p.makeCert(l, 2, 1, b2.Hash(), 200, true)
	if err := l.Commit(b2, cert2); err != nil {
		t.Fatal(err)
	}
	// Final block and its predecessors are confirmed.
	if !l.IsFinal(b2.Hash()) || !l.IsFinal(b1.Hash()) {
		t.Fatal("finality not propagated to predecessors")
	}
	if l.LastFinal().Hash() != b2.Hash() {
		t.Fatal("lastFinal wrong")
	}
}

func TestCertificateVerify(t *testing.T) {
	p := newPopulation(50, 10)
	l := p.ledger()
	b1 := p.proposeBlock(l, nil, time.Second)
	const tau = 100
	cert := p.makeCert(l, 1, 1, b1.Hash(), tau, false)
	if len(cert.Votes) == 0 {
		t.Fatal("no committee members selected; raise tau")
	}

	seed := l.SortitionSeed(1)
	weights, total := l.SortitionWeights(1)

	// Count the honest vote weight to pick a satisfiable threshold.
	check := func(c *Certificate, threshold uint64) error {
		return c.Verify(p.provider, seed, weights, total, tau, threshold, l.HeadHash())
	}
	if err := check(cert, 1); err != nil {
		t.Fatalf("valid certificate rejected: %v", err)
	}
	// Threshold too high.
	if err := check(cert, 1<<40); err == nil {
		t.Fatal("insufficient votes accepted")
	}
	// Wrong value in one vote.
	bad := *cert
	bad.Votes = append([]Vote(nil), cert.Votes...)
	bad.Votes[0].Value = crypto.Digest{1}
	if err := check(&bad, 1); err == nil {
		t.Fatal("mismatched vote value accepted")
	}
	// Duplicate voter.
	dup := *cert
	dup.Votes = append(append([]Vote(nil), cert.Votes...), cert.Votes[0])
	if err := check(&dup, 1); err == nil {
		t.Fatal("duplicate voter accepted")
	}
	// Tampered signature.
	forged := *cert
	forged.Votes = append([]Vote(nil), cert.Votes...)
	forged.Votes[0].Sig = append([]byte(nil), forged.Votes[0].Sig...)
	forged.Votes[0].Sig[0] ^= 1
	if err := check(&forged, 1); err == nil {
		t.Fatal("forged signature accepted")
	}
	// Wrong previous hash.
	if err := cert.Verify(p.provider, seed, weights, total, tau, 1, crypto.Digest{7}); err == nil {
		t.Fatal("wrong prev hash accepted")
	}
	// Wrong seed: sortition proofs must fail.
	if err := cert.Verify(p.provider, crypto.Digest{1}, weights, total, tau, 1, l.HeadHash()); err == nil {
		t.Fatal("wrong seed accepted")
	}
	// Empty certificate.
	empty := &Certificate{Round: 1, Step: 1, Value: b1.Hash()}
	if err := check(empty, 0); err == nil {
		t.Fatal("empty certificate accepted")
	}
}

func TestCertificateWireSizeMatchesPaper(t *testing.T) {
	// §10.3: each block certificate is ~300 KBytes with the paper's
	// committee parameters (threshold ⌊0.685·2000⌋ = 1370 votes needed).
	votes := make([]Vote, 1371)
	for i := range votes {
		votes[i].SortProof = make([]byte, 80)
		votes[i].Sig = make([]byte, 64)
	}
	c := &Certificate{Votes: votes}
	size := c.WireSize()
	if size != CertWireSize(len(votes)) {
		t.Fatalf("WireSize %d != CertWireSize %d", size, CertWireSize(len(votes)))
	}
	if size < 250<<10 || size > 450<<10 {
		t.Fatalf("certificate size %d bytes; paper reports ~300 KB", size)
	}
}

func TestStoreSharding(t *testing.T) {
	p := newPopulation(1, 100)
	l := p.ledger()
	stores := []*Store{NewStore(0, 3), NewStore(1, 3), NewStore(2, 3)}
	full := NewStore(0, 1)

	var blocks []*Block
	for r := 0; r < 9; r++ {
		b := l.NextEmptyBlock()
		if err := l.Commit(b, nil); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		for _, s := range stores {
			s.Put(b, nil)
		}
		full.Put(b, nil)
	}
	for _, s := range stores {
		if s.Rounds() != 3 {
			t.Fatalf("shard stored %d rounds, want 3", s.Rounds())
		}
	}
	if full.Rounds() != 9 {
		t.Fatalf("full store has %d rounds", full.Rounds())
	}
	// Sharding divides storage ~proportionally.
	if stores[0].Bytes*2 > full.Bytes {
		t.Fatalf("shard bytes %d vs full %d", stores[0].Bytes, full.Bytes)
	}
	// Round lookup respects responsibility: round 1 belongs to shard 1.
	if _, ok := stores[1].Block(blocks[0].Round); !ok {
		t.Fatal("shard 1 should hold round 1")
	}
	if _, ok := stores[0].Block(blocks[0].Round); ok {
		t.Fatal("shard 0 should not hold round 1")
	}
}

func TestCatchUpValidatesChain(t *testing.T) {
	p := newPopulation(60, 10)
	l := p.ledger()
	const tau = 120
	cp := CommitteeParams{TauStep: tau, StepThreshold: 5, TauFinal: tau, FinalThreshold: 5}

	var blocks []*Block
	var certs []*Certificate
	for r := uint64(1); r <= 4; r++ {
		b := p.proposeBlock(l, nil, time.Duration(r)*time.Minute)
		cert := p.makeCert(l, r, 1, b.Hash(), tau, false)
		if r == 4 {
			cert = p.makeCert(l, r, StepFinal, b.Hash(), tau, true)
		}
		if err := l.Commit(b, cert); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		certs = append(certs, cert)
	}

	nl, err := CatchUp(p.provider, DefaultConfig(), p.accounts, crypto.HashBytes("genesis-seed"), blocks, certs, cp)
	if err != nil {
		t.Fatalf("catch-up failed: %v", err)
	}
	if nl.Head().Hash() != l.Head().Hash() {
		t.Fatal("catch-up reached different head")
	}
	if !nl.IsFinal(blocks[3].Hash()) {
		t.Fatal("final certificate not honored")
	}

	// Tampered block must fail.
	tampered := *blocks[1]
	tampered.Timestamp++
	badBlocks := append([]*Block(nil), blocks...)
	badBlocks[1] = &tampered
	if _, err := CatchUp(p.provider, DefaultConfig(), p.accounts, crypto.HashBytes("genesis-seed"), badBlocks, certs, cp); err == nil {
		t.Fatal("tampered chain accepted")
	}

	// Certificate/block mismatch must fail.
	badCerts := append([]*Certificate(nil), certs...)
	badCerts[2] = certs[1]
	if _, err := CatchUp(p.provider, DefaultConfig(), p.accounts, crypto.HashBytes("genesis-seed"), blocks, badCerts, cp); err == nil {
		t.Fatal("mismatched certificate accepted")
	}
}

func TestBlockWireSize(t *testing.T) {
	b := &Block{PayloadPadding: 1 << 20}
	if b.WireSize() < 1<<20 {
		t.Fatal("padding not counted")
	}
	if got := len(wire.Encode(b)); got != b.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", got, b.WireSize())
	}
	tx := Transaction{Sig: make([]byte, 64)}
	b2 := &Block{Txns: []Transaction{tx, tx}}
	if b2.WireSize() != blockFixedSize+2*TxWireSize {
		t.Fatalf("wire size %d", b2.WireSize())
	}
	if got := len(wire.Encode(b2)); got != b2.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", got, b2.WireSize())
	}
}

func TestMinOfCurrentAndLookbackWeights(t *testing.T) {
	p := newPopulation(2, 100)
	cfg := DefaultConfig()
	cfg.SeedRefreshInterval = 1
	cfg.LookbackRounds = 3
	cfg.MinOfCurrentAndLookback = true
	l := New(p.provider, cfg, p.accounts, crypto.HashBytes("g"))

	// Rounds 1-3: empty. Round 4: user 0 spends 80 of its 100.
	for r := 0; r < 3; r++ {
		if err := l.Commit(l.NextEmptyBlock(), nil); err != nil {
			t.Fatal(err)
		}
	}
	tx := Transaction{From: p.ids[0].PublicKey(), To: p.ids[1].PublicKey(), Amount: 80, Nonce: 0}
	tx.Sign(p.ids[0])
	b4 := p.proposeBlock(l, []Transaction{tx}, time.Second)
	if err := l.Commit(b4, nil); err != nil {
		t.Fatal(err)
	}

	// Round 5: seedRound=4, lookback 3 → snapshot at round 1 (100/100),
	// but the "nothing at stake" rule caps user 0 at its CURRENT 20.
	w, total := l.SortitionWeights(5)
	if w[p.ids[0].PublicKey()] != 20 {
		t.Fatalf("spender's weight %d, want min(100,20)=20", w[p.ids[0].PublicKey()])
	}
	if w[p.ids[1].PublicKey()] != 100 {
		t.Fatalf("receiver's weight %d, want min(100,180)=100", w[p.ids[1].PublicKey()])
	}
	if total != 120 {
		t.Fatalf("total %d, want 120", total)
	}

	// Without the option, the stale lookback balance would be used.
	cfg.MinOfCurrentAndLookback = false
	l2 := New(p.provider, cfg, p.accounts, crypto.HashBytes("g"))
	for r := 0; r < 3; r++ {
		if err := l2.Commit(l2.NextEmptyBlock(), nil); err != nil {
			t.Fatal(err)
		}
	}
	b4b := p.proposeBlock(l2, []Transaction{tx}, time.Second)
	if err := l2.Commit(b4b, nil); err != nil {
		t.Fatal(err)
	}
	w2, _ := l2.SortitionWeights(5)
	if w2[p.ids[0].PublicKey()] != 100 {
		t.Fatalf("plain lookback weight %d, want 100", w2[p.ids[0].PublicKey()])
	}
}

func TestCatchUpRejectsAbsurdCertificateStep(t *testing.T) {
	p := newPopulation(60, 10)
	l := p.ledger()
	const tau = 120

	b := p.proposeBlock(l, nil, time.Minute)
	// A certificate claiming consensus at an absurdly high step: even if
	// the votes verify, the §8.3 step bound must reject it.
	cert := p.makeCert(l, 1, 9999, b.Hash(), tau, false)
	cp := CommitteeParams{TauStep: tau, StepThreshold: 5, TauFinal: tau, FinalThreshold: 5, MaxStep: 200}
	_, err := CatchUp(p.provider, DefaultConfig(), p.accounts, crypto.HashBytes("genesis-seed"),
		[]*Block{b}, []*Certificate{cert}, cp)
	if err == nil {
		t.Fatal("absurd-step certificate accepted")
	}
	// The same certificate at a sane step passes.
	sane := p.makeCert(l, 1, 5, b.Hash(), tau, false)
	if _, err := CatchUp(p.provider, DefaultConfig(), p.accounts, crypto.HashBytes("genesis-seed"),
		[]*Block{b}, []*Certificate{sane}, cp); err != nil {
		t.Fatalf("sane certificate rejected: %v", err)
	}
	// Final is no way around the bound: a final certificate whose votes
	// verify for the final-sized committee of step 9999 is still not from
	// the final step.
	grind := p.makeCert(l, 1, 9999, b.Hash(), tau, true)
	if _, err := CatchUp(p.provider, DefaultConfig(), p.accounts, crypto.HashBytes("genesis-seed"),
		[]*Block{b}, []*Certificate{grind}, cp); err == nil {
		t.Fatal("final certificate at step 9999 accepted")
	}
	final := p.makeCert(l, 1, StepFinal, b.Hash(), tau, true)
	if _, err := CatchUp(p.provider, DefaultConfig(), p.accounts, crypto.HashBytes("genesis-seed"),
		[]*Block{b}, []*Certificate{final}, cp); err != nil {
		t.Fatalf("final certificate at the final step rejected: %v", err)
	}
}

// Property: applying any sequence of (possibly invalid) transactions
// never changes the money supply, never creates negative balances, and
// rejected transactions leave state untouched.
func TestApplyTxConservationQuick(t *testing.T) {
	p := newPopulation(4, 50)
	f := func(ops [12]struct {
		From, To uint8
		Amount   uint16
	}) bool {
		b := NewBalances(p.accounts)
		nonces := map[crypto.PublicKey]uint64{}
		for _, op := range ops {
			from := p.ids[int(op.From)%len(p.ids)]
			to := p.ids[int(op.To)%len(p.ids)]
			tx := &Transaction{
				From:   from.PublicKey(),
				To:     to.PublicKey(),
				Amount: uint64(op.Amount % 80),
				Nonce:  nonces[from.PublicKey()],
			}
			before := b.MoneyOf(tx.From) + b.MoneyOf(tx.To)
			err := b.ApplyTx(tx)
			if err == nil {
				nonces[tx.From]++
			} else if tx.From != tx.To && b.MoneyOf(tx.From)+b.MoneyOf(tx.To) != before {
				return false // failed tx mutated state
			}
		}
		var sum uint64
		b.Accounts(func(a AccountRecord) bool {
			sum += a.Money
			return true
		})
		return sum == b.Total && b.Total == 200
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: block hashing is injective over the fields we vary.
func TestBlockHashInjectiveQuick(t *testing.T) {
	seen := map[crypto.Digest]string{}
	f := func(round uint16, ts uint32, pad uint16) bool {
		b := &Block{Round: uint64(round), Timestamp: time.Duration(ts), PayloadPadding: int(pad)}
		key := fmt.Sprintf("%d|%d|%d", round, ts, pad)
		h := b.Hash()
		if prev, ok := seen[h]; ok {
			return prev == key
		}
		seen[h] = key
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
