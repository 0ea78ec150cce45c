package ledger

import (
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/sortition"
)

// recoveryCert builds a valid §8.2 recovery certificate for value: the
// committee of recovery attempt (checkpoint, attempt), drawn from the
// stake as of base, voting with base as its anchor.
func (p *population) recoveryCert(l *Ledger, base *Block, checkpoint, attempt uint64, value crypto.Digest, tau uint64) *Certificate {
	round := RecoveryRoundBase + checkpoint*1024 + attempt
	seed := RecoverySeed(base, checkpoint, attempt)
	bal, _ := l.BalancesAt(base.Hash())
	role := sortition.Role{Kind: sortition.RoleCommittee, Round: round, Step: 3}
	cert := &Certificate{Round: round, Step: 3, Value: value}
	for _, id := range p.ids {
		res := sortition.Execute(id, seed[:], role, tau, bal.MoneyOf(id.PublicKey()), bal.Total)
		if res.J == 0 {
			continue
		}
		v := Vote{Sender: id.PublicKey(), Round: round, Step: 3, SortHash: res.Output,
			SortProof: res.Proof, PrevHash: base.Hash(), Value: value}
		v.Sign(id)
		cert.Votes = append(cert.Votes, v)
	}
	return cert
}

// TestApplyRunHostile drives the one §8.3 implementation with the runs
// a hostile or sloppy supplier can send. The network's chain is
//
//	1c 2c 3 4 5c 6        (c = certified; 3, 4 and 6 have no certificate)
//
// with a competing block 2' at round 2 and a recovery-adopted empty
// block r5 on top of 4; every case starts from a ledger holding 1c 2c.
func TestApplyRunHostile(t *testing.T) {
	p := newPopulation(60, 10)
	const tau = 120
	cp := CommitteeParams{TauStep: tau, StepThreshold: 5, TauFinal: tau, FinalThreshold: 5, MaxStep: 200}

	src := p.ledger()
	var blocks []*Block
	certs := map[uint64]*Certificate{}
	var fork2 *Block
	for r := uint64(1); r <= 6; r++ {
		if r == 2 {
			fork2 = p.proposeBlock(src, nil, 90*time.Second)
		}
		b := p.proposeBlock(src, nil, time.Duration(r)*time.Minute)
		if r <= 2 || r == 5 {
			certs[r] = p.makeCert(src, r, 1, b.Hash(), tau, false)
		}
		if err := src.Commit(b, certs[r]); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	if err := src.Commit(fork2, nil); err != nil {
		t.Fatal(err)
	}
	b := func(r int) *Block { return blocks[r-1] }
	r5 := EmptyBlock(5, b(4).Hash(), b(4).Seed, b(4).StateRoot)
	r5onChain := p.recoveryCert(src, b(2), 7, 1, r5.Hash(), tau)
	r5offChain := p.recoveryCert(src, fork2, 7, 1, r5.Hash(), tau)
	tampered4 := *b(4)
	tampered4.PayloadPadding++
	wrongRound := p.makeCert(src, 5, 1, b(5).Hash(), tau, false)
	wrongRound.Round = 4
	forged := &Certificate{Round: 5, Step: 1, Value: b(5).Hash(),
		Votes: []Vote{{Sender: p.ids[0].PublicKey(), Round: 5, Step: 1, Value: b(5).Hash(), PrevHash: b(4).Hash()}}}

	cases := []struct {
		name    string
		blocks  []*Block
		certs   []*Certificate
		applied int // blocks that join the chain
		wantErr bool
	}{
		{"uncertified prefix beneath a certified anchor", []*Block{b(3), b(4), b(5)}, []*Certificate{certs[5]}, 3, false},
		{"trailing uncertified blocks are not applied", []*Block{b(3), b(4), b(5), b(6)}, []*Certificate{certs[5]}, 3, false},
		{"no anchor at all", []*Block{b(3), b(4)}, nil, 0, false},
		{"stale, ahead and nil entries are ignored", []*Block{b(1), b(2), nil, b(4), b(6)}, []*Certificate{certs[1], certs[2]}, 0, false},
		{"broken hash chain inside the prefix", []*Block{b(3), &tampered4, b(5)}, []*Certificate{certs[5]}, 0, true},
		{"anchor certificate fails", []*Block{b(3), b(4), b(5)}, []*Certificate{forged}, 0, true},
		{"certificate for a different block certifies nothing", []*Block{b(3)}, []*Certificate{certs[5]}, 0, false},
		{"another round's votes under a relabelled certificate", []*Block{b(3)}, []*Certificate{{Round: 3, Step: 1, Value: b(3).Hash(), Votes: certs[2].Votes}}, 0, true},
		{"certificate of another round", []*Block{b(3), b(4), b(5)}, []*Certificate{wrongRound}, 0, true},
		{"recovery anchor with its base on our chain", []*Block{b(3), b(4), r5}, []*Certificate{r5onChain}, 3, false},
		{"recovery anchor whose base is not on our chain", []*Block{b(3), b(4), r5}, []*Certificate{r5offChain}, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := CatchUp(p.provider, DefaultConfig(), p.accounts, crypto.HashBytes("genesis-seed"),
				blocks[:2], []*Certificate{certs[1], certs[2]}, cp)
			if err != nil {
				t.Fatal(err)
			}
			// The competing block is known, as a side branch.
			if err := l.Commit(fork2, nil); err != nil {
				t.Fatal(err)
			}
			old := l.HeadHash()
			if err := l.ApplyCertified(b(3), certs[5], cp); err == nil {
				t.Fatal("block applied on another block's certificate")
			}
			applied, err := l.ApplyRun(tc.blocks, tc.certs, cp)
			if (err != nil) != tc.wantErr {
				t.Fatalf("error = %v, want error %v", err, tc.wantErr)
			}
			if len(applied) != tc.applied || l.ChainLength() != 2+uint64(tc.applied) {
				t.Fatalf("applied %d blocks, head at round %d; want %d applied", len(applied), l.ChainLength(), tc.applied)
			}
			if tc.applied > 0 {
				return
			}
			// Nothing applied: the head is where it was, nothing above it is
			// reachable from it, and whatever the failed run left behind does
			// not stand in the way of the genuine one.
			if _, ok := l.BlockAt(3); ok || l.HeadHash() != old {
				t.Fatal("a rejected run moved the head")
			}
			if applied, err := l.ApplyRun([]*Block{b(3), b(4), b(5)}, []*Certificate{certs[5]}, cp); err != nil || len(applied) != 3 {
				t.Fatalf("genuine run after a rejected one: applied %d, err %v", len(applied), err)
			}
			if l.HeadHash() != b(5).Hash() {
				t.Fatal("genuine run did not reach its anchor")
			}
		})
	}
}

// TestRebasedLedgerFollowsGenesisRecovery: a ledger re-based onto a
// checkpoint holds no block between genesis and its anchor, and its peers,
// with no final round yet, base their §8.2 recovery on genesis. Genesis is
// on every chain, so that certificate verifies; one based on a block the
// ledger does not hold still does not.
func TestRebasedLedgerFollowsGenesisRecovery(t *testing.T) {
	p := newPopulation(60, 10)
	const tau = 120
	cp := CommitteeParams{TauStep: tau, StepThreshold: 5, TauFinal: tau, FinalThreshold: 5, MaxStep: 200}
	src := p.ledger()
	for r := uint64(1); r <= 3; r++ {
		b := p.proposeBlock(src, nil, time.Duration(r)*time.Minute)
		if err := src.Commit(b, p.makeCert(src, r, 1, b.Hash(), tau, false)); err != nil {
			t.Fatal(err)
		}
	}
	anchor := src.Head()
	cert, _ := src.CertificateAt(anchor.Round)
	l, err := NewFromCheckpoint(p.provider, DefaultConfig(), NewGenesis(p.accounts, crypto.HashBytes("genesis-seed")),
		CheckpointOf(anchor, cert, src.Balances()))
	if err != nil {
		t.Fatal(err)
	}
	genesis, _ := src.BlockAt(0)
	unheld, _ := src.BlockAt(2)
	adopted := EmptyBlock(4, anchor.Hash(), anchor.Seed, anchor.StateRoot)
	if err := l.ApplyCertified(adopted, p.recoveryCert(src, unheld, 7, 1, adopted.Hash(), tau), cp); err == nil {
		t.Fatal("a recovery certificate based on a block the ledger does not hold was accepted")
	}
	if err := l.ApplyCertified(adopted, p.recoveryCert(src, genesis, 7, 1, adopted.Hash(), tau), cp); err != nil {
		t.Fatalf("a recovery certificate based on genesis was refused: %v", err)
	}
	if l.HeadHash() != adopted.Hash() {
		t.Fatal("the adopted block is not the head")
	}
}
