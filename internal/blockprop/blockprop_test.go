package blockprop

import (
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/sortition"
	"algorand/internal/vtime"
)

const (
	testTau   = 50
	testW     = 10
	testTotal = 200
)

func makeIdentities(n int) (crypto.Provider, []crypto.Identity) {
	p := crypto.NewFast()
	var ids []crypto.Identity
	for i := 0; i < n; i++ {
		ids = append(ids, p.NewIdentity(crypto.SeedFromUint64(uint64(i))))
	}
	return p, ids
}

// propose keeps trying identities until one is selected.
func proposeAny(t *testing.T, ids []crypto.Identity, seed crypto.Digest, round uint64) (*Proposal, crypto.Identity) {
	for _, id := range ids {
		b := &ledger.Block{Round: round, Proposer: id.PublicKey()}
		if prop := Propose(id, sortition.RoleProposer, seed, round, testTau, testW, testTotal, b); prop != nil {
			return prop, id
		}
	}
	t.Fatal("no identity selected as proposer; raise tau")
	return nil, nil
}

func TestProposeVerifyRoundTrip(t *testing.T) {
	p, ids := makeIdentities(20)
	seed := crypto.HashBytes("seed")
	prop, id := proposeAny(t, ids, seed, 3)

	j := VerifyPriority(p, &prop.Priority, sortition.RoleProposer, seed, testTau, testW, testTotal)
	if j == 0 {
		t.Fatal("valid priority message rejected")
	}
	if !VerifyBlockMsg(p, &prop.Block, sortition.RoleProposer, seed, testTau, testW, testTotal) {
		t.Fatal("valid block message rejected")
	}
	if prop.Block.Proposer() != id.PublicKey() {
		t.Fatal("message proposer mismatch")
	}
}

func TestVerifyPriorityRejections(t *testing.T) {
	p, ids := makeIdentities(20)
	seed := crypto.HashBytes("seed")
	prop, _ := proposeAny(t, ids, seed, 3)

	bad := prop.Priority
	bad.SubUser = 0
	if VerifyPriority(p, &bad, sortition.RoleProposer, seed, testTau, testW, testTotal) != 0 {
		t.Fatal("sub-user 0 accepted")
	}
	bad = prop.Priority
	bad.SubUser += 1000
	if VerifyPriority(p, &bad, sortition.RoleProposer, seed, testTau, testW, testTotal) != 0 {
		t.Fatal("out-of-range sub-user accepted")
	}
	bad = prop.Priority
	bad.Priority[0] ^= 1
	if VerifyPriority(p, &bad, sortition.RoleProposer, seed, testTau, testW, testTotal) != 0 {
		t.Fatal("tampered priority accepted (breaks signature)")
	}
	bad = prop.Priority
	bad.Round++
	if VerifyPriority(p, &bad, sortition.RoleProposer, seed, testTau, testW, testTotal) != 0 {
		t.Fatal("wrong round accepted")
	}
	if VerifyPriority(p, &prop.Priority, sortition.RoleForkProposer, seed, testTau, testW, testTotal) != 0 {
		t.Fatal("wrong role accepted")
	}
	if VerifyPriority(p, &prop.Priority, sortition.RoleProposer, crypto.HashBytes("other"), testTau, testW, testTotal) != 0 {
		t.Fatal("wrong seed accepted")
	}
}

func TestVerifyBlockMsgRejections(t *testing.T) {
	p, ids := makeIdentities(20)
	seed := crypto.HashBytes("seed")
	prop, _ := proposeAny(t, ids, seed, 3)

	bad := prop.Block
	bad.Announce.SubUser = 0
	if VerifyBlockMsg(p, &bad, sortition.RoleProposer, seed, testTau, testW, testTotal) {
		t.Fatal("sub-user 0 accepted")
	}
	bad = prop.Block
	bad.Announce.Priority[0] ^= 1
	if VerifyBlockMsg(p, &bad, sortition.RoleProposer, seed, testTau, testW, testTotal) {
		t.Fatal("tampered priority accepted")
	}
	other := crypto.NewFast().NewIdentity(crypto.SeedFromUint64(999))
	bad = prop.Block
	bad.Announce.Proposer = other.PublicKey()
	if VerifyBlockMsg(p, &bad, sortition.RoleProposer, seed, testTau, testW, testTotal) {
		t.Fatal("wrong proposer accepted")
	}
	// Body not matching the announced hash must be rejected.
	bad = prop.Block
	altBlock := *prop.Block.Block
	altBlock.Timestamp += 999
	bad.Block = &altBlock
	if VerifyBlockMsg(p, &bad, sortition.RoleProposer, seed, testTau, testW, testTotal) {
		t.Fatal("body/announce hash mismatch accepted")
	}
}

func TestNotSelectedReturnsNil(t *testing.T) {
	_, ids := makeIdentities(1)
	seed := crypto.HashBytes("seed")
	b := &ledger.Block{Round: 1}
	// tau = 0: nobody is ever selected.
	if prop := Propose(ids[0], sortition.RoleProposer, seed, 1, 0, testW, testTotal, b); prop != nil {
		t.Fatal("selected with tau=0")
	}
}

// waitHarness drives Wait with scripted arrivals.
type waitHarness struct {
	sim   *vtime.Sim
	inbox *vtime.Mailbox
	res   WaitResult
}

func runWait(script func(h *waitHarness)) WaitResult {
	h := &waitHarness{sim: vtime.New()}
	h.inbox = h.sim.NewMailbox()
	h.sim.Spawn("waiter", func(p *vtime.Proc) {
		h.res = Wait(p, h.inbox, 2*time.Second, time.Second, 10*time.Second)
	})
	script(h)
	h.sim.Run(time.Minute)
	return h.res
}

func mkProposal(t *testing.T, seedByte byte, round uint64) *Proposal {
	// Use a distinct identity universe per call so two proposals come
	// from different proposers (same-proposer conflicts are the
	// equivocation case, tested separately).
	p := crypto.NewFast()
	var ids []crypto.Identity
	for i := 0; i < 30; i++ {
		ids = append(ids, p.NewIdentity(crypto.SeedFromUint64(uint64(seedByte)*1000+uint64(i))))
	}
	seed := crypto.HashBytes("wait-seed", []byte{seedByte})
	for _, id := range ids {
		b := &ledger.Block{Round: round, Proposer: id.PublicKey(), Timestamp: time.Duration(seedByte)}
		if prop := Propose(id, sortition.RoleProposer, seed, round, testTau, testW, testTotal, b); prop != nil {
			return prop
		}
	}
	t.Fatal("no proposer")
	return nil
}

func TestWaitPicksHighestPriority(t *testing.T) {
	a := mkProposal(t, 1, 1)
	b := mkProposal(t, 2, 1)
	hi, lo := a, b
	if a.Priority.Priority.Less(b.Priority.Priority) {
		hi, lo = b, a
	}
	res := runWait(func(h *waitHarness) {
		h.sim.After(100*time.Millisecond, func() {
			h.inbox.Send(NewArrivalPriority(&lo.Priority))
			h.inbox.Send(NewArrivalPriority(&hi.Priority))
		})
		h.sim.After(200*time.Millisecond, func() {
			h.inbox.Send(NewArrivalBlock(&lo.Block))
			h.inbox.Send(NewArrivalBlock(&hi.Block))
		})
	})
	if res.Block == nil {
		t.Fatal("no block chosen")
	}
	if res.Block.Hash() != hi.Block.Block.Hash() {
		t.Fatal("did not pick the highest-priority block")
	}
}

func TestWaitFallsBackToEmptyOnMissingBlock(t *testing.T) {
	a := mkProposal(t, 3, 1)
	res := runWait(func(h *waitHarness) {
		h.sim.After(100*time.Millisecond, func() {
			h.inbox.Send(NewArrivalPriority(&a.Priority))
		})
		// Block never arrives.
	})
	if res.Block != nil {
		t.Fatal("expected empty fallback")
	}
	if res.Priority == (sortition.Priority{}) {
		t.Fatal("priority should still be recorded")
	}
}

func TestWaitNoProposals(t *testing.T) {
	res := runWait(func(h *waitHarness) {})
	if res.Block != nil || res.Priority != (sortition.Priority{}) {
		t.Fatal("expected zero result")
	}
}

func TestWaitBlockArrivingLateButBeforeDeadline(t *testing.T) {
	a := mkProposal(t, 4, 1)
	res := runWait(func(h *waitHarness) {
		h.sim.After(100*time.Millisecond, func() {
			h.inbox.Send(NewArrivalPriority(&a.Priority))
		})
		// After the priority window (3s) but before λ_block (10s).
		h.sim.After(6*time.Second, func() {
			h.inbox.Send(NewArrivalBlock(&a.Block))
		})
	})
	if res.Block == nil {
		t.Fatal("late block should still be accepted")
	}
}

func TestWaitEquivocationDiscardsBoth(t *testing.T) {
	a := mkProposal(t, 5, 1)
	alt := *a.Block.Block
	alt.Timestamp += 12345
	altMsg := a.Block
	altMsg.Block = &alt
	// Arrivals are verified, so an announce names its own body's hash
	// (the equivocator signs one announce per version).
	altMsg.Announce.BlockHash = alt.Hash()

	res := runWait(func(h *waitHarness) {
		h.sim.After(100*time.Millisecond, func() {
			h.inbox.Send(NewArrivalPriority(&a.Priority))
			h.inbox.Send(NewArrivalBlock(&a.Block))
			h.inbox.Send(NewArrivalBlock(&altMsg))
		})
	})
	if !res.Equivocation {
		t.Fatal("equivocation not detected")
	}
	if res.Block != nil {
		t.Fatal("equivocating proposer's block must be discarded")
	}
}

func TestWaitBlockOnlyNoPriorityMsg(t *testing.T) {
	// A block arriving without its separate priority message still
	// carries the priority; Wait should use it.
	a := mkProposal(t, 6, 1)
	res := runWait(func(h *waitHarness) {
		h.sim.After(100*time.Millisecond, func() {
			h.inbox.Send(NewArrivalBlock(&a.Block))
		})
	})
	if res.Block == nil {
		t.Fatal("block-only proposal not accepted")
	}
}
