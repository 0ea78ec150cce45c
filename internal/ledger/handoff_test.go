package ledger

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"algorand/internal/crypto"
)

// payments returns up to k signed payments between p's users that apply
// in order to l's head state, with amounts, senders and recipients drawn
// from rng; one in five goes to an account the state has never held.
func (p *population) payments(rng *rand.Rand, l *Ledger, k int) []Transaction {
	state := l.Balances().Clone()
	var txs []Transaction
	for len(txs) < k {
		from := p.ids[rng.Intn(len(p.ids))]
		to := p.ids[rng.Intn(len(p.ids))].PublicKey()
		if rng.Intn(5) == 0 {
			to = crypto.PublicKey(crypto.HashUint64("handoff.new-account", rng.Uint64()))
		}
		tx := Transaction{From: from.PublicKey(), To: to, Amount: uint64(1 + rng.Intn(30)),
			Fee: uint64(rng.Intn(3)), Nonce: state.NonceOf(from.PublicKey())}
		if state.ApplyTx(&tx) != nil {
			continue
		}
		tx.Sign(from)
		txs = append(txs, tx)
	}
	return txs
}

// sameState fails t unless got and want hold the same accounts, in the
// same order, and commit to the same root.
func sameState(t *testing.T, got, want *Balances, when string) {
	t.Helper()
	if got.Root() != want.Root() || got.Total != want.Total || got.Len() != want.Len() {
		t.Fatalf("%s: root %v total %d over %d accounts, want %v, %d, %d", when,
			got.Root(), got.Total, got.Len(), want.Root(), want.Total, want.Len())
	}
	var records []AccountRecord
	want.Accounts(func(a AccountRecord) bool { records = append(records, a); return true })
	i := 0
	got.Accounts(func(a AccountRecord) bool {
		if a != records[i] {
			t.Fatalf("%s: account %d reads %+v, want %+v", when, i, a, records[i])
		}
		i++
		return true
	})
}

// TestAdoptedStateIsTheAppliedState: over random chains of payment blocks,
// a ledger that validates each block before committing it adopts the state
// validation computed, and that state is the one a ledger that only commits
// applies — root, supply and every account.
func TestAdoptedStateIsTheAppliedState(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newPopulation(60, 1000)
		validating, applying := p.ledger(), p.ledger()
		for round := 1; round <= 25; round++ {
			b := p.proposeBlock(validating, p.payments(rng, validating, 1+rng.Intn(60)), time.Duration(round)*time.Second)
			h := b.Hash()
			if err := validating.ValidateBlock(b, time.Hour); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			kept := validating.validated.state
			if err := validating.CommitHashed(b, h, nil); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if validating.Balances() != kept || validating.validated != (validated{}) {
				t.Fatalf("seed %d round %d: the commit of the validated block applied it again or kept the slot", seed, round)
			}
			if err := applying.CommitHashed(b, h, nil); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			sameState(t, validating.Balances(), applying.Balances(), "adopted state")
		}
	}
}

// TestCommitAppliesWhatItDidNotValidate: only the block ValidateBlock
// accepted, committed onto the head it validated against, adopts the
// state (TestAdoptedStateIsTheAppliedState); every other commit clones,
// applies and checks the root as before, and a forged state root fails it.
func TestCommitAppliesWhatItDidNotValidate(t *testing.T) {
	p := newPopulation(20, 1000)
	rng := rand.New(rand.NewSource(7))
	block := func(l *Ledger) *Block {
		return p.proposeBlock(l, p.payments(rng, l, 10), time.Duration(l.NextRound())*time.Second)
	}
	validate := func(t *testing.T, l *Ledger, b *Block) {
		t.Helper()
		if err := l.ValidateBlock(b, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	// Each set-up returns a ledger and the block to commit on it next.
	cases := []struct {
		name  string
		setup func(t *testing.T) (*Ledger, *Block)
	}{
		{"another block on the same parent", func(t *testing.T) (*Ledger, *Block) {
			l := p.ledger()
			b := block(l)
			validate(t, l, b)
			same := *b // equal contents, another block
			return l, &same
		}},
		{"validated before the head switched", func(t *testing.T) (*Ledger, *Block) {
			// Two branches at round 1: b is validated on top of one, and the
			// head is switched to the other.
			l := p.ledger()
			g, _ := l.BlockAt(0)
			x, y := block(l), EmptyBlock(1, l.GenesisHash(), g.Seed, g.StateRoot)
			if err := l.Commit(x, nil); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(y, nil); err != nil {
				t.Fatal(err)
			}
			b := block(l)
			validate(t, l, b)
			if err := l.SwitchHead(y.Hash()); err != nil {
				t.Fatal(err)
			}
			return l, b
		}},
		{"validated before a commit moved the head", func(t *testing.T) (*Ledger, *Block) {
			l := p.ledger()
			b := block(l)
			validate(t, l, b)
			if err := l.Commit(l.NextEmptyBlock(), nil); err != nil {
				t.Fatal(err)
			}
			return l, b
		}},
		{"not validated", func(t *testing.T) (*Ledger, *Block) {
			l := p.ledger()
			return l, block(l)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, b := tc.setup(t)
			kept := l.validated.state
			if err := l.Commit(b, nil); err != nil {
				t.Fatal(err)
			}
			got, _ := l.BalancesAt(b.Hash())
			if got == kept {
				t.Fatal("the commit adopted a state validated for another commit")
			}
			want, _ := l.BalancesAt(b.PrevHash)
			want = want.Clone()
			for i := range b.Txns {
				if err := want.ApplyTx(&b.Txns[i]); err != nil {
					t.Fatal(err)
				}
			}
			sameState(t, got, want, "committed state")

			l, b = tc.setup(t)
			b.StateRoot = crypto.HashBytes("handoff.forged-root")
			if err := l.Commit(b, nil); err == nil {
				t.Fatal("a block with a forged state root was committed")
			}
		})
	}
}

// TestAllocBudgetValidateCommit guards the handoff: validating a block and
// committing it clones the head state once, where it cloned it twice — a
// clone is a 10 KB table of bucket pointers and interior hashes whatever
// the number of accounts. A commit with no validation before it still
// pays for its own clone.
func TestAllocBudgetValidateCommit(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool drops Puts here (race detector): the signing buffers are allocated again")
	}
	p := newPopulation(40, 1000)
	rng := rand.New(rand.NewSource(3))
	const runs = 20
	ledgers := make([]*Ledger, 3*runs+1)
	for i := range ledgers {
		ledgers[i] = p.ledger()
	}
	// One block of 20 payments, which extends every ledger's genesis head.
	b := p.proposeBlock(ledgers[0], p.payments(rng, ledgers[0], 20), time.Second)
	h := b.Hash()
	validate := func(l *Ledger, b *Block) error { return l.ValidateBlock(b, time.Hour) }
	commit := func(l *Ledger, b *Block) error { return l.CommitHashed(b, h, nil) }
	// One discarded call on a spare ledger first, so that what the first
	// call of a process allocates once does not land in a measure.
	if err := validate(ledgers[3*runs], b); err != nil {
		t.Fatal(err)
	}
	// measure returns the bytes allocated by one call of f, averaged over
	// runs calls on fresh ledgers.
	next := 0
	measure := func(f func(l *Ledger, b *Block) error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := f(ledgers[next], b); err != nil {
				t.Fatal(err)
			}
			next++
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	validateOnly := measure(validate)
	pair := measure(func(l *Ledger, b *Block) error {
		if err := validate(l, b); err != nil {
			return err
		}
		return commit(l, b)
	})
	commitOnly := measure(commit)
	clone := uint64(unsafe.Sizeof(Balances{}))
	// pair and validateOnly are averages of separate calls, so their
	// difference may be negative: compare without subtracting.
	more := int64(pair) - int64(validateOnly)
	t.Logf("a state clone is %d B; ValidateBlock allocates %d B, then CommitHashed %d B more; CommitHashed alone %d B",
		clone, validateOnly, more, commitOnly)
	if pair >= validateOnly+clone/2 {
		t.Errorf("committing the validated block allocated %d bytes: it cloned the %d-byte state again", more, clone)
	}
	if commitOnly < clone {
		t.Errorf("a commit with no validation before it allocated %d bytes, less than the %d-byte clone it needs", commitOnly, clone)
	}
}
