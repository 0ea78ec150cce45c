package ledger

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"algorand/internal/crypto"
)

// The oracle of the persistent account state: the implementation it
// replaced, kept whole — two maps, a tree of 256 bucket maps, and a Clone
// that copies all of it. Nothing is shared between two oracle values, so
// whatever the copy-on-write state gets wrong about sharing shows up as
// a difference from it.

type naiveBalances struct {
	money map[crypto.PublicKey]uint64
	nonce map[crypto.PublicKey]uint64
	total uint64
	tree  *naiveTree
}

type naiveTree struct {
	members [merkleBuckets]map[crypto.PublicKey]crypto.Digest
	nodes   [2 * merkleBuckets]crypto.Digest
	dirty   map[int]bool
}

func (t *naiveTree) touch(pk crypto.PublicKey, money, nonce uint64) {
	i := merkleBucketOf(pk)
	if t.members[i] == nil {
		t.members[i] = make(map[crypto.PublicKey]crypto.Digest)
	}
	t.members[i][pk] = accountLeafHash(pk, money, nonce)
	t.dirty[i] = true
}

func (t *naiveTree) clone() *naiveTree {
	c := &naiveTree{nodes: t.nodes, dirty: make(map[int]bool, len(t.dirty))}
	for i, m := range t.members {
		if m == nil {
			continue
		}
		c.members[i] = make(map[crypto.PublicKey]crypto.Digest, len(m))
		for pk, h := range m {
			c.members[i][pk] = h
		}
	}
	for i := range t.dirty {
		c.dirty[i] = true
	}
	return c
}

func (t *naiveTree) bucketHash(i int) crypto.Digest {
	m := t.members[i]
	if len(m) == 0 {
		return crypto.Digest{}
	}
	hs := make([]crypto.Digest, 0, len(m))
	for _, h := range m {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(a, b int) bool { return hs[a].Less(hs[b]) })
	flat := make([]byte, 0, len(hs)*32)
	for _, h := range hs {
		flat = append(flat, h[:]...)
	}
	return crypto.HashBytes("algorand.account.leaf", flat)
}

func (t *naiveTree) root() crypto.Digest {
	if len(t.dirty) > 0 {
		parents := make(map[int]bool, len(t.dirty))
		for i := range t.dirty {
			t.nodes[merkleBuckets+i] = t.bucketHash(i)
			parents[(merkleBuckets+i)/2] = true
		}
		t.dirty = make(map[int]bool)
		for len(parents) > 0 {
			next := make(map[int]bool, len(parents))
			for n := range parents {
				t.nodes[n] = crypto.HashBytes("algorand.account.node", t.nodes[2*n][:], t.nodes[2*n+1][:])
				if n > 1 {
					next[n/2] = true
				}
			}
			parents = next
		}
	}
	return t.nodes[1]
}

func newNaiveBalances(initial map[crypto.PublicKey]uint64) *naiveBalances {
	b := &naiveBalances{
		money: make(map[crypto.PublicKey]uint64, len(initial)),
		nonce: make(map[crypto.PublicKey]uint64, len(initial)),
		tree:  &naiveTree{dirty: make(map[int]bool)},
	}
	for pk, amt := range initial {
		b.money[pk] = amt
		b.total += amt
		b.tree.touch(pk, amt, 0)
	}
	return b
}

func (b *naiveBalances) clone() *naiveBalances {
	c := &naiveBalances{
		money: make(map[crypto.PublicKey]uint64, len(b.money)),
		nonce: make(map[crypto.PublicKey]uint64, len(b.nonce)),
		total: b.total,
		tree:  b.tree.clone(),
	}
	for pk, amt := range b.money {
		c.money[pk] = amt
	}
	for pk, n := range b.nonce {
		c.nonce[pk] = n
	}
	return c
}

func (b *naiveBalances) root() crypto.Digest { return stateRoot(b.total, b.tree.root()) }

func (b *naiveBalances) applyTx(tx *Transaction) error {
	switch {
	case tx.Amount == 0, tx.Amount+tx.Fee < tx.Amount:
		return errors.New("malformed")
	case b.money[tx.From] < tx.Amount+tx.Fee:
		return errors.New("insufficient balance")
	case tx.Nonce != b.nonce[tx.From]:
		return errors.New("bad nonce")
	}
	b.money[tx.From] -= tx.Amount + tx.Fee
	b.money[tx.To] += tx.Amount
	b.total -= tx.Fee
	b.nonce[tx.From]++
	b.tree.touch(tx.From, b.money[tx.From], b.nonce[tx.From])
	b.tree.touch(tx.To, b.money[tx.To], b.nonce[tx.To])
	return nil
}

// statePair is one state of the fork tree, held both ways.
type statePair struct {
	got  *Balances
	want *naiveBalances
}

// check holds every read of the persistent state against the oracle.
func (p statePair) check(t *testing.T, keys []crypto.PublicKey, when string) {
	t.Helper()
	if p.got.Total != p.want.total {
		t.Fatalf("%s: total %d, oracle %d", when, p.got.Total, p.want.total)
	}
	for _, pk := range keys {
		if m, n := p.got.MoneyOf(pk), p.got.NonceOf(pk); m != p.want.money[pk] || n != p.want.nonce[pk] {
			t.Fatalf("%s: account %v reads money %d nonce %d, oracle %d and %d", when, pk, m, n, p.want.money[pk], p.want.nonce[pk])
		}
	}
	accounts := 0
	p.got.Accounts(func(a AccountRecord) bool {
		accounts++
		_, inMoney := p.want.money[a.Key]
		_, inNonce := p.want.nonce[a.Key]
		if !inMoney && !inNonce {
			t.Fatalf("%s: iteration yields account %v the oracle does not hold", when, a.Key)
		}
		return true
	})
	if accounts != p.got.Len() || accounts != len(p.want.money) {
		t.Fatalf("%s: iteration yields %d accounts, Len is %d, oracle holds %d", when, accounts, p.got.Len(), len(p.want.money))
	}
}

// TestBalancesModel drives random interleavings of Clone, ApplyTx and
// Root over a growing tree of forks — any state may be cloned or written
// at any time, an ancestor after its descendants included — against the
// deep-copy oracle: equal roots, equal reads, and a write to one state
// never shows in another.
func TestBalancesModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Enough accounts that most buckets hold several, few enough that
		// transactions collide on them; some recipients start unknown.
		var keys []crypto.PublicKey
		initial := make(map[crypto.PublicKey]uint64)
		for i := 0; i < 400; i++ {
			pk := crypto.PublicKey(crypto.HashUint64("model.account", uint64(seed)<<32|uint64(i)))
			keys = append(keys, pk)
			if i < 320 {
				initial[pk] = uint64(rng.Intn(1000))
			}
		}
		states := []statePair{{got: NewBalances(initial), want: newNaiveBalances(initial)}}
		roots := 0
		for op := 0; op < 1200; op++ {
			i := rng.Intn(len(states))
			s := states[i]
			switch k := rng.Intn(10); {
			case k == 0 && len(states) < 24:
				states = append(states, statePair{got: s.got.Clone(), want: s.want.clone()})
			case k == 1:
				if got, want := s.got.Root(), s.want.root(); got != want {
					t.Fatalf("seed %d op %d: state %d has root %v, oracle %v", seed, op, i, got, want)
				}
				roots++
			default:
				from := keys[rng.Intn(len(keys))]
				tx := &Transaction{From: from, To: keys[rng.Intn(len(keys))],
					Amount: uint64(rng.Intn(40)), Fee: uint64(rng.Intn(3)), Nonce: s.want.nonce[from]}
				if rng.Intn(10) == 0 {
					tx.Nonce++ // must be refused and change nothing
				}
				gotErr, wantErr := s.got.ApplyTx(tx), s.want.applyTx(tx)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("seed %d op %d: ApplyTx says %v, oracle %v", seed, op, gotErr, wantErr)
				}
			}
			// One state was written at most; every state must still read
			// as its own oracle does, which no write to another touched.
			if op%200 == 0 {
				for j, p := range states {
					p.check(t, keys, fmt.Sprintf("seed %d op %d state %d", seed, op, j))
				}
			}
		}
		for j, p := range states {
			p.check(t, keys, fmt.Sprintf("seed %d state %d at the end", seed, j))
			if got, want := p.got.Root(), p.want.root(); got != want {
				t.Fatalf("seed %d: state %d ends with root %v, oracle %v", seed, j, got, want)
			}
		}
		if roots == 0 || len(states) < 10 {
			t.Fatalf("seed %d: schedule took %d roots over %d states", seed, roots, len(states))
		}
	}
}

// TestCheckpointRoundTripsStateRoot: a state written out as a checkpoint
// and rebuilt as a ledger commits to the root it had.
func TestCheckpointRoundTripsStateRoot(t *testing.T) {
	p := newPopulation(300, 100)
	bal := NewBalances(p.accounts)
	for i, id := range p.ids[:200] {
		to := p.ids[(i*7+1)%len(p.ids)].PublicKey()
		if i%5 == 0 {
			to = crypto.PublicKey(crypto.HashUint64("roundtrip.new-account", uint64(i))) // not in genesis
		}
		if err := bal.ApplyTx(&Transaction{From: id.PublicKey(), To: to, Amount: uint64(1 + i%50), Fee: uint64(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	b := &Block{Round: 7, PrevHash: crypto.HashBytes("prev"), Seed: crypto.HashBytes("seed"), StateRoot: bal.Root()}
	cp := CheckpointOf(b, &Certificate{Round: 7, Value: b.Hash()}, bal)
	if len(cp.Accounts) != bal.Len() {
		t.Fatalf("checkpoint holds %d accounts of %d", len(cp.Accounts), bal.Len())
	}
	l, err := NewFromCheckpoint(p.provider, DefaultConfig(), NewGenesis(p.accounts, crypto.HashBytes("genesis-seed")), cp)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Balances().Root(); got != bal.Root() || got != l.Head().StateRoot {
		t.Fatalf("rebuilt state has root %v, the checkpointed state %v, the header %v", got, bal.Root(), l.Head().StateRoot)
	}
	if l.Balances().Total != bal.Total {
		t.Fatalf("rebuilt supply %d, want %d", l.Balances().Total, bal.Total)
	}
}

// TestAllocBudgetClone guards what makes a simulated user cost what it
// owns: cloning the account state costs the same for ten accounts as for
// ten thousand, and one payment on the clone copies two buckets, not the
// table.
func TestAllocBudgetClone(t *testing.T) {
	type cost struct{ clone, pay float64 }
	measure := func(accounts int) cost {
		initial := make(map[crypto.PublicKey]uint64, accounts)
		var keys []crypto.PublicKey
		for i := 0; i < accounts; i++ {
			pk := crypto.PublicKey(crypto.HashUint64("clone.account", uint64(i)))
			keys = append(keys, pk)
			initial[pk] = 1 << 20
		}
		bal := NewBalances(initial)
		bal.Root()
		var c cost
		c.clone = testing.AllocsPerRun(100, func() { sink = bal.Clone() })
		tx := &Transaction{From: keys[0], To: keys[1], Amount: 1}
		c.pay = testing.AllocsPerRun(100, func() {
			tmp := bal.Clone()
			if err := tmp.ApplyTx(tx); err != nil {
				t.Fatal(err)
			}
			sink = tmp
		})
		return c
	}
	small, large := measure(10), measure(10_000)
	if small.clone != 1 || large.clone != 1 {
		t.Errorf("Clone allocates %v objects at 10 accounts and %v at 10 000, want 1 at both", small.clone, large.clone)
	}
	// The clone, and a struct and a slice for each of the two buckets.
	if small.pay > 5 || large.pay > 5 {
		t.Errorf("Clone plus one payment allocates %v objects at 10 accounts and %v at 10 000, want at most 5", small.pay, large.pay)
	}
}

var sink *Balances
