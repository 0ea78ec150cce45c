package ledger

import (
	"bytes"
	"testing"

	"algorand/internal/crypto"
	"algorand/internal/wire"
)

// testCheckpoint builds a structurally valid checkpoint at the given
// round: n accounts with varied money/nonces, a block whose StateRoot
// commits exactly that table, and a (cryptographically fake) cert for
// the block. diskstore and the snapshot wire format only need the
// structural invariants; certificate validity is the node's job.
func testCheckpoint(round uint64, n int) *Checkpoint {
	var accounts []AccountRecord
	for i := 0; i < n; i++ {
		a := AccountRecord{
			Key:   crypto.PublicKey(crypto.HashUint64("test.checkpoint.key", uint64(i), nil)),
			Money: uint64(1000 + i),
		}
		if i%3 == 0 {
			a.Nonce = uint64(i + 1)
		}
		accounts = append(accounts, a)
	}
	bal := (&Checkpoint{Accounts: accounts}).Balances()
	b := &Block{
		Round:     round,
		PrevHash:  crypto.HashUint64("test.checkpoint.prev", round, nil),
		Seed:      crypto.HashUint64("test.checkpoint.seed", round, nil),
		StateRoot: bal.Root(),
	}
	c := &Certificate{
		Round: round,
		Step:  3,
		Value: b.Hash(),
		Votes: []Vote{{Round: round, Step: 3, Value: b.Hash()}},
	}
	return CheckpointOf(b, c, bal)
}

func TestCheckpointRoundTrip(t *testing.T) {
	cp := testCheckpoint(7, 13)
	bal, err := cp.VerifyState()
	if err != nil {
		t.Fatalf("fresh checkpoint fails VerifyState: %v", err)
	}
	data := wire.Encode(cp)
	if len(data) != cp.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(data), cp.WireSize())
	}

	var got Checkpoint
	if err := wire.Decode(data, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Round() != 7 || got.Block.Hash() != cp.Block.Hash() {
		t.Fatal("decoded checkpoint has a different block")
	}
	gotBal, err := got.VerifyState()
	if err != nil {
		t.Fatalf("decoded checkpoint fails VerifyState: %v", err)
	}
	if gotBal.Total != bal.Total || gotBal.Root() != bal.Root() {
		t.Fatal("decoded balances differ from original")
	}
	bal.Accounts(func(a AccountRecord) bool {
		if m, nn := gotBal.MoneyOf(a.Key), gotBal.NonceOf(a.Key); m != a.Money || nn != a.Nonce {
			t.Fatalf("account %x money %d nonce %d, want %d and %d", a.Key[:4], m, nn, a.Money, a.Nonce)
		}
		return true
	})
	if !bytes.Equal(wire.Encode(&got), data) {
		t.Fatal("re-encoding is not byte-identical")
	}
}

// TestCheckpointCanonicalOrder: the account table has exactly one
// legal byte-form — unsorted or duplicated keys are rejected at
// decode, so a peer cannot serve the same state twice under different
// encodings.
func TestCheckpointCanonicalOrder(t *testing.T) {
	cp := testCheckpoint(3, 6)
	if len(cp.Accounts) < 2 {
		t.Fatal("need at least two accounts")
	}

	swapped := *cp
	swapped.Accounts = append([]AccountRecord(nil), cp.Accounts...)
	swapped.Accounts[0], swapped.Accounts[1] = swapped.Accounts[1], swapped.Accounts[0]
	if err := wire.Decode(wire.Encode(&swapped), new(Checkpoint)); err == nil {
		t.Fatal("unsorted account table decoded")
	}

	dup := *cp
	dup.Accounts = append([]AccountRecord(nil), cp.Accounts...)
	dup.Accounts[1] = dup.Accounts[0]
	if err := wire.Decode(wire.Encode(&dup), new(Checkpoint)); err == nil {
		t.Fatal("duplicate account key decoded")
	}
}

func TestCheckpointVerifyStateRejectsTamper(t *testing.T) {
	check := func(name string, mutate func(cp *Checkpoint)) {
		cp := testCheckpoint(5, 8)
		mutate(cp)
		if _, err := cp.VerifyState(); err == nil {
			t.Fatalf("%s: VerifyState accepted a tampered checkpoint", name)
		}
	}
	check("inflated balance", func(cp *Checkpoint) { cp.Accounts[0].Money += 1 })
	check("edited nonce", func(cp *Checkpoint) { cp.Accounts[2].Nonce += 1 })
	check("dropped account", func(cp *Checkpoint) { cp.Accounts = cp.Accounts[1:] })
	check("wrong state root", func(cp *Checkpoint) {
		cp.Block.StateRoot = crypto.HashBytes("test.evil", nil)
	})
	check("cert for another block", func(cp *Checkpoint) {
		cp.Cert.Value = crypto.HashBytes("test.other", nil)
	})
	check("no cert", func(cp *Checkpoint) { cp.Cert = nil })
	check("no block", func(cp *Checkpoint) { cp.Block = nil })
}

// TestCheckpointOfMatchesLiveState: a checkpoint of a live ledger's
// balances verifies against that ledger's own head block.
func TestCheckpointOfMatchesLiveState(t *testing.T) {
	prov := crypto.NewFast()
	genesis := make(map[crypto.PublicKey]uint64)
	for i := 0; i < 4; i++ {
		id := prov.NewIdentity(crypto.SeedFromUint64(uint64(i)))
		genesis[id.PublicKey()] = 1000
	}
	l := New(prov, DefaultConfig(), genesis, crypto.HashBytes("test.seed0", nil))
	cert := &Certificate{Round: 0, Value: l.HeadHash()}
	cp := CheckpointOf(l.Head(), cert, l.Balances())
	if _, err := cp.VerifyState(); err != nil {
		t.Fatalf("checkpoint of live genesis state fails verification: %v", err)
	}
	if cp.Round() != 0 || len(cp.Accounts) != 4 {
		t.Fatalf("round %d, %d accounts", cp.Round(), len(cp.Accounts))
	}
}
