package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"algorand/internal/crypto"
	"algorand/internal/wire"
)

// A Checkpoint is a verified state snapshot at one committed round:
// the block header (whose StateRoot commits the account table), the
// BA⋆ certificate proving the network agreed on that block, and the
// full account table itself. It is what periodic checkpointing writes
// into the durable archive and what fast sync ships to a joining
// node — the node verifies the certificate against the committee and
// the table against the header's Merkle commitment, then replays only
// the delta past the checkpoint instead of the whole chain (§8.3 made
// O(delta) instead of O(chain)).
//
// The account table is canonical on the wire: records sorted strictly
// ascending by public key. Decoding rejects any other ordering, so a
// checkpoint's encoding — and therefore its hash — is unique for a
// given state, and a peer cannot serve the same snapshot in two
// byte-forms.
type Checkpoint struct {
	Block    *Block
	Cert     *Certificate
	Accounts []AccountRecord
}

// AccountRecord is one account's full state in a checkpoint.
type AccountRecord struct {
	Key   crypto.PublicKey
	Money uint64
	Nonce uint64
}

// accountRecordSize is one record's wire size: key + money + nonce.
const accountRecordSize = 32 + 8 + 8

// checkpointOverheadSize is a checkpoint's encoded size beyond its
// block, certificate, and account records: the account count.
const checkpointOverheadSize = 4

// CheckpointOf snapshots balances into a checkpoint for block b
// (normally the ledger entry's own post-apply state, so that
// Verify's root check holds by construction).
func CheckpointOf(b *Block, cert *Certificate, bal *Balances) *Checkpoint {
	cp := &Checkpoint{Block: b, Cert: cert, Accounts: make([]AccountRecord, 0, bal.Len())}
	bal.Accounts(func(a AccountRecord) bool {
		cp.Accounts = append(cp.Accounts, a)
		return true
	})
	slices.SortFunc(cp.Accounts, func(a, b AccountRecord) int { return a.Key.Compare(b.Key) })
	return cp
}

// Round returns the checkpointed round.
func (cp *Checkpoint) Round() uint64 { return cp.Block.Round }

// Balances rebuilds the account state the checkpoint describes.
func (cp *Checkpoint) Balances() *Balances {
	bal := new(Balances)
	for _, a := range cp.Accounts {
		bal.put(merkleBucketOf(a.Key), a)
		bal.Total += a.Money
	}
	return bal
}

// VerifyState checks the checkpoint's internal integrity: the
// certificate must be for the block, and the account table must hash
// to exactly the state root the block header commits. A checkpoint
// that passes VerifyState carries a state nobody could have tampered
// with after the committee signed the block — what remains for the
// receiver is verifying the certificate itself against the committee
// (context-dependent: see node's snapshot sync). Returns the rebuilt
// balances on success so callers do not hash the table twice.
func (cp *Checkpoint) VerifyState() (*Balances, error) {
	if cp.Block == nil {
		return nil, errors.New("ledger: checkpoint has no block")
	}
	if cp.Cert == nil {
		return nil, errors.New("ledger: checkpoint has no certificate")
	}
	if cp.Cert.Value != cp.Block.Hash() {
		return nil, fmt.Errorf("ledger: checkpoint certificate is for a different block")
	}
	bal := cp.Balances()
	if got := bal.Root(); got != cp.Block.StateRoot {
		return nil, fmt.Errorf("ledger: checkpoint state hashes to %s, header commits %s", got, cp.Block.StateRoot)
	}
	return bal, nil
}

// NewFromCheckpoint builds a ledger whose canonical head is the
// checkpointed block, carrying the checkpoint's account table as live
// state — the fast-sync path: instead of replaying the whole chain
// from genesis, a node starts here and replays only the delta past
// the checkpoint through regular §8.3 catch-up. Genesis (accounts and
// seed0) is still constructed: it is common knowledge (§8.3) and
// supplies the sortition context for rounds whose seed round predates
// the checkpoint, which within the first seed-refresh epoch is
// genesis itself (see Ledger.SortitionContextKnown for the guard).
//
// The checkpoint's structural integrity is re-verified here, but NOT
// its certificate — the caller must have checked that it is final and
// that the committee signed it (see node.VerifyCheckpoint): the anchor
// is the chain's floor, where LastFinal stops.
func NewFromCheckpoint(p crypto.Provider, cfg Config, g *Genesis, cp *Checkpoint) (*Ledger, error) {
	bal, err := cp.VerifyState()
	if err != nil {
		return nil, err
	}
	l := NewFromGenesis(p, cfg, g)
	// VerifyState held the certificate's value against the block's hash.
	hash := cp.Cert.Value
	if cp.Block.Round == 0 {
		if hash != l.genesis.hash {
			return nil, errors.New("ledger: checkpoint at round 0 is not our genesis")
		}
		return l, nil
	}
	bal.share()
	e := &entry{
		block:    cp.Block,
		hash:     hash,
		balances: bal,
		cert:     cp.Cert,
	}
	if cp.Block.Round == 1 && cp.Block.PrevHash == l.genesis.hash {
		e.parent = l.genesis
	}
	l.entries[e.hash] = e
	l.byRound[cp.Block.Round] = append(l.byRound[cp.Block.Round], e)
	l.head = e
	return l, nil
}

// SortitionContextKnown reports whether the head chain actually holds
// the blocks that supply sortition seed and weights for round r. On a
// checkpoint-based ledger, rounds whose seed round falls strictly
// between genesis and the checkpoint have no context (their blocks
// were never replayed) — SortitionSeed would silently fall back to
// the genesis seed, so verifiers must check this first.
func (l *Ledger) SortitionContextKnown(r uint64) bool {
	sr := l.seedRound(r)
	if sr == 0 {
		return true // genesis is always known
	}
	if ancestorAt(l.head, sr) == nil {
		return false
	}
	wr := l.weightRound(r)
	return wr == 0 || ancestorAt(l.head, wr) != nil
}

// WireSize returns the checkpoint's canonical encoded size.
func (cp *Checkpoint) WireSize() int {
	return cp.Block.WireSize() + cp.Cert.WireSize() +
		checkpointOverheadSize + len(cp.Accounts)*accountRecordSize
}

// EncodeTo implements wire.Marshaler.
func (cp *Checkpoint) EncodeTo(e *wire.Encoder) {
	cp.Block.EncodeTo(e)
	cp.Cert.EncodeTo(e)
	e.Int(len(cp.Accounts))
	for i := range cp.Accounts {
		a := &cp.Accounts[i]
		e.Fixed(a.Key[:])
		e.Uint64(a.Money)
		e.Uint64(a.Nonce)
	}
}

// DecodeFrom implements wire.Unmarshaler, rejecting non-canonical
// account ordering (unsorted or duplicate keys).
func (cp *Checkpoint) DecodeFrom(d *wire.Decoder) {
	cp.Block = new(Block)
	cp.Block.DecodeFrom(d)
	cp.Cert = new(Certificate)
	cp.Cert.DecodeFrom(d)
	n := d.Count(accountRecordSize)
	cp.Accounts = make([]AccountRecord, 0, n)
	for i := 0; i < n; i++ {
		var a AccountRecord
		d.Fixed(a.Key[:])
		a.Money = d.Uint64()
		a.Nonce = d.Uint64()
		if d.Err() != nil {
			return
		}
		if i > 0 && bytes.Compare(cp.Accounts[i-1].Key[:], a.Key[:]) >= 0 {
			d.Fail(errors.New("ledger: checkpoint accounts not in canonical order"))
			return
		}
		cp.Accounts = append(cp.Accounts, a)
	}
}
