// Package ledger implements Algorand's transaction log: payments,
// blocks (§8.1), the seed chain that drives sortition (§5.2-5.3),
// account/weight tracking, block certificates, and the sharded
// block/certificate store (§8.3).
package ledger

import (
	"errors"
	"fmt"

	"algorand/internal/crypto"
	"algorand/internal/wire"
)

// Transaction is a payment signed by the sender's key, transferring
// money from one public key to another (§4). Nonce is the sender's
// per-account sequence number and provides replay protection. Fee is
// burned from the sender's balance on commit and orders transactions
// in the mempool (highest fee drains first; zero-fee transactions
// remain valid and sort last).
type Transaction struct {
	From   crypto.PublicKey
	To     crypto.PublicKey
	Amount uint64
	Fee    uint64
	Nonce  uint64
	Sig    []byte
}

// txSignedSize is the size of the signed core (two keys, amount, fee,
// nonce); the canonical encoding appends the length-prefixed signature.
const txSignedSize = 32 + 32 + 8 + 8 + 8

// TxWireSize is the canonical wire size of a signed transaction
// (signed core plus length-prefixed 64-byte Ed25519 signature), used
// for block-size accounting. Asserted equal to len(wire.Encode) by the
// universal round-trip test.
const TxWireSize = txSignedSize + 4 + 64

// TxMinWireSize is the smallest possible encoding (unsigned), the
// per-element bound used when decoding transaction batches from
// untrusted peers.
const TxMinWireSize = txSignedSize + 4

// appendSigned appends the fields covered by the signature to b. It is
// in append form so that a hash over them (ID) can build the preimage in
// a local array.
func (tx *Transaction) appendSigned(b []byte) []byte {
	b = append(b, tx.From[:]...)
	b = append(b, tx.To[:]...)
	b = wire.AppendUint64(b, tx.Amount)
	b = wire.AppendUint64(b, tx.Fee)
	return wire.AppendUint64(b, tx.Nonce)
}

// encodeSigned appends the fields covered by the signature.
func (tx *Transaction) encodeSigned(e *wire.Encoder) {
	var buf [txSignedSize]byte
	e.Fixed(tx.appendSigned(buf[:0]))
}

// EncodeTo implements wire.Marshaler: the signed core followed by the
// length-prefixed signature, so SigningBytes is a strict prefix of the
// wire encoding.
func (tx *Transaction) EncodeTo(e *wire.Encoder) {
	tx.encodeSigned(e)
	e.Bytes(tx.Sig)
}

// DecodeFrom implements wire.Unmarshaler.
func (tx *Transaction) DecodeFrom(d *wire.Decoder) {
	d.Fixed(tx.From[:])
	d.Fixed(tx.To[:])
	tx.Amount = d.Uint64()
	tx.Fee = d.Uint64()
	tx.Nonce = d.Uint64()
	tx.Sig = d.Bytes()
}

// WireSize returns the transaction's canonical encoded size.
func (tx *Transaction) WireSize() int {
	return txSignedSize + 4 + len(tx.Sig)
}

// SigningBytes returns the canonical byte encoding that is signed: the
// prefix of the wire encoding before the signature field.
func (tx *Transaction) SigningBytes() []byte {
	return tx.appendSigned(make([]byte, 0, txSignedSize))
}

// ID returns the transaction's unique identifier.
func (tx *Transaction) ID() crypto.Digest {
	var buf [txSignedSize]byte
	return crypto.HashBytes("algorand.tx", tx.appendSigned(buf[:0]))
}

// Sign fills in the signature using the sender's identity.
func (tx *Transaction) Sign(id crypto.Identity) {
	tx.Sig = id.Sign(tx.SigningBytes())
}

// VerifySig checks the transaction signature.
func (tx *Transaction) VerifySig(p crypto.Provider) bool {
	return p.VerifySig(tx.From, tx.SigningBytes(), tx.Sig)
}

// Balances tracks every account's money and per-account nonces. The
// total money supply W is maintained incrementally because sortition
// divides by it constantly, and the Merkle account tree is maintained
// incrementally because every block header commits to its root.
type Balances struct {
	Money map[crypto.PublicKey]uint64
	Nonce map[crypto.PublicKey]uint64
	Total uint64

	tree *accountTree
}

// NewBalances builds the genesis account state.
func NewBalances(initial map[crypto.PublicKey]uint64) *Balances {
	b := &Balances{
		Money: make(map[crypto.PublicKey]uint64, len(initial)),
		Nonce: make(map[crypto.PublicKey]uint64, len(initial)),
		tree:  newAccountTree(),
	}
	for pk, amt := range initial {
		b.Money[pk] = amt
		b.Total += amt
		b.tree.touch(pk, amt, 0, true)
	}
	return b
}

// Clone returns a deep copy, used for per-round weight snapshots.
func (b *Balances) Clone() *Balances {
	c := &Balances{
		Money: make(map[crypto.PublicKey]uint64, len(b.Money)),
		Nonce: make(map[crypto.PublicKey]uint64, len(b.Nonce)),
		Total: b.Total,
	}
	for pk, amt := range b.Money {
		c.Money[pk] = amt
	}
	for pk, n := range b.Nonce {
		c.Nonce[pk] = n
	}
	if b.tree != nil {
		c.tree = b.tree.clone()
	}
	return c
}

// ensureTree rebuilds the account tree from the maps when the Balances
// was assembled field-by-field rather than through NewBalances.
func (b *Balances) ensureTree() *accountTree {
	if b.tree == nil {
		t := newAccountTree()
		for pk, amt := range b.Money {
			t.touch(pk, amt, b.Nonce[pk], true)
		}
		for pk, n := range b.Nonce {
			if _, ok := b.Money[pk]; !ok {
				t.touch(pk, 0, n, true)
			}
		}
		b.tree = t
	}
	return b.tree
}

// Root returns the state commitment every block header carries: the
// Merkle root over all account records plus the total supply W.
func (b *Balances) Root() crypto.Digest {
	return stateRoot(b.Total, b.ensureTree().root())
}

// Weight returns the sortition weight (account balance) of pk.
func (b *Balances) Weight(pk crypto.PublicKey) uint64 {
	return b.Money[pk]
}

// CheckTx validates tx against the current state without applying it.
func (b *Balances) CheckTx(tx *Transaction) error {
	if tx.Amount == 0 {
		return errors.New("ledger: zero-amount transaction")
	}
	if tx.Amount+tx.Fee < tx.Amount {
		return errors.New("ledger: amount+fee overflows")
	}
	if b.Money[tx.From] < tx.Amount+tx.Fee {
		return fmt.Errorf("ledger: insufficient balance %d < %d", b.Money[tx.From], tx.Amount+tx.Fee)
	}
	if tx.Nonce != b.Nonce[tx.From] {
		return fmt.Errorf("ledger: bad nonce %d, want %d", tx.Nonce, b.Nonce[tx.From])
	}
	return nil
}

// ApplyTx validates and applies tx. The fee is burned: it leaves the
// sender's balance and the total supply W, so fees cannot be minted
// into sortition weight by self-paying proposers.
func (b *Balances) ApplyTx(tx *Transaction) error {
	if err := b.CheckTx(tx); err != nil {
		return err
	}
	b.Money[tx.From] -= tx.Amount + tx.Fee
	b.Money[tx.To] += tx.Amount
	b.Total -= tx.Fee
	b.Nonce[tx.From]++
	t := b.ensureTree()
	t.touch(tx.From, b.Money[tx.From], b.Nonce[tx.From], true)
	t.touch(tx.To, b.Money[tx.To], b.Nonce[tx.To], true)
	return nil
}
