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
	var buf [txSignedSize]byte
	return crypto.VerifySig(p, tx.From, tx.appendSigned(buf[:0]), tx.Sig)
}

// Balances is the account table: every account's money and nonce, the
// total money supply W (maintained incrementally because sortition
// divides by it constantly) and the Merkle account tree (maintained
// incrementally because every block header commits to its root).
//
// The table is persistent. Records live in the tree's buckets, Clone
// copies the bucket pointers and the interior hashes, and a write copies
// only the bucket it lands in, once: validating, assembling or committing
// a block costs what the block touches, not what the ledger holds, and
// the state after every block of every fork shares what it did not
// change with its parent. Either side of a Clone may be written
// afterwards; neither sees the other's writes.
type Balances struct {
	Total uint64

	accountTree
}

// NewBalances builds the genesis account state.
func NewBalances(initial map[crypto.PublicKey]uint64) *Balances {
	b := new(Balances)
	for pk, amt := range initial {
		b.put(merkleBucketOf(pk), AccountRecord{Key: pk, Money: amt})
		b.Total += amt
	}
	return b
}

// Clone returns a copy that shares every bucket with b until one of the
// two writes to it. Its cost does not depend on the number of accounts.
func (b *Balances) Clone() *Balances {
	b.share()
	c := *b
	return &c
}

// Root returns the state commitment every block header carries: the
// Merkle root over all account records plus the total supply W.
func (b *Balances) Root() crypto.Digest {
	return stateRoot(b.Total, b.root())
}

// MoneyOf returns pk's balance, which is also its sortition weight.
func (b *Balances) MoneyOf(pk crypto.PublicKey) uint64 {
	return b.get(merkleBucketOf(pk), pk).Money
}

// NonceOf returns the nonce pk's next transaction must carry.
func (b *Balances) NonceOf(pk crypto.PublicKey) uint64 {
	return b.get(merkleBucketOf(pk), pk).Nonce
}

// Len returns the number of accounts.
func (b *Balances) Len() int {
	n := 0
	for _, bk := range b.buckets {
		if bk != nil {
			n += len(bk.accounts)
		}
	}
	return n
}

// Accounts calls yield for every account record until it returns false,
// in an order that depends only on the set of keys (bucket by bucket,
// ascending by key within one).
func (b *Balances) Accounts(yield func(AccountRecord) bool) {
	for _, bk := range b.buckets {
		if bk == nil {
			continue
		}
		for i := range bk.accounts {
			if !yield(bk.accounts[i].AccountRecord) {
				return
			}
		}
	}
}

// checkTx validates tx against its sender's record.
func checkTx(tx *Transaction, from AccountRecord) error {
	if tx.Amount == 0 {
		return errors.New("ledger: zero-amount transaction")
	}
	if tx.Amount+tx.Fee < tx.Amount {
		return errors.New("ledger: amount+fee overflows")
	}
	if from.Money < tx.Amount+tx.Fee {
		return fmt.Errorf("ledger: insufficient balance %d < %d", from.Money, tx.Amount+tx.Fee)
	}
	if tx.Nonce != from.Nonce {
		return fmt.Errorf("ledger: bad nonce %d, want %d", tx.Nonce, from.Nonce)
	}
	return nil
}

// ApplyTx validates and applies tx. The fee is burned: it leaves the
// sender's balance and the total supply W, so fees cannot be minted
// into sortition weight by self-paying proposers.
func (b *Balances) ApplyTx(tx *Transaction) error {
	i := merkleBucketOf(tx.From)
	from := b.get(i, tx.From)
	if err := checkTx(tx, from); err != nil {
		return err
	}
	// A sender that can pay has a record: from.Key is set.
	from.Money -= tx.Amount + tx.Fee
	from.Nonce++
	b.put(i, from)
	// Read the recipient after the sender is written: they may be one
	// account.
	j := merkleBucketOf(tx.To)
	to := b.get(j, tx.To)
	to.Key = tx.To
	to.Money += tx.Amount
	b.put(j, to)
	b.Total -= tx.Fee
	return nil
}
