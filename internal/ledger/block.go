package ledger

import (
	"encoding/binary"
	"fmt"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/wire"
)

// Block is one entry of the blockchain (§8.1): a list of transactions
// plus the metadata BA⋆ needs — round number, the proposer's VRF-based
// seed for a future round, the previous block's hash, and a timestamp.
type Block struct {
	Round     uint64
	PrevHash  crypto.Digest
	Timestamp time.Duration // virtual time at proposal

	// StateRoot commits the account state *after* applying this block's
	// transactions (Balances.Root()): the Merkle root over every account
	// record plus the total supply W. It is what lets a checkpoint
	// snapshot — or a light client's balance proof — be verified against
	// a block header instead of a replay from genesis.
	StateRoot crypto.Digest

	// Seed is the sortition seed contributed by this block (§5.2):
	// either VRF_sk(seed_{r-1} || r) with SeedProof, or, for empty and
	// invalid blocks, H(seed_{r-1} || r) with a nil proof.
	Seed      crypto.Digest
	SeedProof []byte

	// Proposer identifies the block proposer; zero for empty blocks.
	// ProposerProof is the proposer's sortition proof (§6).
	Proposer      crypto.PublicKey
	ProposerProof []byte

	Txns []Transaction

	// PayloadPadding models additional transaction bytes that are not
	// materialized as Transaction values. The evaluation fills blocks to
	// an exact size (e.g. 1 MByte); simulating every one of the ~7000
	// payments in such a block as objects would add nothing, so blocks
	// carry a handful of real transactions plus padding that counts
	// toward WireSize only.
	PayloadPadding int
}

// blockFixedSize is the encoded size of a block's fixed header fields:
// round, prev hash, timestamp, state root, seed, proposer, the two
// proof length prefixes, the u32 transaction count and the u64 padding
// count.
const blockFixedSize = 8 + 32 + 8 + 32 + 32 + 4 + 32 + 4 + 4 + 8

// WireSize returns the block's size on the network in bytes — exactly
// len(wire.Encode(b)), with PayloadPadding materialized.
func (b *Block) WireSize() int {
	total := blockFixedSize + len(b.SeedProof) + len(b.ProposerProof) + b.PayloadPadding
	for i := range b.Txns {
		total += b.Txns[i].WireSize()
	}
	return total
}

// encodeHashed appends every field except the materialized padding
// zeros: the hash preimage is this strict prefix of the wire encoding,
// so hashing a 1 MB block does not digest a megabyte of zeros.
func (b *Block) encodeHashed(e *wire.Encoder) {
	e.Uint64(b.Round)
	e.Fixed(b.PrevHash[:])
	e.Uint64(uint64(b.Timestamp))
	e.Fixed(b.StateRoot[:])
	e.Fixed(b.Seed[:])
	e.Bytes(b.SeedProof)
	e.Fixed(b.Proposer[:])
	e.Bytes(b.ProposerProof)
	e.Int(len(b.Txns))
	for i := range b.Txns {
		b.Txns[i].EncodeTo(e)
	}
	e.Uint64(uint64(b.PayloadPadding))
}

// EncodeTo implements wire.Marshaler. PayloadPadding is materialized as
// zero bytes so the canonical encoding is byte-identical to what a real
// deployment transmits for a size-filled block.
func (b *Block) EncodeTo(e *wire.Encoder) {
	b.encodeHashed(e)
	e.Zeros(b.PayloadPadding)
}

// DecodeFrom implements wire.Unmarshaler.
func (b *Block) DecodeFrom(d *wire.Decoder) {
	b.Round = d.Uint64()
	d.Fixed(b.PrevHash[:])
	b.Timestamp = time.Duration(d.Uint64())
	d.Fixed(b.StateRoot[:])
	d.Fixed(b.Seed[:])
	b.SeedProof = d.Bytes()
	d.Fixed(b.Proposer[:])
	b.ProposerProof = d.Bytes()
	n := d.Count(TxMinWireSize)
	b.Txns = nil
	if n > 0 {
		b.Txns = make([]Transaction, n)
		for i := range b.Txns {
			b.Txns[i].DecodeFrom(d)
		}
	}
	pad := d.Uint64()
	if pad > uint64(d.Remaining()) {
		d.Fail(fmt.Errorf("ledger: block padding %d exceeds remaining input", pad))
		return
	}
	b.PayloadPadding = int(pad)
	d.Skip(b.PayloadPadding)
}

// Hash returns the block's hash, the value BA⋆ votes on. The preimage
// is the canonical wire encoding minus the materialized padding zeros
// (a strict prefix; the padding count itself is covered).
func (b *Block) Hash() crypto.Digest {
	e := preimages.Get()
	defer preimages.Put(e)
	b.encodeHashed(e)
	return crypto.HashBytes("algorand.block", e.Data())
}

// preimages lends the buffers hash preimages are built in and dropped from.
var preimages wire.Pool

// IsEmpty reports whether this is an empty block (no proposer).
func (b *Block) IsEmpty() bool {
	return b.Proposer == (crypto.PublicKey{}) && len(b.Txns) == 0 && b.PayloadPadding == 0
}

// EmptyBlock constructs the canonical empty block for a round
// ("Empty(round, H(ctx.last_block))" in Algorithm 7). Its seed is the
// fallback H(prevSeed || round) so that every user derives the same
// block, and hence the same hash, with no proposer involved. An empty
// block commits no transactions, so it carries its parent's state root
// forward unchanged.
func EmptyBlock(round uint64, prevHash crypto.Digest, prevSeed crypto.Digest, stateRoot crypto.Digest) *Block {
	return &Block{
		Round:     round,
		PrevHash:  prevHash,
		StateRoot: stateRoot,
		Seed:      FallbackSeed(prevSeed, round),
	}
}

// FallbackSeed computes seed_r = H(seed_{r-1} || r), used when a block
// carries no valid VRF seed (§5.2).
func FallbackSeed(prevSeed crypto.Digest, round uint64) crypto.Digest {
	return crypto.HashUint64("algorand.seed.fallback", round, prevSeed[:])
}

// SeedAlpha returns the VRF input for the round-r seed, seed_{r-1} || r.
func SeedAlpha(prevSeed crypto.Digest, round uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], round)
	out := make([]byte, 0, 40)
	out = append(out, prevSeed[:]...)
	out = append(out, tmp[:]...)
	return out
}

// SeedFromVRF derives the block seed from a proposer's VRF output.
func SeedFromVRF(out crypto.VRFOutput) crypto.Digest {
	return crypto.HashBytes("algorand.seed.vrf", out[:])
}
