package node

import (
	"fmt"

	"algorand/internal/blockprop"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/wire"
)

// VoteMsg wraps a BA⋆ vote for the gossip network.
type VoteMsg struct {
	Vote ledger.Vote
}

// WireSize implements network.Message.
func (m *VoteMsg) WireSize() int { return m.Vote.WireSize() }

// EncodeTo implements wire.Marshaler.
func (m *VoteMsg) EncodeTo(e *wire.Encoder) { m.Vote.EncodeTo(e) }

// DecodeFrom implements wire.Unmarshaler.
func (m *VoteMsg) DecodeFrom(d *wire.Decoder) { m.Vote.DecodeFrom(d) }

// ID implements network.Flooded. It hashes the vote's signed bytes and
// its signature: an equivocating sender's two votes are distinct
// messages, and so is a copy with one byte of the signature changed.
func (m *VoteMsg) ID() crypto.Digest { return encodedID("msg.vote", m) }

// LimitKey puts votes under the §8.4 relay budget: at most one message
// per sender per (round, step).
func (m *VoteMsg) LimitKey() network.LimitKey {
	return network.NewLimitKey('v', m.Vote.Sender, m.Vote.Round, m.Vote.Step)
}

// RelayLimit: one vote a key.
func (m *VoteMsg) RelayLimit() int { return 1 }

// PriorityGossip wraps a §6 priority announcement for flooding.
type PriorityGossip struct {
	M blockprop.PriorityMsg
}

// WireSize implements network.Message.
func (m *PriorityGossip) WireSize() int { return m.M.WireSize() }

// EncodeTo implements wire.Marshaler.
func (m *PriorityGossip) EncodeTo(e *wire.Encoder) { m.M.EncodeTo(e) }

// DecodeFrom implements wire.Unmarshaler.
func (m *PriorityGossip) DecodeFrom(d *wire.Decoder) { m.M.DecodeFrom(d) }

// ID implements network.Flooded. It hashes the announcement's signed
// bytes, the bound block hash among them, and its signature: an
// equivocator's two variants are distinct messages, and so is a forged
// copy of either.
func (m *PriorityGossip) ID() crypto.Digest { return encodedID("msg.priority", m) }

// LimitKey: priority messages are limited per proposer per round.
func (m *PriorityGossip) LimitKey() network.LimitKey {
	return network.NewLimitKey('p', m.M.Proposer, m.M.Round, 0)
}

// RelayLimit allows two variants per proposer so that equivocation
// evidence (§10.4) reaches everyone even under the §8.4 relay limit.
func (m *PriorityGossip) RelayLimit() int { return 2 }

// BlockAnnounce tells neighbors "I hold this block, or part of it" — the
// inv of the pull-based block dissemination, sent one hop: whom to
// request pieces from is its sender, as the transport names it. The
// signed core is the proposer's manifest: its PriorityMsg and, for a body
// of several pieces, the digest of each. Have lists the pieces the sender
// holds, nil meaning all of them.
type BlockAnnounce struct {
	Manifest blockprop.Manifest
	Have     blockprop.Bitmap
}

// WireSize implements network.Message.
func (m *BlockAnnounce) WireSize() int { return m.Manifest.WireSize() + m.Have.WireSize() }

// EncodeTo implements wire.Marshaler.
func (m *BlockAnnounce) EncodeTo(e *wire.Encoder) {
	m.Manifest.EncodeTo(e)
	m.Have.EncodeTo(e)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *BlockAnnounce) DecodeFrom(d *wire.Decoder) {
	m.Manifest.DecodeFrom(d)
	m.Have = blockprop.DecodeBitmap(d)
}

// BlockHave updates a BlockAnnounce: its sender now holds these pieces
// of the body (nil: all of them). Advertisements only grow, so the
// receiver merges them and a lost or re-ordered one costs nothing.
type BlockHave struct {
	Round uint64
	Hash  crypto.Digest
	Have  blockprop.Bitmap
}

// WireSize implements network.Message.
func (m *BlockHave) WireSize() int { return 8 + 32 + m.Have.WireSize() }

// EncodeTo implements wire.Marshaler.
func (m *BlockHave) EncodeTo(e *wire.Encoder) {
	e.Uint64(m.Round)
	e.Fixed(m.Hash[:])
	m.Have.EncodeTo(e)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *BlockHave) DecodeFrom(d *wire.Decoder) {
	m.Round = d.Uint64()
	d.Fixed(m.Hash[:])
	m.Have = blockprop.DecodeBitmap(d)
}

// BlockRequest asks a peer for a committed block's body whole (answered
// with a BlockFill to the transport's sender): the §7.1 "obtain it from
// other users" fallback.
type BlockRequest struct {
	Hash crypto.Digest
}

// WireSize implements network.Message.
func (m *BlockRequest) WireSize() int { return 32 }

// EncodeTo implements wire.Marshaler.
func (m *BlockRequest) EncodeTo(e *wire.Encoder) { e.Fixed(m.Hash[:]) }

// DecodeFrom implements wire.Unmarshaler.
func (m *BlockRequest) DecodeFrom(d *wire.Decoder) { d.Fixed(m.Hash[:]) }

// PieceRequest asks a holder for one piece of a proposed body (the
// getdata of the pull-based dissemination), answered to the transport's
// sender.
type PieceRequest struct {
	Hash  crypto.Digest
	Index int
}

// WireSize implements network.Message.
func (m *PieceRequest) WireSize() int { return 32 + 4 }

// EncodeTo implements wire.Marshaler.
func (m *PieceRequest) EncodeTo(e *wire.Encoder) {
	e.Fixed(m.Hash[:])
	e.Int(m.Index)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *PieceRequest) DecodeFrom(d *wire.Decoder) {
	d.Fixed(m.Hash[:])
	m.Index = d.Int()
}

// BlockPiece carries one piece of a proposed body, sent unicast in
// answer to a PieceRequest. It is never relayed; dissemination happens
// through the announce/request cycle, and the fetcher takes a piece once.
type BlockPiece struct {
	P *blockprop.Piece
}

// WireSize implements network.Message.
func (m *BlockPiece) WireSize() int { return m.P.WireSize() }

// Reply implements network.Reply: a piece yields to gossip on every link.
func (m *BlockPiece) Reply() {}

// EncodeTo implements wire.Marshaler.
func (m *BlockPiece) EncodeTo(e *wire.Encoder) { m.P.EncodeTo(e) }

// DecodeFrom implements wire.Unmarshaler.
func (m *BlockPiece) DecodeFrom(d *wire.Decoder) {
	m.P = new(blockprop.Piece)
	m.P.DecodeFrom(d)
}

// MaxTxBatchBytes caps the cumulative encoded size of the transactions
// in one TxBatch message. Peers sending larger batches are malformed
// (realnet scores and drops them); honest flushes pack below the cap.
const MaxTxBatchBytes = 128 << 10

// maxTxBatchTxs bounds the element count a decoder will accept.
const maxTxBatchTxs = MaxTxBatchBytes / ledger.TxMinWireSize

// TxBatch carries freshly admitted transactions in bulk, so tx gossip
// costs one frame per flush interval instead of one per payment.
// Batches are never relayed verbatim: each receiver admits the
// transactions through its own txflow pipeline and re-batches whatever
// was fresh for its neighbors, so duplicate suppression falls out of
// the mempool instead of the gossip seen-cache.
// Nobody writes a payment once it is in a batch: a receiver's pool adopts
// the pointers, and a pending payment pins itself, not its batch.
type TxBatch struct {
	Txns []*ledger.Transaction
}

// WireSize implements network.Message.
func (m *TxBatch) WireSize() int {
	total := 4
	for _, tx := range m.Txns {
		total += tx.WireSize()
	}
	return total
}

// EncodeTo implements wire.Marshaler.
func (m *TxBatch) EncodeTo(e *wire.Encoder) {
	e.Int(len(m.Txns))
	for _, tx := range m.Txns {
		tx.EncodeTo(e)
	}
}

// DecodeFrom implements wire.Unmarshaler. Hostile counts are rejected
// twice over: Count bounds the element count by the remaining input,
// and the cumulative size cap fails batches above MaxTxBatchBytes.
func (m *TxBatch) DecodeFrom(d *wire.Decoder) {
	n := d.Count(ledger.TxMinWireSize)
	if n > maxTxBatchTxs {
		d.Fail(fmt.Errorf("node: tx batch of %d exceeds cap %d", n, maxTxBatchTxs))
		return
	}
	m.Txns = nil
	if n == 0 {
		return
	}
	m.Txns = make([]*ledger.Transaction, n)
	total := 4
	for i := range m.Txns {
		m.Txns[i] = new(ledger.Transaction)
		m.Txns[i].DecodeFrom(d)
		if d.Err() != nil {
			m.Txns = nil
			return
		}
		total += m.Txns[i].WireSize()
	}
	if total > MaxTxBatchBytes {
		m.Txns = nil
		d.Fail(fmt.Errorf("node: tx batch payload %d exceeds cap %d", total, MaxTxBatchBytes))
	}
}

// BlockFill is a bare committed-block body answering a BlockRequest
// (§7.1 "obtain it from other users"); unlike a proposal's pieces it
// carries no credentials — the requester already knows the agreed hash
// and validates against it.
type BlockFill struct {
	Block *ledger.Block
}

// WireSize implements network.Message.
func (m *BlockFill) WireSize() int { return m.Block.WireSize() }

// Reply implements network.Reply.
func (m *BlockFill) Reply() {}

// EncodeTo implements wire.Marshaler.
func (m *BlockFill) EncodeTo(e *wire.Encoder) { m.Block.EncodeTo(e) }

// DecodeFrom implements wire.Unmarshaler.
func (m *BlockFill) DecodeFrom(d *wire.Decoder) {
	m.Block = new(ledger.Block)
	m.Block.DecodeFrom(d)
}

// ChainRequest asks a peer for committed blocks and certificates
// starting at a round (the §8.3 catch-up protocol). The reply goes to the
// transport's sender, which takes it because it asked that peer (see
// Node.answer).
type ChainRequest struct {
	FromRound uint64
	MaxBlocks int
}

// WireSize implements network.Message.
func (m *ChainRequest) WireSize() int { return 8 + 4 }

// EncodeTo implements wire.Marshaler.
func (m *ChainRequest) EncodeTo(e *wire.Encoder) {
	e.Uint64(m.FromRound)
	e.Int(m.MaxBlocks)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *ChainRequest) DecodeFrom(d *wire.Decoder) {
	m.FromRound = d.Uint64()
	m.MaxBlocks = d.Int()
}

// ChainReply returns a contiguous run of blocks with their §8.3
// certificates. The receiver validates everything; nothing is trusted.
type ChainReply struct {
	Blocks []*ledger.Block
	Certs  []*ledger.Certificate
}

// WireSize implements network.Message.
func (m *ChainReply) WireSize() int {
	total := 4 + 4 // two counts
	for _, b := range m.Blocks {
		total += b.WireSize()
	}
	for _, c := range m.Certs {
		total += c.WireSize()
	}
	return total
}

// Reply implements network.Reply.
func (m *ChainReply) Reply() {}

// EncodeTo implements wire.Marshaler.
func (m *ChainReply) EncodeTo(e *wire.Encoder) {
	e.Int(len(m.Blocks))
	for _, b := range m.Blocks {
		b.EncodeTo(e)
	}
	e.Int(len(m.Certs))
	for _, c := range m.Certs {
		c.EncodeTo(e)
	}
}

// DecodeFrom implements wire.Unmarshaler.
func (m *ChainReply) DecodeFrom(d *wire.Decoder) {
	nb := d.Count(1)
	m.Blocks = nil
	for i := 0; i < nb; i++ {
		b := new(ledger.Block)
		b.DecodeFrom(d)
		if d.Err() != nil {
			return
		}
		m.Blocks = append(m.Blocks, b)
	}
	nc := d.Count(1)
	m.Certs = nil
	for i := 0; i < nc; i++ {
		c := new(ledger.Certificate)
		c.DecodeFrom(d)
		if d.Err() != nil {
			return
		}
		m.Certs = append(m.Certs, c)
	}
}

// SnapshotRequest asks a peer for its newest state checkpoint (the
// fast-sync handshake): a restarting or joining node fetches a
// verified snapshot and replays only the delta past it, instead of
// the whole chain from genesis. Like a ChainRequest it is answered to
// the transport's sender.
type SnapshotRequest struct {
	// MinRound filters checkpoints the requester already has: peers
	// whose newest checkpoint is at or below it stay silent.
	MinRound uint64
}

// WireSize implements network.Message.
func (m *SnapshotRequest) WireSize() int { return 8 }

// EncodeTo implements wire.Marshaler.
func (m *SnapshotRequest) EncodeTo(e *wire.Encoder) {
	e.Uint64(m.MinRound)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *SnapshotRequest) DecodeFrom(d *wire.Decoder) {
	m.MinRound = d.Uint64()
}

// SnapshotReply carries one full checkpoint. The receiver trusts
// nothing: it verifies the certificate against the committee and the
// account table against the block header's state root before adopting
// any of it, exactly as it would a chain served by a peer.
type SnapshotReply struct {
	Checkpoint *ledger.Checkpoint
}

// WireSize implements network.Message.
func (m *SnapshotReply) WireSize() int { return m.Checkpoint.WireSize() }

// Reply implements network.Reply.
func (m *SnapshotReply) Reply() {}

// EncodeTo implements wire.Marshaler.
func (m *SnapshotReply) EncodeTo(e *wire.Encoder) {
	m.Checkpoint.EncodeTo(e)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *SnapshotReply) DecodeFrom(d *wire.Decoder) {
	m.Checkpoint = new(ledger.Checkpoint)
	m.Checkpoint.DecodeFrom(d)
}

// encodedID hashes m's canonical encoding under domain: the ID of a
// Flooded message whose every byte the receiver authenticates.
func encodedID(domain string, m wire.Marshaler) crypto.Digest {
	e := msgIDs.Get()
	defer msgIDs.Put(e)
	m.EncodeTo(e)
	return crypto.HashBytes(domain, e.Data())
}

var msgIDs wire.Pool // lends encodedID its preimages

// --- Wire registry ----------------------------------------------------------

// Frame type tags, one per gossip message type. These are wire format:
// never renumber an existing tag.
const (
	TagVote byte = 1 + iota
	TagPriority
	TagBlockAnnounce
	TagBlockRequest
	_ // 5 is retired: it carried a whole proposed body in one message
	_ // 6 is retired: it carried one transaction, relayed verbatim; TxBatch is the only transaction gossip
	TagBlockFill
	TagChainRequest
	TagChainReply
	TagTxBatch
	_ // 11 is retired: it told a gateway that a round committed; a gateway asks for the chain on its own clock
	TagSnapshotRequest
	TagSnapshotReply
	TagPieceRequest
	TagBlockPiece
	TagBlockHave
)

// wireMessage is the constraint every gossip message satisfies: the
// network contract plus the canonical codec.
type wireMessage interface {
	network.Message
	wire.Marshaler
	wire.Unmarshaler
}

// MessageTag returns the frame tag for a gossip message.
func MessageTag(m network.Message) (byte, bool) {
	switch m.(type) {
	case *VoteMsg:
		return TagVote, true
	case *PriorityGossip:
		return TagPriority, true
	case *BlockAnnounce:
		return TagBlockAnnounce, true
	case *BlockRequest:
		return TagBlockRequest, true
	case *BlockFill:
		return TagBlockFill, true
	case *ChainRequest:
		return TagChainRequest, true
	case *ChainReply:
		return TagChainReply, true
	case *TxBatch:
		return TagTxBatch, true
	case *SnapshotRequest:
		return TagSnapshotRequest, true
	case *SnapshotReply:
		return TagSnapshotReply, true
	case *PieceRequest:
		return TagPieceRequest, true
	case *BlockPiece:
		return TagBlockPiece, true
	case *BlockHave:
		return TagBlockHave, true
	}
	return 0, false
}

// NewMessage returns a fresh message of the tagged type, or nil for an
// unknown tag.
func NewMessage(tag byte) network.Message {
	switch tag {
	case TagVote:
		return new(VoteMsg)
	case TagPriority:
		return new(PriorityGossip)
	case TagBlockAnnounce:
		return new(BlockAnnounce)
	case TagBlockRequest:
		return new(BlockRequest)
	case TagBlockFill:
		return new(BlockFill)
	case TagChainRequest:
		return new(ChainRequest)
	case TagChainReply:
		return new(ChainReply)
	case TagTxBatch:
		return new(TxBatch)
	case TagSnapshotRequest:
		return new(SnapshotRequest)
	case TagSnapshotReply:
		return new(SnapshotReply)
	case TagPieceRequest:
		return new(PieceRequest)
	case TagBlockPiece:
		return new(BlockPiece)
	case TagBlockHave:
		return new(BlockHave)
	}
	return nil
}

// EncodeMessage encodes a gossip message into its frame tag and
// canonical payload.
func EncodeMessage(m network.Message) (tag byte, payload []byte, err error) {
	tag, ok := MessageTag(m)
	if !ok {
		return 0, nil, fmt.Errorf("node: %T is not a wire message", m)
	}
	e := wire.NewEncoderSize(m.WireSize())
	m.(wireMessage).EncodeTo(e)
	return tag, e.Data(), nil
}

// DecodeMessage reconstructs a gossip message from its frame tag and
// payload. It never panics on malformed input and requires the payload
// to be fully consumed.
func DecodeMessage(tag byte, payload []byte) (network.Message, error) {
	m := NewMessage(tag)
	if m == nil {
		return nil, fmt.Errorf("node: unknown message tag %d", tag)
	}
	if err := wire.Decode(payload, m.(wireMessage)); err != nil {
		return nil, err
	}
	return m, nil
}
