package node

import (
	"encoding/binary"
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

// ID identifies the exact vote (sender, round, step, value): an
// equivocating sender's two votes are distinct messages.
func (m *VoteMsg) ID() crypto.Digest {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], m.Vote.Round)
	binary.LittleEndian.PutUint64(buf[8:], m.Vote.Step)
	return crypto.HashBytes("msg.vote", m.Vote.Sender[:], buf[:], m.Vote.Value[:])
}

// LimitKey enforces the §8.4 rule: relay at most one message per sender
// per (round, step).
func (m *VoteMsg) LimitKey() network.LimitKey {
	return network.NewLimitKey('v', m.Vote.Sender, m.Vote.Round, m.Vote.Step)
}

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

// ID identifies the announcement, including the bound block hash so an
// equivocator's two variants are distinct messages.
func (m *PriorityGossip) ID() crypto.Digest {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], m.M.Round)
	return crypto.HashBytes("msg.priority", m.M.Proposer[:], buf[:], m.M.Priority[:], m.M.BlockHash[:])
}

// LimitKey: priority messages are limited per proposer per round.
func (m *PriorityGossip) LimitKey() network.LimitKey {
	return network.NewLimitKey('p', m.M.Proposer, m.M.Round, 0)
}

// RelayLimit allows two variants per proposer so that equivocation
// evidence (§10.4) reaches everyone even under the §8.4 relay limit.
func (m *PriorityGossip) RelayLimit() int { return 2 }

// BlockAnnounce tells neighbors "I hold this block, or part of it" — the
// inv of the pull-based block dissemination. Announcer is transport
// metadata (whom to request from); the signed core is the proposer's
// manifest: its PriorityMsg and, for a body of several pieces, the
// digest of each. Have lists the pieces the announcer holds, nil
// meaning all of them.
type BlockAnnounce struct {
	Manifest  blockprop.Manifest
	Announcer int
	Have      blockprop.Bitmap
}

// WireSize implements network.Message.
func (m *BlockAnnounce) WireSize() int { return m.Manifest.WireSize() + 4 + m.Have.WireSize() }

// EncodeTo implements wire.Marshaler.
func (m *BlockAnnounce) EncodeTo(e *wire.Encoder) {
	m.Manifest.EncodeTo(e)
	e.Int(m.Announcer)
	m.Have.EncodeTo(e)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *BlockAnnounce) DecodeFrom(d *wire.Decoder) {
	m.Manifest.DecodeFrom(d)
	m.Announcer = d.Int()
	m.Have = blockprop.DecodeBitmap(d)
}

// ID covers the announcer: each holder announces once.
func (m *BlockAnnounce) ID() crypto.Digest {
	a := &m.Manifest.Announce
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], a.Round)
	binary.LittleEndian.PutUint64(buf[8:], uint64(m.Announcer))
	return crypto.HashBytes("msg.announce", a.Proposer[:], buf[:], a.BlockHash[:])
}

// LimitKey: announcements are never relayed (each holder gossips its
// own), so no limit is needed.
func (m *BlockAnnounce) LimitKey() network.LimitKey { return network.LimitKey{} }

// BlockHave updates a BlockAnnounce: the announcer now holds these
// pieces of the body (nil: all of them). Advertisements only grow, so
// the receiver merges them and a lost or re-ordered one costs nothing.
type BlockHave struct {
	Round     uint64
	Hash      crypto.Digest
	Announcer int
	Have      blockprop.Bitmap
}

// WireSize implements network.Message.
func (m *BlockHave) WireSize() int { return 8 + 32 + 4 + m.Have.WireSize() }

// EncodeTo implements wire.Marshaler.
func (m *BlockHave) EncodeTo(e *wire.Encoder) {
	e.Uint64(m.Round)
	e.Fixed(m.Hash[:])
	e.Int(m.Announcer)
	m.Have.EncodeTo(e)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *BlockHave) DecodeFrom(d *wire.Decoder) {
	m.Round = d.Uint64()
	d.Fixed(m.Hash[:])
	m.Announcer = d.Int()
	m.Have = blockprop.DecodeBitmap(d)
}

// ID covers the announcer and what it advertises.
func (m *BlockHave) ID() crypto.Digest {
	buf := make([]byte, 0, 64)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Announcer))
	for _, w := range m.Have {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return crypto.HashBytes("msg.have", m.Hash[:], buf)
}

// LimitKey: advertisements are never relayed.
func (m *BlockHave) LimitKey() network.LimitKey { return network.LimitKey{} }

// BlockRequest asks a peer for a committed block's body whole (answered
// with a BlockFill): the §7.1 "obtain it from other users" fallback.
type BlockRequest struct {
	Hash      crypto.Digest
	Requester int
	Nonce     uint64
}

// WireSize implements network.Message.
func (m *BlockRequest) WireSize() int { return 32 + 4 + 8 }

// EncodeTo implements wire.Marshaler.
func (m *BlockRequest) EncodeTo(e *wire.Encoder) {
	e.Fixed(m.Hash[:])
	e.Int(m.Requester)
	e.Uint64(m.Nonce)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *BlockRequest) DecodeFrom(d *wire.Decoder) {
	d.Fixed(m.Hash[:])
	m.Requester = d.Int()
	m.Nonce = d.Uint64()
}

// ID is unique per request.
func (m *BlockRequest) ID() crypto.Digest {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(m.Requester))
	binary.LittleEndian.PutUint64(buf[8:], m.Nonce)
	return crypto.HashBytes("msg.blockreq", m.Hash[:], buf[:])
}

// LimitKey: requests are unicast, never relayed.
func (m *BlockRequest) LimitKey() network.LimitKey { return network.LimitKey{} }

// PieceRequest asks a holder for one piece of a proposed body (the
// getdata of the pull-based dissemination).
type PieceRequest struct {
	Hash      crypto.Digest
	Index     int
	Requester int
	Nonce     uint64
}

// WireSize implements network.Message.
func (m *PieceRequest) WireSize() int { return 32 + 4 + 4 + 8 }

// EncodeTo implements wire.Marshaler.
func (m *PieceRequest) EncodeTo(e *wire.Encoder) {
	e.Fixed(m.Hash[:])
	e.Int(m.Index)
	e.Int(m.Requester)
	e.Uint64(m.Nonce)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *PieceRequest) DecodeFrom(d *wire.Decoder) {
	d.Fixed(m.Hash[:])
	m.Index = d.Int()
	m.Requester = d.Int()
	m.Nonce = d.Uint64()
}

// ID is unique per request.
func (m *PieceRequest) ID() crypto.Digest {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(m.Index))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(m.Requester))
	binary.LittleEndian.PutUint64(buf[16:], m.Nonce)
	return crypto.HashBytes("msg.piecereq", m.Hash[:], buf[:])
}

// LimitKey: requests are unicast, never relayed.
func (m *PieceRequest) LimitKey() network.LimitKey { return network.LimitKey{} }

// BlockPiece carries one piece of a proposed body, sent unicast in
// answer to a PieceRequest. It is never relayed; dissemination happens
// through the announce/request cycle.
type BlockPiece struct {
	P *blockprop.Piece
	// Recipient and Nonce echo the request, so the same piece sent to two
	// requesters, or twice to one, is as many transfers to the duplicate
	// suppression.
	Recipient int
	Nonce     uint64
}

// WireSize implements network.Message.
func (m *BlockPiece) WireSize() int { return m.P.WireSize() + 4 + 8 }

// EncodeTo implements wire.Marshaler.
func (m *BlockPiece) EncodeTo(e *wire.Encoder) {
	m.P.EncodeTo(e)
	e.Int(m.Recipient)
	e.Uint64(m.Nonce)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *BlockPiece) DecodeFrom(d *wire.Decoder) {
	m.P = new(blockprop.Piece)
	m.P.DecodeFrom(d)
	m.Recipient = d.Int()
	m.Nonce = d.Uint64()
}

// ID covers the piece's contents, not just its place: this runs before
// any verification, and a forged piece under a genuine request's
// coordinates must not shadow the genuine transfer. The digest is the
// one the manifest check needs anyway, computed once per piece.
func (m *BlockPiece) ID() crypto.Digest {
	h := m.P.Digest()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(m.Recipient))
	binary.LittleEndian.PutUint64(buf[8:], m.Nonce)
	return crypto.HashBytes("msg.piece", buf[:], h[:])
}

// LimitKey: transfers are unicast, never relayed.
func (m *BlockPiece) LimitKey() network.LimitKey { return network.LimitKey{} }

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

// ID hashes the contained transaction IDs: identical re-batches are
// the same message to the duplicate-suppression layer.
func (m *TxBatch) ID() crypto.Digest {
	e := txBatchIDs.Get()
	defer txBatchIDs.Put(e)
	for _, tx := range m.Txns {
		id := tx.ID()
		e.Fixed(id[:])
	}
	return crypto.HashBytes("msg.txbatch", e.Data())
}

var txBatchIDs wire.Pool // lends ID's 32·n-byte preimages

// LimitKey: batches are never relayed (receivers re-batch), so no
// relay limit applies.
func (m *TxBatch) LimitKey() network.LimitKey { return network.LimitKey{} }

// BlockFill is a bare committed-block body answering a BlockRequest
// (§7.1 "obtain it from other users"); unlike a proposal's pieces it
// carries no credentials — the requester already knows the agreed hash
// and validates against it.
type BlockFill struct {
	Block     *ledger.Block
	Recipient int
}

// WireSize implements network.Message.
func (m *BlockFill) WireSize() int { return m.Block.WireSize() + 4 }

// EncodeTo implements wire.Marshaler.
func (m *BlockFill) EncodeTo(e *wire.Encoder) {
	m.Block.EncodeTo(e)
	e.Int(m.Recipient)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *BlockFill) DecodeFrom(d *wire.Decoder) {
	m.Block = new(ledger.Block)
	m.Block.DecodeFrom(d)
	m.Recipient = d.Int()
}

// ID covers block hash and recipient.
func (m *BlockFill) ID() crypto.Digest {
	h := m.Block.Hash()
	return crypto.HashUint64("msg.blockfill", uint64(m.Recipient), h[:])
}

// LimitKey: unicast, never relayed.
func (m *BlockFill) LimitKey() network.LimitKey { return network.LimitKey{} }

// ChainRequest asks a peer for committed blocks and certificates
// starting at a round (the §8.3 catch-up protocol).
type ChainRequest struct {
	FromRound uint64
	MaxBlocks int
	Requester int
	Nonce     uint64
}

// WireSize implements network.Message.
func (m *ChainRequest) WireSize() int { return 8 + 4 + 4 + 8 }

// EncodeTo implements wire.Marshaler.
func (m *ChainRequest) EncodeTo(e *wire.Encoder) {
	e.Uint64(m.FromRound)
	e.Int(m.MaxBlocks)
	e.Int(m.Requester)
	e.Uint64(m.Nonce)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *ChainRequest) DecodeFrom(d *wire.Decoder) {
	m.FromRound = d.Uint64()
	m.MaxBlocks = d.Int()
	m.Requester = d.Int()
	m.Nonce = d.Uint64()
}

// ID is unique per request.
func (m *ChainRequest) ID() crypto.Digest {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[:8], m.FromRound)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(m.Requester))
	binary.LittleEndian.PutUint64(buf[16:], m.Nonce)
	return crypto.HashBytes("msg.chainreq", buf[:])
}

// LimitKey: unicast, never relayed.
func (m *ChainRequest) LimitKey() network.LimitKey { return network.LimitKey{} }

// ChainReply returns a contiguous run of blocks with their §8.3
// certificates. The receiver validates everything; nothing is trusted.
type ChainReply struct {
	Blocks    []*ledger.Block
	Certs     []*ledger.Certificate
	Recipient int
	Nonce     uint64
}

// WireSize implements network.Message.
func (m *ChainReply) WireSize() int {
	total := 4 + 4 + 4 + 8 // two counts, recipient, nonce
	for _, b := range m.Blocks {
		total += b.WireSize()
	}
	for _, c := range m.Certs {
		total += c.WireSize()
	}
	return total
}

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
	e.Int(m.Recipient)
	e.Uint64(m.Nonce)
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
	m.Recipient = d.Int()
	m.Nonce = d.Uint64()
}

// ID is unique per reply.
func (m *ChainReply) ID() crypto.Digest {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(m.Recipient))
	binary.LittleEndian.PutUint64(buf[8:], m.Nonce)
	first := uint64(0)
	if len(m.Blocks) > 0 {
		first = m.Blocks[0].Round
	}
	return crypto.HashUint64("msg.chainreply", first, buf[:])
}

// LimitKey: unicast, never relayed.
func (m *ChainReply) LimitKey() network.LimitKey { return network.LimitKey{} }

// CommitAnnounce tells neighbors "round Round committed with this
// block hash". It is the feed gateway read models tail (the access
// tier's lag-tolerant view of the chain): each node announces its own
// commits to its direct neighbors and the message is never relayed —
// a gateway neighbors several consensus nodes, so it hears every round
// announced independently by each of them, and asks an announcer for
// the block with its certificate (ChainRequest). Consensus nodes ignore
// it.
type CommitAnnounce struct {
	Round     uint64
	Hash      crypto.Digest
	Announcer int
}

// WireSize implements network.Message.
func (m *CommitAnnounce) WireSize() int { return 8 + 32 + 4 }

// EncodeTo implements wire.Marshaler.
func (m *CommitAnnounce) EncodeTo(e *wire.Encoder) {
	e.Uint64(m.Round)
	e.Fixed(m.Hash[:])
	e.Int(m.Announcer)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *CommitAnnounce) DecodeFrom(d *wire.Decoder) {
	m.Round = d.Uint64()
	d.Fixed(m.Hash[:])
	m.Announcer = d.Int()
}

// ID covers the announcer: each node announces each commit once.
func (m *CommitAnnounce) ID() crypto.Digest {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], m.Round)
	binary.LittleEndian.PutUint64(buf[8:], uint64(m.Announcer))
	return crypto.HashBytes("msg.commitann", buf[:], m.Hash[:])
}

// LimitKey: announcements are never relayed (each committer gossips
// its own), so no relay limit is needed.
func (m *CommitAnnounce) LimitKey() network.LimitKey { return network.LimitKey{} }

// SnapshotRequest asks a peer for its newest state checkpoint (the
// fast-sync handshake): a restarting or joining node fetches a
// verified snapshot and replays only the delta past it, instead of
// the whole chain from genesis.
type SnapshotRequest struct {
	// MinRound filters checkpoints the requester already has: peers
	// whose newest checkpoint is at or below it stay silent.
	MinRound  uint64
	Requester int
	Nonce     uint64
}

// WireSize implements network.Message.
func (m *SnapshotRequest) WireSize() int { return 8 + 4 + 8 }

// EncodeTo implements wire.Marshaler.
func (m *SnapshotRequest) EncodeTo(e *wire.Encoder) {
	e.Uint64(m.MinRound)
	e.Int(m.Requester)
	e.Uint64(m.Nonce)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *SnapshotRequest) DecodeFrom(d *wire.Decoder) {
	m.MinRound = d.Uint64()
	m.Requester = d.Int()
	m.Nonce = d.Uint64()
}

// ID is unique per request.
func (m *SnapshotRequest) ID() crypto.Digest {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[:8], m.MinRound)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(m.Requester))
	binary.LittleEndian.PutUint64(buf[16:], m.Nonce)
	return crypto.HashBytes("msg.snapreq", buf[:])
}

// LimitKey: unicast, never relayed.
func (m *SnapshotRequest) LimitKey() network.LimitKey { return network.LimitKey{} }

// SnapshotReply carries one full checkpoint. The receiver trusts
// nothing: it verifies the certificate against the committee and the
// account table against the block header's state root before adopting
// any of it, exactly as it would a chain served by a peer.
type SnapshotReply struct {
	Checkpoint *ledger.Checkpoint
	Recipient  int
	Nonce      uint64
}

// WireSize implements network.Message.
func (m *SnapshotReply) WireSize() int { return m.Checkpoint.WireSize() + 4 + 8 }

// EncodeTo implements wire.Marshaler.
func (m *SnapshotReply) EncodeTo(e *wire.Encoder) {
	m.Checkpoint.EncodeTo(e)
	e.Int(m.Recipient)
	e.Uint64(m.Nonce)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *SnapshotReply) DecodeFrom(d *wire.Decoder) {
	m.Checkpoint = new(ledger.Checkpoint)
	m.Checkpoint.DecodeFrom(d)
	m.Recipient = d.Int()
	m.Nonce = d.Uint64()
}

// ID is unique per reply.
func (m *SnapshotReply) ID() crypto.Digest {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(m.Recipient))
	binary.LittleEndian.PutUint64(buf[8:], m.Nonce)
	return crypto.HashUint64("msg.snapreply", m.Checkpoint.Round(), buf[:])
}

// LimitKey: unicast, never relayed.
func (m *SnapshotReply) LimitKey() network.LimitKey { return network.LimitKey{} }

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
	TagCommitAnnounce
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
	case *CommitAnnounce:
		return TagCommitAnnounce, true
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
	case TagCommitAnnounce:
		return new(CommitAnnounce)
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
