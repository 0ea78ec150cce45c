package blockprop

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/wire"
)

// PieceSize is how many bytes of a block body one piece carries: 40
// pieces at the paper's 10 MB, 4 at 1 MB. A piece crosses a 20 Mbit/s
// link in a tenth of a second, which is the unit a relay's neighbours
// wait for before they can pull from it in turn (a whole 10 MB body is
// four seconds per hop), and the longest a vote queues behind one.
const PieceSize = 256 << 10

// maxPieces bounds the piece count a body proposed under the given
// block size can have: the body's pieces, one more for the header that
// rides on top of a transaction payload assembled to the full size, and
// one for the transactions that do not divide evenly.
func maxPieces(blockSize int) int { return blockSize/PieceSize + 2 }

// Typed rejections of a manifest, a piece or a body. The node maps the
// ones a relay alone can cause onto the transport's misbehaviour score.
var (
	ErrPieceCount    = errors.New("blockprop: piece count inconsistent with the block size or the manifest")
	ErrPieceIndex    = errors.New("blockprop: piece index out of range")
	ErrPieceOversize = errors.New("blockprop: piece payload exceeds the piece size")
	ErrPieceHeader   = errors.New("blockprop: block header present on a piece other than the first, or missing from the first")
	ErrForgedPiece   = errors.New("blockprop: piece does not match the proposer's manifest")
	ErrBadAssembly   = errors.New("blockprop: pieces do not assemble to the announced block hash")
	ErrTooManyBodies = errors.New("blockprop: proposer already has two bodies in this round")
	ErrUnsolicited   = errors.New("blockprop: piece was not requested from this peer")
	ErrManifest      = errors.New("blockprop: manifest not signed by the proposer, or not the one verified for this block")
)

// Piece is one fixed-size cut of a proposed block body: a run of the
// block's transactions and a share of its modeled padding. The first
// piece also carries the block's header and the proposer's announce, so
// the pieces of a body are all a receiver needs to rebuild the BlockMsg.
//
// A Piece is immutable: it is built by Split, NewPiece or the decoder
// and its fields are not exported. That is what lets it remember its own
// digest, which the transport's duplicate suppression and the manifest
// check both ask for and every relay of the piece would otherwise hash
// again: a copy of a Piece cannot be edited into another piece that
// still carries the first one's digest (DESIGN.md, "Computed once",
// keeps such memos out of ledger.Block for that reason).
type Piece struct {
	blockHash crypto.Digest // the body this piece belongs to, as announced
	index     int
	count     int
	// head is the block with Txns and PayloadPadding left empty, and
	// announce the proposer's credentials; both on piece 0 only.
	head     *ledger.Block
	announce *PriorityMsg
	txns     []ledger.Transaction
	padding  int

	digest    crypto.Digest
	hasDigest bool
}

// NewPiece builds a piece from its parts (head and announce nil unless
// index is 0). The proposer's pieces come from Split; this is for
// harnesses that make pieces of their own.
func NewPiece(blockHash crypto.Digest, index, count int, head *ledger.Block, announce *PriorityMsg, txns []ledger.Transaction, padding int) *Piece {
	return &Piece{blockHash: blockHash, index: index, count: count, head: head, announce: announce, txns: txns, padding: padding}
}

// BlockHash returns the announced hash of the body the piece belongs to.
func (p *Piece) BlockHash() crypto.Digest { return p.blockHash }

// Index returns the piece's place in the body.
func (p *Piece) Index() int { return p.index }

// Txns returns the transactions the piece carries. The caller must not
// modify them.
func (p *Piece) Txns() []ledger.Transaction { return p.txns }

// Padding returns the piece's share of the block's modeled padding.
func (p *Piece) Padding() int { return p.padding }

// pieceFixedSize is the encoded size of a piece's own fields: block
// hash, index, count, transaction count and padding count.
const pieceFixedSize = 32 + 4 + 4 + 4 + 8

// payloadSize is how much of the block's wire size the piece carries,
// the quantity PieceSize bounds.
func (p *Piece) payloadSize() int {
	total := p.padding
	if p.head != nil {
		total += p.head.WireSize()
	}
	for i := range p.txns {
		total += p.txns[i].WireSize()
	}
	return total
}

// WireSize returns the piece's size on the network, padding included.
func (p *Piece) WireSize() int {
	total := pieceFixedSize + p.payloadSize()
	if p.announce != nil {
		total += p.announce.WireSize()
	}
	return total
}

// encodeHashed appends every field except the materialized padding
// zeros, like ledger.Block does for the block hash.
func (p *Piece) encodeHashed(e *wire.Encoder) {
	e.Fixed(p.blockHash[:])
	e.Int(p.index)
	e.Int(p.count)
	if p.index == 0 && p.head != nil && p.announce != nil {
		p.announce.EncodeTo(e)
		p.head.EncodeTo(e)
	}
	e.Int(len(p.txns))
	for i := range p.txns {
		p.txns[i].EncodeTo(e)
	}
	e.Uint64(uint64(p.padding))
}

// EncodeTo implements wire.Marshaler. The padding is materialized as
// zeros, so a socket carries what a size-filled block would.
func (p *Piece) EncodeTo(e *wire.Encoder) {
	p.encodeHashed(e)
	e.Zeros(p.padding)
}

// DecodeFrom implements wire.Unmarshaler.
func (p *Piece) DecodeFrom(d *wire.Decoder) {
	*p = Piece{}
	d.Fixed(p.blockHash[:])
	p.index = d.Int()
	p.count = d.Int()
	if p.index == 0 {
		p.announce = new(PriorityMsg)
		p.announce.DecodeFrom(d)
		p.head = new(ledger.Block)
		p.head.DecodeFrom(d)
		if d.Err() == nil && (len(p.head.Txns) != 0 || p.head.PayloadPadding != 0) {
			d.Fail(ErrPieceHeader)
			return
		}
	}
	if n := d.Count(ledger.TxMinWireSize); n > 0 {
		p.txns = make([]ledger.Transaction, n)
		for i := range p.txns {
			p.txns[i].DecodeFrom(d)
		}
	}
	pad := d.Uint64()
	if pad > uint64(d.Remaining()) {
		d.Fail(fmt.Errorf("%w: padding %d exceeds remaining input", ErrPieceOversize, pad))
		return
	}
	p.padding = int(pad)
	d.Skip(p.padding)
}

// Digest is the piece's entry in the proposer's manifest: a hash over
// everything but the padding zeros, so it also binds the piece to its
// body and its place in it.
func (p *Piece) Digest() crypto.Digest {
	if !p.hasDigest {
		e := preimages.Get()
		p.encodeHashed(e)
		p.digest, p.hasDigest = crypto.HashBytes("algorand.piece", e.Data()), true
		preimages.Put(e)
	}
	return p.digest
}

// preimages lends the buffers digests and signed bytes are built in.
var preimages wire.Pool

// check applies the rules a piece must meet whatever it contains.
func (p *Piece) check(count int) error {
	switch {
	case p.count != count:
		return ErrPieceCount
	case p.index < 0 || p.index >= count:
		return ErrPieceIndex
	case p.index == 0 && (p.head == nil || p.announce == nil), p.index != 0 && (p.head != nil || p.announce != nil):
		return ErrPieceHeader
	case p.padding < 0 || p.payloadSize() > PieceSize:
		return ErrPieceOversize
	}
	return nil
}

// Manifest is the proposer's signed description of a body that does not
// fit one piece: its announce and the digest of every piece. A relay
// checks each piece against it on arrival and only then serves it
// onward (§8.4's validate-before-relay, per piece); a relay cannot forge
// a piece, and a proposer whose pieces do not assemble to the block hash
// it announced has made an invalid proposal. A body of one piece has no
// digests and no second signature: the piece is the block, and the
// announced hash checks it.
type Manifest struct {
	Announce PriorityMsg
	Digests  []crypto.Digest
	Sig      []byte
}

// Pieces returns how many pieces the body has.
func (m *Manifest) Pieces() int {
	if len(m.Digests) == 0 {
		return 1
	}
	return len(m.Digests)
}

// WireSize returns the manifest's canonical encoded size.
func (m *Manifest) WireSize() int {
	return m.Announce.WireSize() + 4 + 32*len(m.Digests) + 4 + len(m.Sig)
}

// EncodeTo implements wire.Marshaler.
func (m *Manifest) EncodeTo(e *wire.Encoder) {
	m.Announce.EncodeTo(e)
	e.Int(len(m.Digests))
	for i := range m.Digests {
		e.Fixed(m.Digests[i][:])
	}
	e.Bytes(m.Sig)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *Manifest) DecodeFrom(d *wire.Decoder) {
	m.Announce.DecodeFrom(d)
	m.Digests = nil
	if n := d.Count(32); n > 0 {
		m.Digests = make([]crypto.Digest, n)
		for i := range m.Digests {
			d.Fixed(m.Digests[i][:])
		}
	}
	m.Sig = d.Bytes()
}

// signingBytes builds in e what the proposer signs: a domain tag no other
// signed message starts with, the announced hash and the digests, in order.
func (m *Manifest) signingBytes(e *wire.Encoder) []byte {
	e.Fixed([]byte("algorand.manifest"))
	e.Fixed(m.Announce.BlockHash[:])
	for i := range m.Digests {
		e.Fixed(m.Digests[i][:])
	}
	return e.Data()
}

// Verify checks what the announce's own verification (VerifyPriority)
// does not: that the piece count is one a body of at most blockSize
// bytes can have, and, for a multi-piece body, the proposer's signature
// over the digests. A manifest without digests passes unsigned, so "this
// body is one piece" is bound to nothing the proposer signed: anyone who
// saw the flooded priority can say it of any body. The fetcher therefore
// holds such a claim only until the signed description turns up
// (OnAnnounce) and tries it on nobody but those who made it (OnHave).
func (m *Manifest) Verify(p crypto.Provider, blockSize int) error {
	switch {
	case len(m.Digests) == 0 && len(m.Sig) == 0:
		return nil
	case len(m.Digests) < 2 || len(m.Digests) > maxPieces(blockSize):
		return ErrPieceCount
	}
	e := preimages.Get()
	defer preimages.Put(e)
	if !p.VerifySig(m.Announce.Proposer, m.signingBytes(e), m.Sig) {
		return ErrManifest
	}
	return nil
}

// same reports whether two manifests describe the same body the same
// way (the signature is over everything else, so it is not compared).
func (m *Manifest) same(o *Manifest) bool {
	if !sameAnnounce(&m.Announce, &o.Announce) || len(m.Digests) != len(o.Digests) {
		return false
	}
	for i := range m.Digests {
		if m.Digests[i] != o.Digests[i] {
			return false
		}
	}
	return true
}

// Split cuts a proposal's body into pieces and, when there is more
// than one, signs the manifest over them. Pieces share the block's
// transaction array; nothing is copied.
func Split(id crypto.Identity, bm *BlockMsg) (*Manifest, []*Piece) {
	b := bm.Block
	head := *b
	head.Txns, head.PayloadPadding = nil, 0
	announce := bm.Announce
	hash := bm.AnnouncedHash()

	var pieces []*Piece
	txns, pad := b.Txns, b.PayloadPadding
	budget := PieceSize - head.WireSize()
	for {
		p := &Piece{blockHash: hash, index: len(pieces)}
		n := 0
		for n < len(txns) && txns[n].WireSize() <= budget {
			budget -= txns[n].WireSize()
			n++
		}
		p.txns, txns = txns[:n], txns[n:]
		if len(txns) == 0 && pad > 0 && budget > 0 {
			p.padding = min(pad, budget)
			pad -= p.padding
		}
		pieces = append(pieces, p)
		if len(txns) == 0 && pad == 0 {
			break
		}
		budget = PieceSize
	}
	pieces[0].head, pieces[0].announce = &head, &announce

	m := &Manifest{Announce: announce}
	if len(pieces) > 1 {
		m.Digests = make([]crypto.Digest, len(pieces))
	}
	for i, p := range pieces {
		p.count = len(pieces)
		if m.Digests != nil {
			m.Digests[i] = p.Digest()
		}
	}
	if m.Digests != nil {
		e := preimages.Get()
		m.Sig = id.Sign(m.signingBytes(e))
		preimages.Put(e)
	}
	return m, pieces
}

// assemble rebuilds the proposal from its pieces, all present and in
// order. Where a piece's transactions follow the previous piece's in
// memory, as they do between nodes of one process, the block takes the
// shared array; decoded pieces are copied once.
func assemble(pieces []*Piece) *BlockMsg {
	b := *pieces[0].head
	b.Txns = pieces[0].txns
	b.PayloadPadding = pieces[0].padding
	for _, p := range pieces[1:] {
		b.Txns = joinTxns(b.Txns, p.txns)
		b.PayloadPadding += p.padding
	}
	return &BlockMsg{Block: &b, Announce: *pieces[0].announce}
}

func joinTxns(a, b []ledger.Transaction) []ledger.Transaction {
	switch {
	case len(b) == 0:
		return a
	case len(a) == 0:
		return b
	}
	if n := len(a) + len(b); cap(a) >= n {
		if ext := a[:n]; &ext[len(a)] == &b[0] {
			return ext
		}
	}
	return append(a[:len(a):len(a)], b...)
}

// sameAnnounce reports whether a piece carries the announce the
// manifest was verified under.
func sameAnnounce(a, b *PriorityMsg) bool {
	return a.BlockHash == b.BlockHash && a.Proposer == b.Proposer && a.Round == b.Round &&
		a.Priority == b.Priority && bytes.Equal(a.Sig, b.Sig)
}

// Bitmap is a set of piece indices: what a holder advertises and what
// the fetcher tracks per neighbour. A nil Bitmap on the wire means
// "every piece".
type Bitmap []uint64

// NewBitmap returns an empty set sized for n pieces.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Has reports whether piece i is in the set.
func (b Bitmap) Has(i int) bool { return i>>6 < len(b) && b[i>>6]&(1<<(i&63)) != 0 }

// Set adds piece i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (i & 63) }

func (b Bitmap) clear(i int) { b[i>>6] &^= 1 << (i & 63) }

// Len returns how many pieces are in the set.
func (b Bitmap) Len() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// merge adds o's members (advertisements only ever grow, so a late or
// re-ordered update loses nothing).
func (b Bitmap) merge(o Bitmap) {
	for i := range b {
		if i < len(o) {
			b[i] |= o[i]
		}
	}
}

// WireSize returns the bitmap's canonical encoded size.
func (b Bitmap) WireSize() int { return 4 + 8*len(b) }

// EncodeTo implements wire.Marshaler.
func (b Bitmap) EncodeTo(e *wire.Encoder) {
	e.Int(len(b))
	for _, w := range b {
		e.Uint64(w)
	}
}

// DecodeBitmap reads a bitmap.
func DecodeBitmap(d *wire.Decoder) Bitmap {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	b := make(Bitmap, n)
	for i := range b {
		b[i] = d.Uint64()
	}
	return b
}
