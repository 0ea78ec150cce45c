// Package blockprop implements Algorand's block proposal stage (§6):
// proposer selection by sortition with τ_proposer, priority derivation
// from the VRF output, the two-message scheme (small priority+proof
// gossip followed by the full block), and the waiting discipline that
// lets every user settle on the highest-priority proposal.
package blockprop

import (
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/sortition"
	"algorand/internal/vtime"
	"algorand/internal/wire"
)

// PriorityMsg announces a proposer's priority, proof, and the hash of
// the proposed block (§6). At ~320 bytes it propagates quickly and lets
// users discard lower-priority blocks without downloading them; it also
// serves as the authenticated announcement that drives pull-based block
// dissemination (a node fetches the block body, piece by piece, from
// the peers that hold it, as the inv/getdata scheme of Bitcoin's gossip,
// which the paper's TCP prototype inherits, does).
type PriorityMsg struct {
	Proposer  crypto.PublicKey
	Round     uint64
	BlockHash crypto.Digest
	SortHash  crypto.VRFOutput
	SortProof []byte
	SubUser   uint64             // winning sub-user index
	Priority  sortition.Priority // H(SortHash || SubUser)
	Sig       []byte
}

// priorityFixedSize is the encoded size of a PriorityMsg's fixed fields
// plus the two u32 length prefixes (proof, signature).
const priorityFixedSize = 32 + 8 + 32 + 64 + 4 + 8 + 32 + 4

// PriorityMsgWireSize is the canonical wire size of a standard priority
// announcement (80-byte ECVRF proof, 64-byte Ed25519 signature); the
// paper quotes "about 200 Bytes" for its flavor of this message.
// Asserted equal to len(wire.Encode) by the universal round-trip test.
const PriorityMsgWireSize = priorityFixedSize + 80 + 64

// prioritySignedSize is the size of a standard announcement's signing
// bytes; a buffer of this size on the caller's stack holds them, and a
// longer sortition proof spills to the heap.
const prioritySignedSize = PriorityMsgWireSize - 4 - 64

// appendSigned appends the fields covered by the signature — every
// field but the signature itself, in wire order. The block hash is
// covered, so only the proposer can bind a hash to its priority — a
// forged second hash would otherwise let an attacker frame an honest
// proposer as an equivocator.
func (m *PriorityMsg) appendSigned(b []byte) []byte {
	b = append(b, m.Proposer[:]...)
	b = wire.AppendUint64(b, m.Round)
	b = append(b, m.BlockHash[:]...)
	b = append(b, m.SortHash[:]...)
	b = wire.AppendBytes(b, m.SortProof)
	b = wire.AppendUint64(b, m.SubUser)
	return append(b, m.Priority[:]...)
}

// EncodeTo implements wire.Marshaler: the signed core followed by the
// length-prefixed signature, so SigningBytes is a strict prefix of the
// canonical encoding.
func (m *PriorityMsg) EncodeTo(e *wire.Encoder) {
	var buf [prioritySignedSize]byte
	e.Fixed(m.appendSigned(buf[:0]))
	e.Bytes(m.Sig)
}

// DecodeFrom implements wire.Unmarshaler.
func (m *PriorityMsg) DecodeFrom(d *wire.Decoder) {
	d.Fixed(m.Proposer[:])
	m.Round = d.Uint64()
	d.Fixed(m.BlockHash[:])
	d.Fixed(m.SortHash[:])
	m.SortProof = d.Bytes()
	m.SubUser = d.Uint64()
	d.Fixed(m.Priority[:])
	m.Sig = d.Bytes()
}

// WireSize returns the message's canonical encoded size.
func (m *PriorityMsg) WireSize() int {
	return priorityFixedSize + len(m.SortProof) + len(m.Sig)
}

// SigningBytes returns the signed encoding: the prefix of the canonical
// wire encoding before the signature field.
func (m *PriorityMsg) SigningBytes() []byte {
	return m.appendSigned(make([]byte, 0, prioritySignedSize))
}

// BlockMsg is a full proposed block together with its announce (the
// proposer's signed credentials, §6): what Propose builds, what the
// fetcher assembles from a body's pieces and hands to the waiter. The
// announce's Proposer and Round identify the proposal even when the
// block itself is an empty block (as §8.2 recovery proposals are). On
// the network a body travels as Pieces.
type BlockMsg struct {
	Block    *ledger.Block
	Announce PriorityMsg
}

// Proposer returns who made this proposal.
func (m *BlockMsg) Proposer() crypto.PublicKey { return m.Announce.Proposer }

// Round returns the proposal round of the credentials.
func (m *BlockMsg) Round() uint64 { return m.Announce.Round }

// Priority returns the proposal's priority.
func (m *BlockMsg) Priority() sortition.Priority { return m.Announce.Priority }

// AnnouncedHash returns the block hash the proposer signed into the
// announce. For a message that passed VerifyBlockMsg (or came out of
// Propose) it is the body's hash, which is how a verified proposal
// carries its hash along instead of being encoded again at every stop.
func (m *BlockMsg) AnnouncedHash() crypto.Digest { return m.Announce.BlockHash }

// Proposal is a block proposal this node has made.
type Proposal struct {
	Priority PriorityMsg
	Block    BlockMsg
}

// Elect runs proposer sortition for the round (§6): a user learns
// whether it is selected before it prepares a block.
func Elect(id crypto.Identity, roleKind string, seed crypto.Digest, round, tauProposer, weight, totalWeight uint64) sortition.Result {
	return sortition.Execute(id, seed[:], sortition.Role{Kind: roleKind, Round: round}, tauProposer, weight, totalWeight)
}

// NewProposal builds a selected proposer's messages around the supplied
// block from the result of its election. The block's seed fields must
// already be filled in by the caller (they depend on the proposer's
// VRF, see ledger.SeedFromVRF).
func NewProposal(id crypto.Identity, round uint64, res sortition.Result, block *ledger.Block) *Proposal {
	pri, idx := sortition.BestPriority(res.Output, res.J)
	pm := PriorityMsg{
		Proposer:  id.PublicKey(),
		Round:     round,
		BlockHash: block.Hash(),
		SortHash:  res.Output,
		SortProof: res.Proof,
		SubUser:   idx,
		Priority:  pri,
	}
	pm.Sig = id.Sign(pm.SigningBytes())
	bm := BlockMsg{Block: block, Announce: pm}
	return &Proposal{Priority: pm, Block: bm}
}

// Propose is Elect, then NewProposal around a block the caller already
// holds; it returns nil if the user was not selected.
func Propose(
	id crypto.Identity,
	roleKind string,
	seed crypto.Digest,
	round uint64,
	tauProposer uint64,
	weight, totalWeight uint64,
	block *ledger.Block,
) *Proposal {
	if res := Elect(id, roleKind, seed, round, tauProposer, weight, totalWeight); res.Selected() {
		return NewProposal(id, round, res, block)
	}
	return nil
}

// VerifyPriority checks a priority message: signature, sortition proof
// for the proposer role, sub-user index in range, and the priority hash
// itself. It returns the verified number of selected sub-users (0 if
// invalid).
func VerifyPriority(
	p crypto.Provider,
	m *PriorityMsg,
	roleKind string,
	seed crypto.Digest,
	tauProposer uint64,
	weight, totalWeight uint64,
) uint64 {
	var buf [prioritySignedSize]byte
	if !crypto.VerifySig(p, m.Proposer, m.appendSigned(buf[:0]), m.Sig) {
		return 0
	}
	role := sortition.Role{Kind: roleKind, Round: m.Round}
	out, j := sortition.Verify(p, m.Proposer, m.SortProof, seed[:], role, tauProposer, weight, totalWeight)
	if j == 0 || out != m.SortHash {
		return 0
	}
	if m.SubUser == 0 || m.SubUser > j {
		return 0
	}
	if sortition.SubUserHash(out, m.SubUser) != crypto.Digest(m.Priority) {
		return 0
	}
	return j
}

// VerifyBlockMsg checks a block message's announce credentials and that
// the body matches the announced hash (the block's semantic validity is
// the ledger's job).
func VerifyBlockMsg(
	p crypto.Provider,
	m *BlockMsg,
	roleKind string,
	seed crypto.Digest,
	tauProposer uint64,
	weight, totalWeight uint64,
) bool {
	if VerifyPriority(p, &m.Announce, roleKind, seed, tauProposer, weight, totalWeight) == 0 {
		return false
	}
	return m.Announce.BlockHash == m.Block.Hash()
}

// WaitResult is the outcome of waiting for block proposals.
type WaitResult struct {
	// Block is the highest-priority proposal received, or nil if the
	// user fell back to the empty block; BlockHash is its hash.
	Block     *ledger.Block
	BlockHash crypto.Digest
	// Priority is the winning priority (zero if none).
	Priority sortition.Priority
	// Equivocation reports that the winning proposer sent conflicting
	// blocks and both were discarded (§10.4 optimization).
	Equivocation bool
	// BestPriorityAt is when the winning priority was first learned
	// (for the §10.5 priority-propagation measurement).
	BestPriorityAt time.Duration
}

// arrival is what the node's network handler enqueues for the waiter:
// either a PriorityMsg or a BlockMsg (already credential-verified, so
// the waiter reads a block's hash off its announce).
type arrival struct {
	pri *PriorityMsg
	blk *BlockMsg
}

// NewArrivalPriority wraps a verified priority message for the waiter.
func NewArrivalPriority(m *PriorityMsg) any { return arrival{pri: m} }

// NewArrivalBlock wraps a verified block message for the waiter.
func NewArrivalBlock(m *BlockMsg) any { return arrival{blk: m} }

// Wait implements the §6 waiting discipline: listen for priority and
// block messages on inbox for λ_priority+λ_stepvar to learn the highest
// priority, then keep waiting (up to the λ_block deadline measured from
// the start) for the matching block. It returns the chosen block or the
// empty-block fallback.
func Wait(
	proc *vtime.Proc,
	inbox *vtime.Mailbox,
	lambdaPriority, lambdaStepVar, lambdaBlock time.Duration,
) WaitResult {
	return WaitOpts(proc, inbox, lambdaPriority, lambdaStepVar, lambdaBlock, false)
}

// WaitOpts is Wait with the §10.4 equivocation policy selectable:
// keepFirst keeps the first block version received from an equivocating
// proposer instead of discarding both (the ablation of the paper's
// discard-both optimization).
func WaitOpts(
	proc *vtime.Proc,
	inbox *vtime.Mailbox,
	lambdaPriority, lambdaStepVar, lambdaBlock time.Duration,
	keepFirst bool,
) WaitResult {
	start := proc.Now()
	priorityDeadline := start + lambdaPriority + lambdaStepVar
	blockDeadline := start + lambdaBlock

	var best sortition.Priority
	var bestProposer crypto.PublicKey
	var bestAt time.Duration
	haveBest := false
	// Candidate blocks by proposer, to detect equivocation and to have
	// the block at hand when its priority wins. announced tracks the
	// hash each proposer bound to its priority; a second hash marks the
	// proposer an equivocator (§10.4) without needing both block bodies.
	blocks := make(map[crypto.PublicKey]*BlockMsg)
	announced := make(map[crypto.PublicKey]crypto.Digest)
	equivocators := make(map[crypto.PublicKey]bool)

	noteHash := func(proposer crypto.PublicKey, h crypto.Digest) {
		if prev, ok := announced[proposer]; ok && prev != h {
			equivocators[proposer] = true
			return
		}
		announced[proposer] = h
	}

	note := func(pri sortition.Priority, proposer crypto.PublicKey) {
		if !haveBest || best.Less(pri) {
			best = pri
			bestProposer = proposer
			bestAt = proc.Now()
			haveBest = true
		}
	}

	// Phase 1: collect priorities (block messages may arrive too).
	for proc.Now() < priorityDeadline {
		m, ok := proc.RecvDeadline(inbox, priorityDeadline)
		if !ok {
			break
		}
		a := m.(arrival)
		if a.pri != nil {
			note(a.pri.Priority, a.pri.Proposer)
			noteHash(a.pri.Proposer, a.pri.BlockHash)
		}
		if a.blk != nil {
			noteBlock(blocks, equivocators, a.blk)
			note(a.blk.Priority(), a.blk.Proposer())
			noteHash(a.blk.Proposer(), a.blk.AnnouncedHash())
		}
	}
	if !haveBest {
		return WaitResult{}
	}

	// Phase 2: wait for the winning block.
	for {
		if equivocators[bestProposer] && !keepFirst {
			return WaitResult{Priority: best, Equivocation: true, BestPriorityAt: bestAt}
		}
		if bm, ok := blocks[bestProposer]; ok {
			return WaitResult{Block: bm.Block, BlockHash: bm.AnnouncedHash(), Priority: best, BestPriorityAt: bestAt}
		}
		m, ok := proc.RecvDeadline(inbox, blockDeadline)
		if !ok {
			return WaitResult{Priority: best, BestPriorityAt: bestAt} // timed out: empty block
		}
		a := m.(arrival)
		if a.blk != nil {
			noteBlock(blocks, equivocators, a.blk)
			noteHash(a.blk.Proposer(), a.blk.AnnouncedHash())
		}
		// Late priority messages can still raise the bar.
		if a.pri != nil {
			note(a.pri.Priority, a.pri.Proposer)
			noteHash(a.pri.Proposer, a.pri.BlockHash)
		}
	}
}

// Candidate is one proposer's (non-equivocating) proposal collected by
// WaitAll.
type Candidate struct {
	Block    *ledger.Block
	Hash     crypto.Digest
	Priority sortition.Priority
}

// WaitAll listens for the full proposal window and returns every
// distinct proposer's block received, discarding equivocators (§10.4).
// Recovery (§8.2) uses it to settle on the longest proposed fork
// rather than on the single highest priority: a proposer on a short
// branch cannot know a longer one exists, so the highest priority
// alone may name a proposal that most of the network must reject —
// splitting BA⋆'s inputs between that proposal and the empty value.
func WaitAll(
	proc *vtime.Proc,
	inbox *vtime.Mailbox,
	lambdaBlock time.Duration,
) []Candidate {
	blockDeadline := proc.Now() + lambdaBlock
	blocks := make(map[crypto.PublicKey]*BlockMsg)
	equivocators := make(map[crypto.PublicKey]bool)
	for {
		m, ok := proc.RecvDeadline(inbox, blockDeadline)
		if !ok {
			break
		}
		a := m.(arrival)
		if a.blk != nil {
			noteBlock(blocks, equivocators, a.blk)
		}
	}
	var out []Candidate
	for proposer, bm := range blocks {
		if equivocators[proposer] {
			continue
		}
		out = append(out, Candidate{Block: bm.Block, Hash: bm.AnnouncedHash(), Priority: bm.Priority()})
	}
	return out
}

// noteBlock records a block arrival, flagging equivocation when a
// proposer sends two different blocks for the same round (§10.4: "if a
// user receives two conflicting versions of a block from the highest
// priority block proposer ... he discards both proposals").
func noteBlock(blocks map[crypto.PublicKey]*BlockMsg, equivocators map[crypto.PublicKey]bool, bm *BlockMsg) {
	prev, ok := blocks[bm.Proposer()]
	if ok && prev.AnnouncedHash() != bm.AnnouncedHash() {
		equivocators[bm.Proposer()] = true
		return
	}
	blocks[bm.Proposer()] = bm
}
