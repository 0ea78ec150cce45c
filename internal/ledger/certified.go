package ledger

import (
	"errors"
	"fmt"

	"algorand/internal/crypto"
	"algorand/internal/wire"
)

// This file is the one §8.3 rule for accepting a block this user did
// not agree on itself: the certificate's votes must verify against that
// round's seed, weights and committee size, the block must validate on
// the state so far, and an uncertified block is acceptable only beneath
// a certified descendant. Offline catch-up, node sync and restore, the
// gateway read model and the checkpoint anchor are shells over it (see
// DESIGN.md, "Accepting a block you did not agree on").

const (
	// StepFinal is the wire step of the final confirmation step (§7.4);
	// its committee is disjoint from every ordinary step, and it is the
	// only step a Final certificate may come from.
	StepFinal uint64 = 1 << 20

	// RecoveryRoundBase offsets §8.2 recovery BA⋆ executions into their
	// own round-number space, so their sortition roles and vote buffers
	// never collide with regular rounds. A certificate at or past it
	// proves a recovery adoption rather than a chain round; the offset
	// past the base is checkpoint*1024 + attempt.
	RecoveryRoundBase = uint64(1) << 40
)

// CommitteeParams captures what certificate verification needs to know
// about committee sizing for a step (derive it with
// node.CommitteeParamsFor; DESIGN.md §8.3 subsection has the rule).
type CommitteeParams struct {
	TauStep        uint64
	StepThreshold  uint64
	TauFinal       uint64
	FinalThreshold uint64
	// MaxStep bounds the step number a certificate may claim (0 = no
	// bound). §8.3: an adversary could otherwise search an unbounded
	// number of step numbers for one where it controls the committee
	// by chance; honest certificates never exceed the wire step of
	// BinaryBA⋆'s MaxSteps.
	MaxStep uint64
}

// sizing returns the committee size and vote threshold cert must be
// checked against, refusing step numbers no honest certificate carries:
// a Final certificate comes from StepFinal and nowhere else, a
// tentative one from a step within MaxStep. Without the first rule
// Final would be a way around the second.
func (cp CommitteeParams) sizing(cert *Certificate) (tau, threshold uint64, err error) {
	if cert.Final {
		if cert.Step != StepFinal {
			return 0, 0, fmt.Errorf("ledger: final certificate claims step %d, not the final step", cert.Step)
		}
		return cp.TauFinal, cp.FinalThreshold, nil
	}
	if cp.MaxStep != 0 && cert.Step > cp.MaxStep {
		return 0, 0, fmt.Errorf("ledger: certificate claims step %d beyond bound %d", cert.Step, cp.MaxStep)
	}
	return cp.TauStep, cp.StepThreshold, nil
}

// RecoverySeed derives the sortition seed of one §8.2 recovery attempt
// from its base block and coordinates. The coordinates are wire-encoded
// so the preimage layout is the codec's, not ad hoc.
func RecoverySeed(base *Block, checkpoint, attempt uint64) crypto.Digest {
	var buf [16]byte
	coords := wire.AppendUint64(wire.AppendUint64(buf[:0], checkpoint), attempt)
	return crypto.HashBytes("algorand.recovery.seed", base.Seed[:], coords)
}

// VerifyCertificate checks cert as transferable proof that the network
// committed b, in the context of l's head chain: the certificate is for
// this block and this round, claims a step an honest one can carry, and
// its votes — distinct senders, valid signatures and sortition proofs,
// all extending b's parent — outweigh the threshold of the committee
// drawn from the round's seed and look-back weights. A §8.2 recovery
// certificate is checked against its own self-describing context.
func (l *Ledger) VerifyCertificate(b *Block, cert *Certificate, cp CommitteeParams) error {
	if cert == nil {
		return fmt.Errorf("ledger: round %d has no certificate", b.Round)
	}
	if cert.Value != b.Hash() {
		return fmt.Errorf("ledger: round %d certificate is for a different block", b.Round)
	}
	tau, threshold, err := cp.sizing(cert)
	if err != nil {
		return err
	}
	if cert.Round >= RecoveryRoundBase {
		return l.verifyRecoveryCert(cert, tau, threshold)
	}
	if cert.Round != b.Round {
		return fmt.Errorf("ledger: certificate of round %d offered for round %d", cert.Round, b.Round)
	}
	weights, total := l.SortitionWeights(b.Round)
	return cert.Verify(l.provider, l.SortitionSeed(b.Round), weights, total, tau, threshold, b.PrevHash)
}

// verifyRecoveryCert checks the votes of a §8.2 recovery certificate.
// They name their base block (every vote's PrevHash is the recovery
// context's anchor); the base must be on our canonical chain, and the
// context — seed from the base and the coordinates in the round number,
// stake as of the base — is rebuilt from it.
func (l *Ledger) verifyRecoveryCert(cert *Certificate, tau, threshold uint64) error {
	if len(cert.Votes) == 0 {
		return errors.New("ledger: empty certificate")
	}
	baseHash := cert.Votes[0].PrevHash
	base, ok := l.entries[baseHash]
	if !ok || ancestorAt(l.head, base.block.Round) != base {
		return errors.New("ledger: recovery certificate's base block is not on our chain")
	}
	off := cert.Round - RecoveryRoundBase
	seed := RecoverySeed(base.block, off/1024, off%1024)
	return cert.Verify(l.provider, seed, base.moneyByAccount(), base.balances.Total, tau, threshold, baseHash)
}

// extendHead validates b on the head state and makes it the new head.
// Timestamps are checked for ordering only (now = block time): whoever
// catches up was not present when the block was made.
func (l *Ledger) extendHead(b *Block, cert *Certificate) error {
	if err := l.ValidateBlock(b, b.Timestamp); err != nil {
		return fmt.Errorf("ledger: round %d block invalid: %w", b.Round, err)
	}
	if err := l.Commit(b, cert); err != nil {
		return fmt.Errorf("ledger: round %d commit: %w", b.Round, err)
	}
	// Commit leaves the head alone when it already knew b (a block left
	// on a dead side branch by an earlier run whose anchor failed).
	if l.head.block != b {
		l.setHead(l.entries[b.Hash()])
	}
	return nil
}

// ApplyCertified appends block b to the head chain on the strength of
// cert: certificate verified, block validated on the state so far,
// committed.
func (l *Ledger) ApplyCertified(b *Block, cert *Certificate, cp CommitteeParams) error {
	if err := l.VerifyCertificate(b, cert, cp); err != nil {
		return err
	}
	return l.extendHead(b, cert)
}

// ApplyRun advances the head through a run of blocks and whatever
// certificates came with them (matched to blocks by value), and returns
// the blocks that joined the chain. Blocks that are nil, stale or ahead
// of the head are skipped. A block without a certificate — a §8.2
// recovery adoption has none of its own — is held back and applied only
// beneath a later certified block of the run: the certificate commits
// to that anchor, and the anchor commits to every ancestor through the
// PrevHash chain, so one valid certificate transitively validates the
// prefix. Trailing uncertified blocks are never applied. An error means
// the supplier's data failed verification; the head is then at the last
// anchor that verified.
func (l *Ledger) ApplyRun(blocks []*Block, certs []*Certificate, cp CommitteeParams) (applied []*Block, err error) {
	certOf := make(map[crypto.Digest]*Certificate, len(certs))
	for _, c := range certs {
		if c != nil {
			certOf[c.Value] = c
		}
	}
	var prefix []*Block
	for _, b := range blocks {
		if b == nil || b.Round != l.NextRound()+uint64(len(prefix)) {
			continue
		}
		cert, ok := certOf[b.Hash()]
		if !ok {
			prefix = append(prefix, b)
			continue
		}
		if err := l.applyAnchored(prefix, b, cert, cp); err != nil {
			return applied, err
		}
		applied = append(append(applied, prefix...), b)
		prefix = nil
	}
	return applied, nil
}

// applyAnchored commits an uncertified prefix and the certified anchor
// on top of it. The prefix is committed tentatively, because the anchor
// can only be validated on the state it leaves; if anything fails the
// head is restored and the tentative entries stay behind as a dead side
// branch.
func (l *Ledger) applyAnchored(prefix []*Block, anchor *Block, cert *Certificate, cp CommitteeParams) error {
	old := l.head
	prev := old.hash
	for _, b := range prefix {
		if b.PrevHash != prev {
			return fmt.Errorf("ledger: round %d breaks the hash chain", b.Round)
		}
		prev = b.Hash()
	}
	if anchor.PrevHash != prev {
		return fmt.Errorf("ledger: round %d certified block breaks the hash chain", anchor.Round)
	}
	for _, b := range prefix {
		if err := l.extendHead(b, nil); err != nil {
			l.setHead(old)
			return err
		}
	}
	if err := l.ApplyCertified(anchor, cert, cp); err != nil {
		l.setHead(old)
		return err
	}
	return nil
}

// CatchUp bootstraps a new user (§8.3): given the genesis configuration
// and a chain of blocks with their certificates (a nil entry marks a
// §8.2 recovery adoption, which has none), it validates everything in
// order through ApplyRun and returns a ledger at the resulting head.
// This is exactly what a user joining the system runs, and it requires
// no trust in whoever supplied the blocks. Anything given that did not
// make it onto the chain is an error.
func CatchUp(
	p crypto.Provider,
	cfg Config,
	genesisAccounts map[crypto.PublicKey]uint64,
	seed0 crypto.Digest,
	blocks []*Block,
	certs []*Certificate,
	cp CommitteeParams,
) (*Ledger, error) {
	if len(blocks) != len(certs) {
		return nil, fmt.Errorf("ledger: %d blocks but %d certificates", len(blocks), len(certs))
	}
	for i, c := range certs {
		if c != nil && c.Value != blocks[i].Hash() {
			return nil, fmt.Errorf("ledger: round %d certificate is for a different block", blocks[i].Round)
		}
	}
	l := New(p, cfg, genesisAccounts, seed0)
	applied, err := l.ApplyRun(blocks, certs, cp)
	if err != nil {
		return nil, err
	}
	if len(applied) != len(blocks) {
		return nil, fmt.Errorf("ledger: %d of %d blocks have no certificate to stand on or are out of order",
			len(blocks)-len(applied), len(blocks))
	}
	return l, nil
}
