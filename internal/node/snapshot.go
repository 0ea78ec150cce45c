package node

import (
	"errors"
	"fmt"

	"algorand/internal/ledger"
	"algorand/internal/network"
)

// This file implements checkpointed fast sync: nodes write periodic
// state checkpoints (block header + certificate + full account table),
// serve them to peers on request, and a restarting or joining node
// re-bases its ledger onto a verified checkpoint and replays only the
// delta through regular §8.3 catch-up — O(delta) recovery instead of
// O(chain).

// MisbehaviorReporter is optionally implemented by transports that
// score peer misbehavior (internal/realnet does): a peer that serves a
// snapshot failing verification is reported, feeding the transport's
// quarantine machinery.
type MisbehaviorReporter interface {
	ReportMisbehavior(peer int, reason string)
}

// maybeCheckpoint writes a state checkpoint when a commit lands on the
// checkpoint grid: every persisted round whose number is a positive
// multiple of CheckpointInterval, certified by a regular final
// certificate. A tentative round is skipped (§8.2 may abandon it), as
// is a recovery-certified one (its proof needs chain context a
// fast-syncing node does not have yet).
func (n *Node) maybeCheckpoint(b *ledger.Block, c *ledger.Certificate) {
	interval := n.cfg.CheckpointInterval
	if interval == 0 || b.Round == 0 || b.Round%interval != 0 {
		return
	}
	// b was just committed, so the ledger has its hash at that round.
	if h, ok := n.ledger.HashAt(b.Round); !ok || c == nil || !c.Final || c.Value != h || c.Round >= ledger.RecoveryRoundBase {
		return
	}
	if n.checkpoint != nil && n.checkpoint.Round() >= b.Round {
		return
	}
	bal, ok := n.ledger.BalancesAt(c.Value)
	if !ok {
		return
	}
	cp := ledger.CheckpointOf(b, c, bal)
	n.checkpoint = cp
	if n.archive != nil {
		if err := n.archive.AppendCheckpoint(cp); err != nil {
			n.persistErrors.Inc()
		}
	}
}

// Checkpoint returns the newest state snapshot this node holds, if any.
func (n *Node) Checkpoint() (*ledger.Checkpoint, bool) {
	return n.checkpoint, n.checkpoint != nil
}

// handleSnapshotRequest serves this node's newest checkpoint to the
// fast-syncing peer that sent the request, if it is newer than what the
// requester already has.
func (n *Node) handleSnapshotRequest(from int, msg *SnapshotRequest) network.Verdict {
	if n.checkpoint != nil && n.checkpoint.Round() > msg.MinRound {
		n.net.Unicast(n.ID, from, &SnapshotReply{Checkpoint: n.checkpoint})
	}
	return network.Verdict{Relay: false}
}

// ErrTentativeCheckpoint refuses a checkpoint whose certificate is not final.
var ErrTentativeCheckpoint = errors.New("snapshot: checkpoint certificate is tentative, not final")

// VerifyCheckpoint checks a checkpoint as transferable proof that the
// network committed its block for good, using only common knowledge:
// the genesis state held by base. Structural integrity first, then that
// the certificate is final, then the certificate itself, by the one
// §8.3 rule, against the committee genesis derives for that round.
// Returns an error when the proof fails OR when base lacks the sortition
// context to judge it — a checkpoint past the first seed-refresh epoch
// needs chain history genesis alone cannot supply, and an unverifiable
// snapshot is treated exactly like a forged one: refused.
func VerifyCheckpoint(base *ledger.Ledger, chk *ledger.Checkpoint, cp ledger.CommitteeParams) error {
	if _, err := chk.VerifyState(); err != nil {
		return err
	}
	c, b := chk.Cert, chk.Block
	if !c.Final {
		return fmt.Errorf("round %d: %w", b.Round, ErrTentativeCheckpoint)
	}
	if c.Round >= ledger.RecoveryRoundBase {
		return fmt.Errorf("snapshot: round %d carries a recovery certificate, not syncable without chain context", b.Round)
	}
	if !base.SortitionContextKnown(b.Round) || !base.SortitionContextKnown(b.Round+1) {
		return fmt.Errorf("snapshot: round %d is past the genesis seed epoch, context unavailable", b.Round)
	}
	return base.VerifyCertificate(b, c, cp)
}

// adoptCheckpoint re-bases the node's ledger onto a checkpoint that
// has already been verified. The old ledger (and anything tentative on
// it) is discarded; the anchor is final by its certificate.
func (n *Node) adoptCheckpoint(chk *ledger.Checkpoint) error {
	l, err := ledger.NewFromCheckpoint(n.provider, n.cfg.LedgerCfg, n.genesis, chk)
	if err != nil {
		return err
	}
	n.ledger = l
	if n.checkpoint == nil || chk.Round() > n.checkpoint.Round() {
		n.checkpoint = chk
	}
	n.persist(chk.Block, chk.Cert)
	if n.archive != nil {
		if err := n.archive.AppendCheckpoint(chk); err != nil {
			n.persistErrors.Inc()
		}
	}
	return nil
}

// RestoreFromCheckpoint re-bases the node's ledger onto a checkpoint —
// recovered from its own archive or served by a peer, the two are
// trusted alike: not at all. Verification context is pure common
// knowledge, a fresh genesis ledger, so a hostile checkpoint cannot lean
// on any state it shipped us. A failure is counted in
// algorand_node_snapshot_rejects_total and leaves the ledger untouched
// (the caller falls back to replaying blocks). Adopts only a checkpoint
// that advances the chain.
func (n *Node) RestoreFromCheckpoint(chk *ledger.Checkpoint) (bool, error) {
	if chk == nil || chk.Round() <= n.ledger.ChainLength() {
		return false, nil
	}
	base := ledger.NewFromGenesis(n.provider, n.cfg.LedgerCfg, n.genesis)
	err := VerifyCheckpoint(base, chk, n.committeeParams())
	if err == nil {
		err = n.adoptCheckpoint(chk)
	}
	if err != nil {
		n.reg.Counter("algorand_node_snapshot_rejects_total", "checkpoints, from disk or a peer, that failed verification").Inc()
		return false, err
	}
	return true, nil
}
