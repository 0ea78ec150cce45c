package node

import (
	"fmt"
	"slices"
	"time"

	"algorand/internal/agreement"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/params"
	"algorand/internal/vtime"
)

// This file implements the networked side of §8.3 bootstrapping: a
// node serves its archive to peers (ChainRequest → ChainReply), and a
// fresh node can synchronize its ledger from the network, validating
// every block against its certificate as it goes — the same trustless
// validation ledger.CatchUp performs offline.

// maxAsked bounds the requests a Requests table remembers.
const maxAsked = 64

// replyWait is how long a catch-up loop waits for a chain or snapshot
// reply before it asks the next peer.
const replyWait = 2 * time.Second

// Requests is the one rule for taking a ChainReply or SnapshotReply, a
// node's and a gateway's: once per request filed to the peer it came
// from. Anything else is dropped unread, so no peer can make its receiver
// queue or verify what it did not ask for. The zero value is empty.
type Requests struct{ out []filed } // oldest first, at most maxAsked

// filed is one request out: the peer asked and the tag of its reply.
type filed struct {
	peer int
	tag  byte
}

// File records a request to peer answered by a reply tagged tag. The
// oldest is forgotten once maxAsked are out; a late reply, to a request
// its loop has stopped waiting for, counts until then.
func (r *Requests) File(peer int, tag byte) {
	if len(r.out) == maxAsked {
		r.out = slices.Delete(r.out, 0, 1)
	}
	r.out = append(r.out, filed{peer, tag})
}

// Take reports whether a reply tagged tag from peer answers a filed
// request, and forgets the oldest such request if it does. Which request
// it answers is not asked: a chain or a checkpoint proves itself (§8.3).
func (r *Requests) Take(peer int, tag byte) bool {
	i := slices.Index(r.out, filed{peer, tag})
	if i >= 0 {
		r.out = slices.Delete(r.out, i, i+1)
	}
	return i >= 0
}

// handleChainRequest serves up to MaxBlocks consecutive archived rounds
// to the peer that sent the request; a request has no field that could
// name anybody else.
func (n *Node) handleChainRequest(from int, msg *ChainRequest) network.Verdict {
	max := msg.MaxBlocks
	if max <= 0 || max > 64 {
		max = 64
	}
	// Serve the canonical chain, not the raw archive: after §8.2
	// recovery the archive may still hold an abandoned fork's block for
	// an adopted round. Blocks without a certificate of their own
	// (recovery adoptions) are included only up to the last certified
	// block — beyond that the receiver could not validate them.
	var blocks []*ledger.Block
	var certs []*ledger.Certificate
	servable := 0
	for r := msg.FromRound; r < msg.FromRound+uint64(max); r++ {
		b, ok := n.ledger.BlockAt(r)
		if !ok {
			break
		}
		blocks = append(blocks, b)
		if c, ok := n.ledger.CertificateAt(r); ok {
			certs = append(certs, c)
			servable = len(blocks)
		}
	}
	if servable > 0 {
		n.net.Unicast(n.ID, from, &ChainReply{Blocks: blocks[:servable], Certs: certs})
	}
	return network.Verdict{Relay: false}
}

// CommitteeParamsFor derives the certificate-verification
// configuration from protocol parameters — the same derivation for
// every verifier of the chain, consensus node or access gateway.
func CommitteeParamsFor(p params.Params) ledger.CommitteeParams {
	return ledger.CommitteeParams{
		TauStep:        p.TauStep,
		StepThreshold:  p.StepThreshold(),
		TauFinal:       p.TauFinal,
		FinalThreshold: p.FinalThreshold(),
		MaxStep:        agreement.WireStepOfBinary(p.MaxSteps),
	}
}

// committeeParams derives the certificate-verification configuration
// from the node's protocol parameters.
func (n *Node) committeeParams() ledger.CommitteeParams {
	return CommitteeParamsFor(n.cfg.Params)
}

// joined is the node's share of accepting a block it did not agree on
// itself (the §8.3 rule lives in ledger.ApplyCertified/ApplyRun): the
// block is archived — with its certificate, or as the canonical block of
// its round when it stands on a descendant's — and passes the same
// post-commit hook as a block of a live round. b is on the head chain.
func (n *Node) joined(b *ledger.Block) {
	if cert, ok := n.ledger.CertificateAt(b.Round); ok {
		n.persistPut(b, cert)
	} else {
		n.persistReconcile(b, nil)
	}
	n.flow.Committed(b, n.ledger.Balances())
}

// applyChainReply advances the head through a reply's blocks, returning
// how many rounds it advanced.
func (n *Node) applyChainReply(reply *ChainReply) (int, error) {
	applied, err := n.ledger.ApplyRun(reply.Blocks, reply.Certs, n.committeeParams())
	for _, b := range applied {
		n.joined(b)
	}
	if err != nil {
		return len(applied), fmt.Errorf("catchup: %w", err)
	}
	return len(applied), nil
}

// RestoreFromArchive replays a crashed node's archive (§8.3) into this
// node's ledger, validating every block against its certificate exactly
// as network catch-up does — the restarting node trusts its disk no more
// than it trusts a peer. Replay stops at the first round whose block or
// certificate is missing from the archive (recovery-adopted blocks are
// committed without certificates, so gaps are legitimate); the remainder
// is fetched from peers. Returns the number of rounds restored.
func (n *Node) RestoreFromArchive(src *ledger.Store) (uint64, error) {
	var restored uint64
	for {
		r := n.ledger.NextRound()
		b, ok := src.Block(r)
		if !ok {
			return restored, nil
		}
		c, ok := src.Cert(r)
		if !ok {
			return restored, nil
		}
		if err := n.ledger.ApplyCertified(b, c, n.committeeParams()); err != nil {
			return restored, fmt.Errorf("restore: %w", err)
		}
		n.joined(b)
		restored++
	}
}

// syncFromPeersUntil catches the node's ledger up to the network
// (§8.3): it repeatedly asks peers for the next run of
// blocks+certificates and validates them on top of the current head,
// stopping when no peer has more or the deadline passes. It must run in
// the node's process; Rejoin is the bring-up sequence built on it.
//
// Snapshot first: a node whose ledger is still at genesis, in a
// deployment that writes checkpoints, asks peers for a snapshot before
// it asks for the chain, so what follows replays the delta past the
// checkpoint instead of the whole history. A node that holds any round
// sends no request. The attempt does not eat into the deadline.
func (n *Node) syncFromPeersUntil(deadline time.Duration) error {
	p := n.proc
	peers := n.net.Neighbors(n.ID)
	if len(peers) == 0 {
		return fmt.Errorf("catchup: no peers")
	}
	if n.cfg.CheckpointInterval > 0 && n.ledger.ChainLength() == 0 {
		start := p.Now()
		n.trySnapshotSync(peers)
		deadline += p.Now() - start
	}
	peerIdx := 0
	stalls := 0
	probedFork := false
	fromOverride := uint64(0)
	for p.Now() < deadline && stalls < 2*len(peers) && !n.halted {
		peer := peers[peerIdx%len(peers)]
		req := &ChainRequest{FromRound: n.ledger.NextRound(), MaxBlocks: 32}
		if fromOverride > 0 {
			req.FromRound = fromOverride
			fromOverride = 0
		}
		n.asked.File(peer, TagChainReply)
		n.net.Unicast(n.ID, peer, req)
		peerIdx++

		m, ok := p.RecvTimeout(n.chainReplies, replyWait)
		if !ok {
			stalls++
			continue
		}
		reply := m.(*ChainReply)
		applied, err := n.applyChainReply(reply)
		if err != nil {
			// The peer's chain conflicts with ours below our head: we may
			// hold the losing side of a tentative fork (§8.2). Try to adopt
			// the peer's branch on the strength of its certificates.
			if n.tryAdoptFork(reply) {
				stalls = 0
				continue
			}
			// The divergence may start below the reply's first round, in
			// which case the reply never shows us the fork point. Re-request
			// once from just past our last final block — the earliest round
			// a fork can live at — so the next reply spans the divergence.
			if !probedFork {
				probedFork = true
				fromOverride = n.ledger.LastFinal().Round + 1
				continue
			}
			return err
		}
		if applied == 0 {
			stalls++
		} else {
			stalls = 0
		}
	}
	return nil
}

// tryAdoptFork reconciles this node onto a strictly longer certified
// chain served by a peer whose blocks conflict with our own tentative
// suffix. A node that committed the losing side of a tentative fork —
// say it crossed a step threshold for the empty block while the rest of
// the network certified a proposal one step later — is wedged: its own
// rounds extend a branch nobody else builds on, catch-up refuses the
// conflicting peer data, and it cannot finish §8.2 recovery alone,
// because a minority never reaches the recovery vote threshold against
// a healthy majority that skips its checkpoints. The §8.3 certificate
// chain is the transferable proof that frees it: verify the competing
// branch from the fork point exactly as regular catch-up would, and
// switch to it iff it is certified strictly past our head and abandons
// no final block. Finality is forever — a conflicting *final* block is
// a safety violation to surface, never to paper over by switching.
func (n *Node) tryAdoptFork(reply *ChainReply) bool {
	// Locate the divergence: the first reply block at a round we also
	// have, carrying a different block.
	var fork *ledger.Block
	idx := -1
	for i, b := range reply.Blocks {
		ours, ok := n.ledger.HashAt(b.Round)
		if !ok {
			break // past our head: no same-round conflict in this reply
		}
		if ours != b.Hash() {
			fork, idx = b, i
			break
		}
	}
	if fork == nil {
		return false
	}
	// The competing branch must graft onto our canonical chain…
	parent, ok := n.ledger.HashAt(fork.Round - 1)
	if !ok || parent != fork.PrevHash {
		return false
	}
	// …must not abandon finalized history…
	if n.ledger.LastFinal().Round >= fork.Round {
		return false
	}
	// …and must be certified strictly past our head, so the switch is
	// backed by proof of a longer chain rather than taste.
	certified := make(map[crypto.Digest]bool, len(reply.Certs))
	for _, c := range reply.Certs {
		certified[c.Value] = true
	}
	certifiedTo := uint64(0)
	for _, b := range reply.Blocks[idx:] {
		if certified[b.Hash()] {
			certifiedTo = b.Round
		}
	}
	prevLen := n.ledger.ChainLength()
	if certifiedTo <= prevLen {
		return false
	}
	// Replay regular catch-up from the fork parent: every certificate is
	// verified on the competing branch before the switch sticks, and any
	// failure restores the original head. Our abandoned blocks stay in
	// the ledger as a dead side branch, like a lost recovery fork.
	prevHead := n.ledger.HeadHash()
	if n.ledger.SwitchHead(parent) != nil {
		return false
	}
	applied, err := n.ledger.ApplyRun(reply.Blocks[idx:], reply.Certs, n.committeeParams())
	if err != nil || n.ledger.ChainLength() <= prevLen {
		n.ledger.SwitchHead(prevHead)
		return false
	}
	for _, b := range applied {
		n.joined(b)
		// Force the archives onto the adopted branch, as §8.2 repair does
		// (a plain put keeps the block it already holds for a round): a
		// restart must replay the canonical chain, not the abandoned fork.
		cert, _ := n.ledger.CertificateAt(b.Round)
		n.persistReconcile(b, cert)
	}
	n.ForkAdoptions++
	return true
}

// trySyncBehind probes peers for committed rounds we are missing, in
// short bounded bites so a genuinely stalled network (nobody has more
// blocks than we do) costs only ~10 virtual seconds before the caller
// falls through to §8.2 recovery. Returns whether the chain advanced.
func (n *Node) trySyncBehind() bool {
	before := n.ledger.ChainLength()
	for !n.halted {
		prev := n.ledger.ChainLength()
		if err := n.syncFromPeersUntil(n.proc.Now() + 10*time.Second); err != nil {
			// Peer data conflicts with our chain and the sync loop's fork
			// adoption could not resolve it (not longer, or final blocks
			// diverge): leave it to §8.2 recovery.
			break
		}
		if n.ledger.ChainLength() == prev {
			break
		}
	}
	return n.ledger.ChainLength() > before
}

// Rejoin brings up a node that is not starting in lockstep at genesis —
// a restarted process or a late joiner — through the one §8.3 recipe,
// each stage validating blocks against certificates on top of what the
// previous stage left:
//
//	own checkpoint → own archive → peer snapshot → peer chain → live loop
//
// The two local stages run before Rejoin returns, when the node has a
// durable archive (Config.Archive): its newest checkpoint is re-based
// onto if it verifies, then the chain it recovered is replayed on top;
// restored counts those rounds. The disk is trusted no more than a peer:
// an archive that fails validation is the returned error, and the node
// is not started. A node without an archive starts from what its ledger
// holds (a caller may have replayed a chain into it with
// RestoreFromArchive first).
//
// The network stages run in the node's main process: sync from peers
// (snapshot first if nothing was restored, see syncFromPeersUntil),
// attempt a live round, and if that round fails — the network moved on
// while we synced — re-sync and try again instead of invoking §8.2 fork
// recovery (a node that is merely behind is not forked). Once a round
// completes the node is in the regular loop. budget bounds this phase; a
// cycle that syncs nothing AND fails its round ends it early: peers have
// nothing servable beyond our head, so either the whole network is
// stalled or we are forked from it, and both are the main loop's job.
func (n *Node) Rejoin(budget time.Duration) (restored uint64, err error) {
	if n.archive != nil {
		if chk, ok := n.archive.Checkpoint(); ok {
			n.RestoreFromCheckpoint(chk) // a rejected checkpoint is counted, and replay covers for it
		}
		if restored, err = n.RestoreFromArchive(n.archive.Recovered()); err != nil {
			return restored, err
		}
	}
	n.launch(fmt.Sprintf("node-%d-rejoin", n.ID), func(p *vtime.Proc) {
		deadline := p.Now() + budget
		for !n.sim.Stopped() && !n.halted {
			before := n.ledger.ChainLength()
			if err := n.syncFromPeersUntil(deadline); err != nil {
				return // inconsistent peer data; give up rather than diverge
			}
			if n.StopAfterRound > 0 && n.ledger.NextRound() > n.StopAfterRound {
				return
			}
			if err := n.runRound(); err == nil {
				break // back in lockstep with the network
			}
			if p.Now() >= deadline || n.ledger.ChainLength() == before {
				break
			}
		}
		n.run()
	})
	return restored, nil
}
