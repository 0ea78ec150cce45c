package node

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"algorand/internal/agreement"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/metrics"
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
	if max <= 0 || max > maxChainBlocks {
		max = maxChainBlocks
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

// ChainAsk is the number of blocks a node or a gateway running protocol
// p asks a peer for in one chain ask (chainAskBlocks).
func ChainAsk(p params.Params) int { return chainAskBlocks(roundWireTime(p)) }

// roundWireTime is how long a round's block takes on §10's link, at
// least 1 ns (a BlockSize of 0 or less). Its certificate is left out:
// with it, chaos swarm seeds 1051 and 1123 turn red (ROADMAP item 21).
func roundWireTime(p params.Params) time.Duration {
	return max(time.Duration(8*int64(p.BlockSize))*time.Second/network.PaperLinkBps, 1)
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
// block is archived as its round's, with the certificate the ledger
// holds for it if any, and passes the same post-commit hook as a block
// of a live round. b is on the head chain.
func (n *Node) joined(b *ledger.Block) {
	cert, _ := n.ledger.CertificateAt(b.Round)
	n.persist(b, cert)
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
	// joined archives the adopted branch over the abandoned one: a
	// restart replays the canonical chain, not the fork.
	for _, b := range applied {
		n.joined(b)
	}
	n.reg.Counter("algorand_node_fork_adoptions_total", "tentative suffixes abandoned for a longer certified chain served by peers").Inc()
	return true
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
// RestoreFromArchive first). The network stages are the catch-up
// machine's rejoin start state (machine.go), run in the node's process;
// budget bounds them.
func (n *Node) Rejoin(budget time.Duration) (restored uint64, err error) {
	if n.archive != nil {
		if chk, ok := n.archive.Checkpoint(); ok {
			n.enter(stageOwnCheckpoint)
			n.RestoreFromCheckpoint(chk) // a rejected checkpoint is counted, and replay covers for it
		}
		n.enter(stageOwnArchive)
		if restored, err = n.RestoreFromArchive(n.archive.Recovered()); err != nil {
			return restored, err
		}
	}
	n.launch(fmt.Sprintf("node-%d-rejoin", n.ID), func(*vtime.Proc) {
		n.run(n.catchup.Rejoin(n.observe(), budget))
	})
	return restored, nil
}

// observe is the view the catch-up machine gets with an input, and tells
// it first if the node has halted.
func (n *Node) observe() view {
	if n.halted {
		n.catchup.Halt()
	}
	return view{
		now:     n.sim.Now(),
		head:    n.ledger.ChainLength(),
		final:   n.ledger.LastFinal().Round,
		peers:   n.net.Neighbors(n.ID),
		stopped: n.sim.Stopped(),
		done:    n.StopAfterRound > 0 && n.ledger.NextRound() > n.StopAfterRound,
		budget:  n.roundBudget(),
	}
}

// run is the catch-up machine's driver and the node's one process: it
// carries out acts, the actions of the machine's start state, and every
// list after them, handing the machine what came of each, until it says
// stop. The node waits for chain and snapshot replies here and nowhere
// else.
func (n *Node) run(acts []cuAct) {
	p, m, cs := n.proc, &n.catchup, &n.cus
	var reply *ChainReply
	peer, applied := 0, 0
	for {
		n.enter(m.stage)
		cs.behind.Set(int64(cs.seen - min(cs.seen, n.ledger.ChainLength())))
		a := acts[len(acts)-1]
		for _, ask := range acts[:len(acts)-1] {
			peer = ask.Peer
			if ask.Kind == cuAskSnapshot {
				n.asked.File(peer, TagSnapshotReply)
				n.net.Unicast(n.ID, peer, &SnapshotRequest{MinRound: ask.Round})
			} else {
				n.asked.File(peer, TagChainReply)
				n.net.Unicast(n.ID, peer, &ChainRequest{FromRound: ask.Round, MaxBlocks: ask.Blocks})
			}
		}
		switch a.Kind {
		case cuWait:
			box := n.chainReplies
			if acts[0].Kind == cuAskSnapshot {
				box = n.snapReplies
			}
			// A reply already queued was taken after the wait that asked for
			// it ended: it answers this ask late.
			late := box.Len() > 0
			got, ok := p.RecvDeadline(box, a.At)
			if !ok {
				cs.timedOut.Inc()
				acts = m.Elapsed(n.observe())
				break
			}
			if late {
				cs.late.Inc()
			} else {
				cs.answered.Inc()
			}
			if box == n.snapReplies {
				// Verified exactly like a checkpoint from our own disk.
				sr := got.(*SnapshotReply)
				adopted, err := n.RestoreFromCheckpoint(sr.Checkpoint)
				if mr, ok := n.net.(MisbehaviorReporter); ok && err != nil {
					mr.ReportMisbehavior(peer, "snapshot failed verification")
				}
				if adopted {
					n.reg.Counter("algorand_node_snapshot_syncs_total", "fast syncs onto a verified peer-served checkpoint").Inc()
				}
				cs.reply(sr.WireSize(), adopted)
				acts = m.SnapshotReply(n.observe(), adopted)
				break
			}
			reply = got.(*ChainReply)
			var err error
			applied, err = n.applyChainReply(reply)
			for _, c := range reply.Certs {
				if c.Round < ledger.RecoveryRoundBase {
					cs.seen = max(cs.seen, c.Round)
				}
			}
			if err == nil {
				cs.reply(reply.WireSize(), applied > 0)
			}
			acts = m.ChainReply(n.observe(), applied, err != nil)
		case cuAdoptFork:
			ok := n.tryAdoptFork(reply)
			cs.reply(reply.WireSize(), ok || applied > 0)
			acts = m.Adopted(n.observe(), ok)
		case cuSleep:
			if a.Checkpoint {
				cs.sleeps.ObserveDuration(a.At - p.Now())
			}
			p.Sleep(a.At - p.Now())
			acts = m.Elapsed(n.observe())
		case cuRecover:
			if !a.IfForked || n.alienVotes > 0 || n.liveFork() {
				n.recover()
			}
			acts = m.Recovered(n.observe())
		case cuLive:
			if a.Retry {
				cs.retries.Inc()
			}
			if n.runRound() != nil {
				acts = m.RoundFailed(n.observe())
			} else {
				acts = m.RoundDone(n.observe())
			}
		case cuStop:
			return
		}
	}
}

// The catch-up series' labelled names, rendered once (see voteChecksName).
var (
	requestsAnsweredName = metrics.Name("algorand_node_catchup_requests_total", "outcome", "answered")
	requestsTimedOutName = metrics.Name("algorand_node_catchup_requests_total", "outcome", "timed_out")
	requestsLateName     = metrics.Name("algorand_node_catchup_requests_total", "outcome", "late")
	replyBytesUsedName   = metrics.Name("algorand_node_catchup_reply_bytes_total", "applied", "true")
	replyBytesIdleName   = metrics.Name("algorand_node_catchup_reply_bytes_total", "applied", "false")
)

// catchupSeries is what the catch-up machine's transitions show of why a
// node is behind and what catching up cost it; run sets each series
// where the machine changes state.
type catchupSeries struct {
	stage   *metrics.Gauge
	entered atomic.Int64 // when the stage was entered, on the node's clock
	// Chain and snapshot asks by how their wait ended: a reply came in
	// it, none came, or one was already queued, taken after the wait for
	// it had ended. Together they are the asks the node made.
	answered, timedOut, late *metrics.Counter
	// Reply bytes that moved the head, and reply bytes that did not.
	used, idle *metrics.Counter
	retries    *metrics.Counter
	sleeps     *metrics.Histogram
	// behind is seen minus the head. seen is the highest round a chain
	// reply carried a certificate for: what a peer claims, verified only
	// once the chain beneath it is, since a certificate is checked against
	// the committee its own chain selects.
	behind *metrics.Gauge
	seen   uint64
}

func (cs *catchupSeries) register(reg *metrics.Registry) {
	cs.stage = reg.Gauge("algorand_node_catchup_stage", "bring-up stage: 1 own checkpoint, 2 own archive, 3 peer snapshot, 4 peer chain, 5 live")
	reg.GaugeFunc("algorand_node_catchup_stage_entered_seconds", "when the node entered its bring-up stage, on its clock",
		func() float64 { return time.Duration(cs.entered.Load()).Seconds() })
	const asks = "chain and snapshot requests by how their wait ended (late: a reply taken after its own wait ended)"
	cs.answered = reg.Counter(requestsAnsweredName, asks)
	cs.timedOut = reg.Counter(requestsTimedOutName, asks)
	cs.late = reg.Counter(requestsLateName, asks)
	const bytes = "chain and snapshot reply bytes, by whether applying the reply moved the head"
	cs.used = reg.Counter(replyBytesUsedName, bytes)
	cs.idle = reg.Counter(replyBytesIdleName, bytes)
	cs.retries = reg.Counter("algorand_node_catchup_round_retries_total", "live rounds started after one failed")
	cs.sleeps = reg.Histogram("algorand_node_catchup_checkpoint_sleep_seconds", "sleeps to a recovery checkpoint", []float64{10, 60, 300, 1800, 3600})
	cs.behind = reg.Gauge("algorand_node_catchup_rounds_behind", "the highest round a chain reply carried a certificate for, minus the head")
}

// CatchupSeries returns the node's catch-up series as they stand: every
// series of its registry named algorand_node_catchup_*.
func (n *Node) CatchupSeries() metrics.Snapshot {
	out := metrics.Snapshot{}
	for name, v := range n.reg.Snapshot() {
		if strings.HasPrefix(name, "algorand_node_catchup_") {
			out[name] = v
		}
	}
	return out
}

// reply counts a reply's bytes by whether applying it moved the head.
func (cs *catchupSeries) reply(size int, used bool) {
	if used {
		cs.used.Add(uint64(size))
	} else {
		cs.idle.Add(uint64(size))
	}
}

// enter records the stage the node is in, and when it entered it.
func (n *Node) enter(s stage) {
	if int64(s) != n.cus.stage.Load() {
		n.cus.stage.Set(int64(s))
		n.cus.entered.Store(int64(n.sim.Now()))
	}
}
