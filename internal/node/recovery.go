package node

import (
	"time"

	"algorand/internal/agreement"
	"algorand/internal/blockprop"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/sortition"
)

// maxRecoveryAttempts bounds consecutive failed recovery BA⋆ tries.
const maxRecoveryAttempts = 8

// recover runs the §8.2 fork-recovery protocol: propose the longest
// fork (as an empty block extending its tip) via sortition with a
// dedicated role, agree on one proposal with BA⋆ using seed and weights
// from before the fork, then switch every user onto the winning chain.
//
// The paper takes the pre-fork context from the next-to-last b-long
// period using block timestamps; we use the last *final* block, which
// is fork-free by construction and common to all users — the same
// property the paper's quantization is after, available exactly in a
// deterministic simulation.
func (n *Node) recover() {
	// Recovery starts from the last final block, which every user must
	// read alike: the final steps still counting end first.
	n.awaitFinals()
	ri := n.cfg.RecoveryInterval
	checkpoint := uint64(n.proc.Now() / ri)
	// Recovery only works when the whole network attends the same
	// checkpoint (§8.2 runs at predetermined times on loosely
	// synchronized clocks): a minority-side recovery can never reach the
	// vote threshold. So never let the attempt sequence spill past this
	// window — stop early enough to retry one regular round and still
	// make the next checkpoint, or two wedged partitions end up
	// attending alternating checkpoints forever.
	windowEnd := time.Duration(checkpoint+1)*ri - n.roundBudget()
	// Re-align before resuming regular rounds. Nodes leave the attempt
	// loop at different times (winners after k attempts, losers at the
	// window bound), and a regular round needs most of the committee
	// running it *concurrently* to reach quorum — staggered retries fail
	// one by one forever. windowEnd is on the shared checkpoint grid, so
	// sleeping to it puts every recovering node's retry round in lockstep
	// with exactly one round budget left before the next checkpoint.
	defer func() {
		n.alienVotes = 0
		if d := windowEnd - n.proc.Now(); d > 0 && !n.halted {
			n.proc.Sleep(d)
		}
	}()
	for attempt := 0; attempt < maxRecoveryAttempts; attempt++ {
		// A failed attempt takes up to one round budget, so gate on the
		// attempt *finishing* by windowEnd — an attempt that merely starts
		// before the bound overruns it, pushes the retry round across the
		// next checkpoint, and takes this node off the grid for a whole
		// extra window.
		if n.halted || attempt > 0 && n.proc.Now()+n.roundBudget() > windowEnd {
			break
		}
		if n.recoverOnce(checkpoint, uint64(attempt)) {
			n.reg.Counter("algorand_node_recoveries_total", "completed §8.2 fork recoveries").Inc()
			return
		}
	}
	// Give up until the next checkpoint; regular rounds may still work
	// for us even if stragglers remain.
}

// roundBudget is an upper bound on one round (or recovery attempt)
// worst-case duration: the proposal wait plus every BA⋆ step timing
// out, with slack for the reduction and final steps.
func (n *Node) roundBudget() time.Duration {
	p := n.cfg.Params
	return p.LambdaPriority + p.LambdaStepVar + p.LambdaBlock +
		time.Duration(p.MaxSteps+2)*(p.LambdaStep+p.LambdaStepVar)
}

// recoveryContext derives the BA⋆ context for one recovery attempt.
// Everything in it comes from the last final block — which is fork-free
// and common to all honest users — plus the checkpoint/attempt
// coordinates, so the context is *self-describing*: any node can
// rebuild it from a recovery round number alone and verify, buffer, and
// relay that attempt's proposals without being in recovery itself.
// (Nodes drift in and out of attempts at different times; if only nodes
// currently inside an attempt relayed its messages, the fork proposal
// would die within a hop of its proposer.)
//
// Fresh proposers and committees per attempt: hash the seed each time
// (§8.2, ledger.RecoverySeed).
func (n *Node) recoveryContext(checkpoint, attempt uint64) *agreement.Context {
	base, baseHash := n.ledger.LastFinal(), n.ledger.LastFinalHash()
	weights, total, ok := n.ledger.WeightsAt(baseHash)
	if !ok {
		return nil
	}
	seed := ledger.RecoverySeed(base, checkpoint, attempt)
	return &agreement.Context{
		Round:         ledger.RecoveryRoundBase + checkpoint*1024 + attempt,
		Seed:          seed,
		Weights:       weights,
		TotalWeight:   total,
		LastBlockHash: baseHash,
		EmptyHash:     crypto.HashBytes("algorand.recovery.empty", seed[:], baseHash[:]),
	}
}

// recoveryCtxForRound rebuilds the context a recovery-round message
// belongs to; the coordinates are encoded in the round number. Only an
// attempt recover could be running is one: of this checkpoint or the one
// before, on the clock recover reads, and below maxRecoveryAttempts.
// Anything else would let a stakeholder search coordinates offline until
// sortition picks it, and have every node verify, relay and keep each hit.
func (n *Node) recoveryCtxForRound(round uint64) *agreement.Context {
	if round < ledger.RecoveryRoundBase {
		return nil
	}
	off := round - ledger.RecoveryRoundBase
	checkpoint, attempt := off/1024, off%1024
	now := uint64(n.sim.Now() / n.cfg.RecoveryInterval)
	if checkpoint > now || checkpoint+1 < now || attempt >= maxRecoveryAttempts {
		return nil
	}
	return n.recoveryContext(checkpoint, attempt)
}

// recoverOnce runs one recovery BA⋆ attempt; it reports success.
func (n *Node) recoverOnce(checkpoint, attempt uint64) bool {
	ctx := n.recoveryContext(checkpoint, attempt)
	if ctx == nil {
		return false
	}
	recRound := ctx.Round
	seed := ctx.Seed
	n.setContext(ctx)
	defer n.setContext(nil)

	// Propose the longest fork we know: an empty block extending its tip.
	tips := n.ledger.ForkTips()
	longest := tips[0].Block
	proposal := ledger.EmptyBlock(longest.Round+1, tips[0].Hash, longest.Seed, longest.StateRoot)
	w := ctx.Weights[n.identity.PublicKey()]
	if prop := blockprop.Propose(n.identity, sortition.RoleForkProposer, seed, recRound,
		n.cfg.Params.TauProposer, w, ctx.TotalWeight, proposal); prop != nil {
		n.ledger.RegisterProposal(proposal, prop.Block.AnnouncedHash())
		n.net.Gossip(n.ID, &PriorityGossip{M: prop.Priority})
		n.net.Gossip(n.ID, n.HoldProposal(&prop.Block))
		n.propInbox(recRound).Send(blockprop.NewArrivalPriority(&prop.Priority))
		n.propInbox(recRound).Send(blockprop.NewArrivalBlock(&prop.Block))
	}

	cands := blockprop.WaitAll(n.proc, n.propInbox(recRound),
		n.cfg.Params.LambdaPriority+n.cfg.Params.LambdaStepVar+n.cfg.Params.LambdaBlock)

	// Validate the §8.2 way: a proposed fork is acceptable if it is at
	// least as long as the longest chain we have seen. Among acceptable
	// proposals prefer the longest fork, then the highest priority —
	// NOT priority alone: a proposer on a short branch cannot know a
	// longer branch exists, and nodes on the long branch must reject
	// its proposal, so following raw priority splits the committee's
	// inputs between that proposal and the empty value.
	value := ctx.EmptyHash
	var best *blockprop.Candidate
	for i := range cands {
		c := &cands[i]
		if c.Block.Round < longest.Round+1 || !c.Block.IsEmpty() {
			continue
		}
		if best == nil || c.Block.Round > best.Block.Round ||
			(c.Block.Round == best.Block.Round && best.Priority.Less(c.Priority)) {
			best = c
		}
	}
	if best != nil {
		n.ledger.RegisterProposal(best.Block, best.Hash)
		value = best.Hash
	}

	env, m := n.env(recRound), n.machineFor(ctx)
	out, err := agreement.Drive(env, m, m.Start(value))
	if err == nil {
		out, err = agreement.Drive(env, m, m.Confirm())
	}
	n.releaseMachine(m)
	if err != nil || out.Value == ctx.EmptyHash {
		return false
	}

	// Adopt the winning fork, keeping the recovery certificate: it is
	// the transferable proof of this adoption, and without it a node
	// that missed the checkpoint could never be convinced of the
	// adopted round (§8.3 catch-up serves only certified tails).
	fb, ok := n.fetchBlock(n.proc, out.Value, n.proc.Now()+n.roundBudget())
	if !ok {
		return false
	}
	return n.adoptChain(fb, out.Value, out.Cert)
}

// adoptChain commits b — the block the recovery agreed on, by its hash h
// — and any missing ancestors (fetched by hash, one round budget each),
// then switches the canonical head to b, recording cert (the recovery
// certificate, possibly nil) as b's proof.
//
// λ_block is not enough for an ancestor: the first neighbours asked may
// be fellow losers of the fork, each silent for λ_step, and a node that
// gives up here leaves recovery without the chain while the majority
// moves on — too few are then left for the next checkpoint's recovery to
// reach its threshold. An adoption that outlasts the window only shortens
// the sleep recover ends with.
func (n *Node) adoptChain(b *ledger.Block, h crypto.Digest, cert *ledger.Certificate) bool {
	// Nothing at or below our last final block changes hands (§8.2: final
	// blocks are fork-free); anything above it may be new to the head chain.
	from := n.ledger.LastFinal().Round + 1
	// Collect the missing ancestry, newest first.
	var chain []*ledger.Block
	cur := b
	for !n.ledger.Knows(cur.PrevHash) {
		parent, ok := n.fetchBlock(n.proc, cur.PrevHash, n.proc.Now()+n.roundBudget())
		if !ok {
			return false
		}
		chain = append(chain, parent)
		cur = parent
	}
	// Commit oldest first.
	for i := len(chain) - 1; i >= 0; i-- {
		if err := n.ledger.Commit(chain[i], nil); err != nil {
			return false
		}
	}
	// Commit (or re-commit: the dup path attaches certificates to known
	// entries) the adopted block with its recovery certificate.
	if err := n.ledger.CommitHashed(b, h, cert); err != nil {
		return false
	}
	if n.ledger.SwitchHead(h) != nil {
		return false
	}
	// Archive the adopted chain over any block this node archived for
	// those rounds — it belongs to the abandoned fork, and a restart must
	// not replay it — and run the post-commit hook a block of a live round
	// gets.
	for r := from; r <= b.Round; r++ {
		if blk, ok := n.ledger.BlockAt(r); ok {
			n.joined(blk)
		}
	}
	return true
}
