package chaos

import (
	"fmt"

	"algorand/internal/agreement"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/params"
	"algorand/internal/sim"
	"algorand/internal/wire"
)

// Violation is one broken invariant. Node is -1 when the violation is
// not attributable to a single node.
type Violation struct {
	Kind   string
	Node   int
	Round  uint64
	Detail string
}

func (v Violation) String() string {
	where := ""
	if v.Node >= 0 {
		where = fmt.Sprintf(" node %d", v.Node)
	}
	if v.Round > 0 {
		where += fmt.Sprintf(" round %d", v.Round)
	}
	return fmt.Sprintf("[%s]%s: %s", v.Kind, where, v.Detail)
}

// CheckOptions configures the invariant suite.
type CheckOptions struct {
	// Params are the weakest parameters any node ran with; certificates
	// are re-verified against these thresholds.
	Params params.Params
	// Rounds is the run's target chain length (0 = open-ended).
	Rounds uint64
	// AllowTentativeForks relaxes the checks to §8.2's actual guarantee
	// for runs that deliberately generate tentative forks (weakened
	// TStep): no final forks ever, and ≥ 80% of live honest nodes
	// converged onto one chain by the end (the bound TestForkRecovery
	// established empirically for scaled-down committees).
	AllowTentativeForks bool
	// RequireProgress asserts §3 liveness: every live honest node's
	// chain reached Rounds by the horizon.
	RequireProgress bool
	// Byzantine nodes are exempt from every per-node check. Down nodes
	// (crashed, never restarted) are exempt from liveness only — their
	// frozen chains must still be consistent and fully certified.
	Byzantine map[int]bool
	Down      map[int]bool
	// HealChains, when set, gives each node's chain length at the
	// moment the last fault cleared (context for liveness failures).
	HealChains []uint64
}

// chainBase returns the round a node's committed-chain walk can start
// after: 0 for a full chain, or the snapshot anchor round when the
// ledger was re-based by checkpoint fast sync and holds no blocks
// below it. Rounds at or below the base are vouched for by the
// verified checkpoint (certificate + Merkle root), not by replay.
func chainBase(l *ledger.Ledger) uint64 {
	if l.ChainLength() == 0 {
		return 0
	}
	if _, ok := l.BlockAt(1); ok {
		return 0
	}
	for r := uint64(2); r <= l.ChainLength(); r++ {
		if _, ok := l.BlockAt(r); ok {
			return r
		}
	}
	return l.ChainLength()
}

// CheckInvariants walks every node's ledger after the run and asserts
// the paper's core properties. It returns all violations found (empty
// means the run upheld every invariant).
func CheckInvariants(c *sim.Cluster, opt CheckOptions) []Violation {
	var vs []Violation
	honest := func(i int) bool { return !opt.Byzantine[i] }

	// --- Safety (§9, Theorems 1 and 3): no two honest nodes reach
	// FINAL consensus on different blocks in the same round.
	finalVal := map[uint64]crypto.Digest{}
	finalBy := map[uint64]int{}
	for _, n := range c.Nodes {
		if !honest(n.ID) {
			continue
		}
		for _, st := range n.Stats {
			if st.End == 0 || !st.Final || st.Round >= ledger.RecoveryRoundBase {
				continue
			}
			if prev, ok := finalVal[st.Round]; ok {
				if prev != st.Value {
					vs = append(vs, Violation{Kind: "final-fork", Node: n.ID, Round: st.Round,
						Detail: fmt.Sprintf("committed FINAL %x but node %d committed FINAL %x",
							st.Value[:4], finalBy[st.Round], prev[:4])})
				}
			} else {
				finalVal[st.Round] = st.Value
				finalBy[st.Round] = n.ID
			}
		}
	}

	// --- Chain consistency. Tentative forks that §8.2 recovery already
	// reconciled are within spec; what must hold at the end of the run
	// is that honest chains (including crashed nodes' frozen prefixes)
	// are prefixes of one common chain.
	// The reference chain prefers genesis-rooted history over raw
	// length: a snapshot-rebased ledger holds nothing below its anchor,
	// so electing one as reference would make every full node look like
	// it had extra, uncheckable rounds.
	var ref *ledger.Ledger
	refID := -1
	refBase := uint64(0)
	for _, n := range c.Nodes {
		if !honest(n.ID) {
			continue
		}
		l := n.Ledger()
		b := chainBase(l)
		if ref == nil || b < refBase || (b == refBase && l.ChainLength() > ref.ChainLength()) {
			ref, refID, refBase = l, n.ID, b
		}
	}
	if ref != nil && !opt.AllowTentativeForks {
		for _, n := range c.Nodes {
			if !honest(n.ID) || n.ID == refID {
				continue
			}
			l := n.Ledger()
			// A snapshot-synced ledger holds nothing below its checkpoint
			// anchor; the walk starts there (the anchor block itself is
			// present and must match the reference chain). If even the
			// reference is re-based, rounds below its anchor exist on
			// neither side and cannot be compared.
			start := chainBase(l)
			if refBase > start {
				start = refBase
			}
			if start == 0 {
				start = 1
			}
			for r := start; r <= l.ChainLength(); r++ {
				mine, ok1 := l.BlockAt(r)
				theirs, ok2 := ref.BlockAt(r)
				if !ok1 || !ok2 {
					vs = append(vs, Violation{Kind: "chain-gap", Node: n.ID, Round: r,
						Detail: fmt.Sprintf("block missing (self %v, ref node %d %v)", ok1, refID, ok2)})
					break
				}
				if mh, th := mine.Hash(), theirs.Hash(); mh != th {
					vs = append(vs, Violation{Kind: "fork", Node: n.ID, Round: r,
						Detail: fmt.Sprintf("committed %x, ref node %d has %x",
							mh[:4], refID, th[:4])})
					break
				}
			}
		}
	}
	if ref != nil && opt.AllowTentativeForks {
		live, converged := 0, 0
		for _, n := range c.Nodes {
			if !honest(n.ID) || opt.Down[n.ID] {
				continue
			}
			live++
			l := n.Ledger()
			if b, ok := ref.BlockAt(l.ChainLength()); ok && b.Hash() == l.HeadHash() {
				converged++
			}
		}
		if converged < live*8/10 {
			vs = append(vs, Violation{Kind: "no-convergence", Node: -1,
				Detail: fmt.Sprintf("only %d/%d live honest nodes converged after recovery", converged, live)})
		}
	}

	// --- Certificate validity (§8.3) and seed-chain integrity (§5.2),
	// walked over every honest node's committed chain.
	for _, n := range c.Nodes {
		if !honest(n.ID) {
			continue
		}
		l := n.Ledger()
		// Rounds this node committed via BA⋆ itself (vs adopted during
		// recovery, which legitimately carries no certificate).
		baCommitted := map[uint64]crypto.Digest{}
		for _, st := range n.Stats {
			if st.End > 0 && st.Round < ledger.RecoveryRoundBase {
				baCommitted[st.Round] = st.Value
			}
		}
		// On a snapshot-synced ledger the anchor round's proof is its
		// checkpoint (validated in the replay section below); the
		// per-round walk covers everything past it.
		base := chainBase(l)
		for r := base + 1; r <= l.ChainLength(); r++ {
			b, ok := l.BlockAt(r)
			prev, okPrev := l.BlockAt(r - 1)
			if !ok || !okPrev {
				vs = append(vs, Violation{Kind: "chain-gap", Node: n.ID, Round: r,
					Detail: "head chain has a hole"})
				continue
			}

			// Seed chain: empty/fallback blocks hash the previous seed;
			// proposed blocks prove theirs with the proposer's VRF.
			if len(b.SeedProof) == 0 {
				if want := ledger.FallbackSeed(prev.Seed, r); b.Seed != want {
					vs = append(vs, Violation{Kind: "seed-chain", Node: n.ID, Round: r,
						Detail: fmt.Sprintf("fallback seed %x, want %x", b.Seed[:4], want[:4])})
				}
			} else {
				out, okV := c.Provider.VRFVerify(b.Proposer, ledger.SeedAlpha(prev.Seed, r), b.SeedProof)
				if !okV || ledger.SeedFromVRF(out) != b.Seed {
					vs = append(vs, Violation{Kind: "seed-chain", Node: n.ID, Round: r,
						Detail: "seed VRF proof does not verify"})
				}
			}

			// Certificates: every block this node BA⋆-committed must have
			// one, and every certificate present must re-verify from the
			// chain state — sortition proofs, no double-counted voters,
			// vote weight above the committee threshold.
			cert, okC := l.Certificate(b.Hash())
			if !okC {
				if v, did := baCommitted[r]; did && v == b.Hash() {
					vs = append(vs, Violation{Kind: "missing-cert", Node: n.ID, Round: r,
						Detail: "BA⋆-committed block has no certificate"})
				}
				continue
			}
			if err := checkCertificate(c.Provider, l, opt.Params, b, prev, cert); err != nil {
				vs = append(vs, Violation{Kind: "bad-cert", Node: n.ID, Round: r, Detail: err.Error()})
			}
		}
	}

	// --- Committed transactions (Figure 1 / ingestion pipeline): every
	// transaction in an honest node's chain must carry a valid signature
	// and apply cleanly in chain order from genesis — sufficient balance
	// for amount+fee, exactly sequential nonce — and no transaction may
	// appear twice anywhere in the chain. This is what makes the tx-load
	// garbage (duplicates, stale nonces, unfunded spenders left behind by
	// fee churn) safe: the pipeline may mis-reject, but a block that
	// *commits* any of it is a violation.
	for _, n := range c.Nodes {
		if !honest(n.ID) {
			continue
		}
		l := n.Ledger()
		bal := ledger.NewBalances(c.Genesis)
		seen := map[crypto.Digest]uint64{}
		start := uint64(1)
		chk, hasChk := n.Checkpoint()
		if hasChk {
			if _, err := chk.VerifyState(); err != nil {
				vs = append(vs, Violation{Kind: "checkpoint", Node: n.ID, Round: chk.Round(),
					Detail: fmt.Sprintf("held checkpoint fails verification: %v", err)})
				hasChk = false
			}
		}
		if base := chainBase(l); base > 0 {
			if ref != nil && chainBase(ref) == 0 {
				// A genesis-rooted reference exists: replay its prefix to
				// rebuild the state at the anchor independently, then
				// demand the node's anchor state root match it. (The
				// prefix check above already pinned the anchor block to
				// the reference chain.)
				ok := true
				for r := uint64(1); ok && r <= base; r++ {
					b, okB := ref.BlockAt(r)
					if !okB {
						ok = false
						break
					}
					for i := range b.Txns {
						seen[b.Txns[i].ID()] = r
						if bal.ApplyTx(&b.Txns[i]) != nil {
							ok = false
							break
						}
					}
				}
				if !ok {
					vs = append(vs, Violation{Kind: "checkpoint", Node: n.ID, Round: base,
						Detail: "cannot rebuild snapshot anchor state from the reference chain"})
					continue
				}
				if b, okB := l.BlockAt(base); okB {
					if got := bal.Root(); got != b.StateRoot {
						vs = append(vs, Violation{Kind: "checkpoint", Node: n.ID, Round: base,
							Detail: fmt.Sprintf("anchor state root %x, chain replay gives %x",
								b.StateRoot[:4], got[:4])})
						continue
					}
				}
				start = base + 1
			} else if hasChk && chk.Round() >= base {
				// No honest node kept the full prefix (the reference is
				// itself re-based), so the anchor cannot be rebuilt
				// independently; the verified checkpoint's table is the
				// state baseline, after pinning its block to this chain.
				// Duplicates against pre-anchor history are undetectable
				// here — that information left the network with the
				// prefix.
				b, okB := l.BlockAt(chk.Round())
				if !okB || b.Hash() != chk.Block.Hash() {
					vs = append(vs, Violation{Kind: "checkpoint", Node: n.ID, Round: chk.Round(),
						Detail: "checkpoint does not match the committed chain at its round"})
					continue
				}
				bal = chk.Balances()
				start = chk.Round() + 1
			} else {
				// Re-based with no usable baseline: nothing to replay
				// against. The structural checks above still ran.
				continue
			}
		}
		// A checkpoint below the walk's start still has to be for the
		// chain's own block (the walk only covers start..end).
		if hasChk && chk.Round() < start {
			if b, okB := l.BlockAt(chk.Round()); okB && b.Hash() != chk.Block.Hash() {
				vs = append(vs, Violation{Kind: "checkpoint", Node: n.ID, Round: chk.Round(),
					Detail: "checkpoint does not match the committed chain at its round"})
			}
		}
		for r := start; r <= l.ChainLength(); r++ {
			b, ok := l.BlockAt(r)
			if !ok {
				continue // chain-gap already reported above
			}
			// Every checkpoint a node holds must be exactly the state the
			// committed chain replays to at that round — a checkpoint that
			// diverges from its own chain would poison every peer that
			// fast-syncs from it.
			if hasChk && r == chk.Round() {
				if bh, ch := b.Hash(), chk.Block.Hash(); bh != ch {
					vs = append(vs, Violation{Kind: "checkpoint", Node: n.ID, Round: r,
						Detail: fmt.Sprintf("checkpoint block %x, chain block %x", ch[:4], bh[:4])})
				}
			}
			for i := range b.Txns {
				tx := &b.Txns[i]
				id := tx.ID()
				if first, dup := seen[id]; dup {
					vs = append(vs, Violation{Kind: "dup-tx", Node: n.ID, Round: r,
						Detail: fmt.Sprintf("transaction %x also committed in round %d", id[:4], first)})
					continue
				}
				seen[id] = r
				if !tx.VerifySig(c.Provider) {
					vs = append(vs, Violation{Kind: "invalid-tx", Node: n.ID, Round: r,
						Detail: fmt.Sprintf("transaction %x: bad signature", id[:4])})
					continue
				}
				if err := bal.ApplyTx(tx); err != nil {
					vs = append(vs, Violation{Kind: "invalid-tx", Node: n.ID, Round: r,
						Detail: fmt.Sprintf("transaction %x does not apply: %v", id[:4], err)})
				}
			}
		}
	}

	// --- Liveness (§3, §8.2): once the last fault clears, every live
	// honest node finishes the run within the liveness window (the
	// horizon the harness set).
	if opt.RequireProgress && opt.Rounds > 0 {
		for _, n := range c.Nodes {
			if !honest(n.ID) || opt.Down[n.ID] {
				continue
			}
			got := n.Ledger().ChainLength()
			if got >= opt.Rounds {
				continue
			}
			base := ""
			if opt.HealChains != nil {
				base = fmt.Sprintf(" (chain was %d when faults cleared)", opt.HealChains[n.ID])
			}
			vs = append(vs, Violation{Kind: "liveness", Node: n.ID,
				Detail: fmt.Sprintf("chain stuck at %d of %d at horizon%s", got, opt.Rounds, base)})
		}
	}
	return vs
}

// checkCertificate is the invariant suite's own reading of §8.3 — is
// cert proof that the network committed b on top of prev? — written
// independently of ledger.VerifyCertificate, the one verifier every
// binary runs, so that a bug there cannot vouch for itself: the
// certificate is for this block, a final one comes from the final step
// and a tentative one from a step within MaxSteps, a regular one is for
// this round and its votes extend prev, a §8.2 recovery one rebuilds its
// context from the base block its votes name, which must be on this
// chain.
func checkCertificate(p crypto.Provider, l *ledger.Ledger, prm params.Params, b, prev *ledger.Block, cert *ledger.Certificate) error {
	if cert.Value != b.Hash() {
		return fmt.Errorf("certificate is for value %x", cert.Value[:4])
	}
	tau, threshold := prm.TauStep, prm.StepThreshold()
	switch {
	case cert.Final && cert.Step != agreement.StepFinal:
		return fmt.Errorf("final certificate from step %d", cert.Step)
	case cert.Final:
		tau, threshold = prm.TauFinal, prm.FinalThreshold()
	case cert.Step > agreement.WireStepOfBinary(prm.MaxSteps):
		return fmt.Errorf("certificate step %d beyond MaxSteps", cert.Step)
	}
	if cert.Round < ledger.RecoveryRoundBase {
		if cert.Round != b.Round {
			return fmt.Errorf("certificate is for round %d", cert.Round)
		}
		weights, total := l.SortitionWeights(b.Round)
		return cert.Verify(p, l.SortitionSeed(b.Round), weights, total, tau, threshold, prev.Hash())
	}
	if len(cert.Votes) == 0 {
		return fmt.Errorf("recovery cert has no votes")
	}
	baseHash := cert.Votes[0].PrevHash
	base, ok := l.BlockOfHash(baseHash)
	if !ok {
		return fmt.Errorf("recovery cert base unknown")
	}
	if on, ok := l.BlockAt(base.Round); !ok || on.Hash() != baseHash {
		return fmt.Errorf("recovery cert base not on this chain")
	}
	weights, total, _ := l.WeightsAt(baseHash)
	off := cert.Round - ledger.RecoveryRoundBase
	coords := wire.NewEncoderSize(16)
	coords.Uint64(off / 1024)
	coords.Uint64(off % 1024)
	seed := crypto.HashBytes("algorand.recovery.seed", base.Seed[:], coords.Data())
	return cert.Verify(p, seed, weights, total, tau, threshold, baseHash)
}
