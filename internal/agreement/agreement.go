// Package agreement implements BA⋆, Algorand's Byzantine agreement
// protocol (§7, Algorithms 3-9). The code follows the paper's blocking
// pseudocode closely, which the vtime runtime makes possible: each user
// is a goroutine, CountVotes blocks on a per-(round,step) mailbox with
// a deadline, and committee membership is re-drawn with cryptographic
// sortition at every step so members speak only once.
//
// The package is deliberately free of networking and ledger policy: the
// host node supplies an Env with its identity, parameter set, a gossip
// function and per-step vote inboxes, and receives back the agreed
// value, its finality, and vote certificates (§8.3).
package agreement

import (
	"errors"
	"fmt"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/metrics"
	"algorand/internal/params"
	"algorand/internal/sortition"
	"algorand/internal/vtime"
)

// Metrics aggregates BA⋆'s per-step observability counters in a
// registry. All fields are registry-backed; a nil *Metrics disables
// recording (every hook checks).
type Metrics struct {
	// Steps counts CountVotes executions (one per BA⋆ step entered).
	Steps *metrics.Counter
	// StepTimeouts counts steps that expired without crossing T·tau.
	StepTimeouts *metrics.Counter
	// VotesCounted counts validated votes tallied toward a threshold.
	VotesCounted *metrics.Counter
	// VotesDeduped counts votes dropped because the sender already voted
	// in the step (the Algorithm 5 dedup rule).
	VotesDeduped *metrics.Counter
	// VotesCast counts committee votes this user signed and gossiped.
	VotesCast *metrics.Counter
	// StepSeconds observes each CountVotes duration.
	StepSeconds *metrics.Histogram
}

// NewMetrics registers the BA⋆ counter family in r.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Steps:        r.Counter("algorand_ba_steps_total", "BA⋆ vote-counting steps entered"),
		StepTimeouts: r.Counter("algorand_ba_step_timeouts_total", "BA⋆ steps that timed out without a threshold winner"),
		VotesCounted: r.Counter("algorand_ba_votes_counted_total", "validated committee votes tallied"),
		VotesDeduped: r.Counter("algorand_ba_votes_deduped_total", "votes dropped by the per-step sender dedup rule"),
		VotesCast:    r.Counter("algorand_ba_votes_cast_total", "committee votes this user signed and gossiped"),
		StepSeconds:  r.Histogram("algorand_ba_step_seconds", "CountVotes duration per step", nil),
	}
}

// Wire step numbers. The two reduction steps come first; BinaryBA⋆
// steps follow; the final-confirmation step has a distinguished number
// so its committee is disjoint from every ordinary step.
const (
	StepReduction1 uint64 = 1
	StepReduction2 uint64 = 2
	// binaryWireBase + k is the wire step of BinaryBA⋆ step k (k >= 1).
	binaryWireBase uint64 = 2
	// StepFinal is the special final step (§7.4); certificate
	// verification needs the number too, so ledger declares it.
	StepFinal = ledger.StepFinal
)

// WireStepOfBinary maps a BinaryBA⋆ step counter to its wire step.
func WireStepOfBinary(k int) uint64 { return binaryWireBase + uint64(k) }

// Context captures the consensus context for one round (the paper's
// ctx): the sortition seed, user weights, and the last block.
type Context struct {
	Round         uint64
	Seed          crypto.Digest
	Weights       map[crypto.PublicKey]uint64
	TotalWeight   uint64
	LastBlockHash crypto.Digest // H(ctx.last_block)
	EmptyHash     crypto.Digest // H(Empty(round, H(ctx.last_block)))
}

// ValidatedVote is a committee vote that already passed ProcessVote
// (signature, chain linkage and sortition checks); NumVotes is the
// verified number of selected sub-users. Vote is the vote gossip
// delivered, not a copy: nobody writes a delivered vote again, so every
// node that counts it may point at the same one.
type ValidatedVote struct {
	Vote     *ledger.Vote
	NumVotes uint64
}

// Env is what BA⋆ needs from its host node.
type Env struct {
	Proc     *vtime.Proc
	Provider crypto.Provider
	Identity crypto.Identity
	Params   params.Params
	// Gossip broadcasts one of our votes. j is the number of sub-users
	// our own sortition selected for it: the host counts the vote with
	// that, and need not verify a proof it has just made.
	Gossip func(v *ledger.Vote, j uint64)
	// Inbox returns the mailbox of validated votes for (round, step); the
	// host sends each as a *ValidatedVote, the one copy a step holds.
	Inbox func(round, step uint64) *vtime.Mailbox
	// StepTimer, when non-nil, observes every CountVotes call: the wire
	// step, how long the count took, and whether it timed out. Drives
	// the §10.5 timeout-validation experiment.
	StepTimer func(step uint64, took time.Duration, timedOut bool)
	// Metrics, when non-nil, receives per-step counter updates.
	Metrics *Metrics
}

// Outcome is the result of one BA⋆ execution.
type Outcome struct {
	Value crypto.Digest
	// Final reports final (vs tentative) consensus (§7.1, §7.4).
	Final bool
	// BinarySteps is how many BinaryBA⋆ steps ran (1 in the common case).
	BinarySteps int
	// Cert aggregates the votes of the concluding BinaryBA⋆ step.
	Cert *ledger.Certificate
	// FinalCert aggregates final-step votes when Final.
	FinalCert *ledger.Certificate
	// BinaryDone is the virtual time when BinaryBA⋆ concluded, before
	// the final-confirmation step (the Figure 7 "BA⋆ w/o final" mark).
	BinaryDone time.Duration
}

// ErrNoConsensus is returned when BinaryBA⋆ exceeds MaxSteps; the node
// must fall back to the recovery protocol (§8.2).
var ErrNoConsensus = errors.New("agreement: no consensus within MaxSteps")

// ProcessVote implements Algorithm 6: it validates an incoming vote
// message against a context and returns the verified number of
// sub-user votes (zero means invalid or not selected).
func ProcessVote(p crypto.Provider, prm params.Params, ctx *Context, v *ledger.Vote) uint64 {
	if !v.VerifySig(p) {
		return 0
	}
	// Discard messages that do not extend this chain.
	if v.PrevHash != ctx.LastBlockHash {
		return 0
	}
	tau := prm.TauStep
	if v.Step == StepFinal {
		tau = prm.TauFinal
	}
	role := sortition.Role{Kind: sortition.RoleCommittee, Round: v.Round, Step: v.Step}
	out, j := sortition.Verify(p, v.Sender, v.SortProof, ctx.Seed[:], role,
		tau, ctx.Weights[v.Sender], ctx.TotalWeight)
	if j == 0 || out != v.SortHash {
		return 0
	}
	return j
}

// CommitteeVote implements Algorithm 4: check committee membership for
// (round, step) by sortition and, if selected, gossip a signed vote.
func CommitteeVote(env *Env, ctx *Context, step uint64, tau uint64, value crypto.Digest) {
	role := sortition.Role{Kind: sortition.RoleCommittee, Round: ctx.Round, Step: step}
	w := ctx.Weights[env.Identity.PublicKey()]
	res := sortition.Execute(env.Identity, ctx.Seed[:], role, tau, w, ctx.TotalWeight)
	if !res.Selected() {
		return
	}
	v := &ledger.Vote{
		Sender:    env.Identity.PublicKey(),
		Round:     ctx.Round,
		Step:      step,
		SortHash:  res.Output,
		SortProof: res.Proof,
		PrevHash:  ctx.LastBlockHash,
		Value:     value,
	}
	v.Sign(env.Identity)
	env.Gossip(v, res.J)
	if env.Metrics != nil {
		env.Metrics.VotesCast.Inc()
	}
}

// countResult is what CountVotes observed in one step.
type countResult struct {
	// value is the winner, or timedOut is true.
	value    crypto.Digest
	timedOut bool
	// votes is the step's one store: every validated vote counted, in
	// arrival order. certificateFrom and CommonCoin read it.
	votes []*ValidatedVote
}

// CountVotes implements Algorithm 5: read validated votes for
// (round, step) until some value exceeds T·tau sub-user votes or the
// timeout λ expires. Votes are deduplicated by sender.
func CountVotes(env *Env, ctx *Context, step uint64, T float64, tau uint64, lambda time.Duration) countResult {
	start := env.Proc.Now()
	res := countVotesInner(env, ctx, step, T, tau, lambda)
	took := env.Proc.Now() - start
	if m := env.Metrics; m != nil {
		m.Steps.Inc()
		if res.timedOut {
			m.StepTimeouts.Inc()
		}
		m.StepSeconds.ObserveDuration(took)
	}
	if env.StepTimer != nil {
		env.StepTimer(step, took, res.timedOut)
	}
	return res
}

func countVotesInner(env *Env, ctx *Context, step uint64, T float64, tau uint64, lambda time.Duration) countResult {
	var res countResult
	counts := make(map[crypto.Digest]uint64)
	voters := make(map[crypto.PublicKey]bool)
	inbox := env.Inbox(ctx.Round, step)
	deadline := env.Proc.Now() + lambda
	threshold := float64(tau) * T

	for {
		m, ok := env.Proc.RecvDeadline(inbox, deadline)
		if !ok {
			res.timedOut = true
			return res
		}
		vv := m.(*ValidatedVote)
		if voters[vv.Vote.Sender] || vv.NumVotes == 0 {
			if voters[vv.Vote.Sender] && env.Metrics != nil {
				env.Metrics.VotesDeduped.Inc()
			}
			continue
		}
		voters[vv.Vote.Sender] = true
		if env.Metrics != nil {
			env.Metrics.VotesCounted.Inc()
		}
		res.votes = append(res.votes, vv)
		counts[vv.Vote.Value] += vv.NumVotes
		if float64(counts[vv.Vote.Value]) > threshold {
			res.value = vv.Vote.Value
			return res
		}
	}
}

// certificateFrom assembles the §8.3 certificate for value: the votes
// for it among those a concluding step gathered, in arrival order.
func certificateFrom(ctx *Context, step uint64, value crypto.Digest, votes []*ValidatedVote, final bool) *ledger.Certificate {
	k := 0
	for _, vv := range votes {
		if vv.Vote.Value == value {
			k++
		}
	}
	c := &ledger.Certificate{Round: ctx.Round, Step: step, Value: value, Final: final, Votes: make([]ledger.Vote, 0, k)}
	for _, vv := range votes {
		if vv.Vote.Value == value {
			c.Votes = append(c.Votes, *vv.Vote)
		}
	}
	return c
}

// Reduction implements Algorithm 7: reduce agreement on an arbitrary
// block hash to agreement between one specific hash and the empty hash.
func Reduction(env *Env, ctx *Context, hblock crypto.Digest) crypto.Digest {
	prm := env.Params
	// Step 1: gossip the block hash.
	CommitteeVote(env, ctx, StepReduction1, prm.TauStep, hblock)
	// Other users might still be waiting for block proposals, so wait
	// λ_block + λ_step.
	r1 := CountVotes(env, ctx, StepReduction1, prm.TStep, prm.TauStep, prm.LambdaBlock+prm.LambdaStep)

	// Step 2: re-gossip the popular block hash.
	if r1.timedOut {
		CommitteeVote(env, ctx, StepReduction2, prm.TauStep, ctx.EmptyHash)
	} else {
		CommitteeVote(env, ctx, StepReduction2, prm.TauStep, r1.value)
	}
	r2 := CountVotes(env, ctx, StepReduction2, prm.TStep, prm.TauStep, prm.LambdaStep)
	if r2.timedOut {
		return ctx.EmptyHash
	}
	return r2.value
}

// CommonCoin implements Algorithm 9: a binary value, predominantly
// common across users, derived from the lowest sub-user hash among the
// step's votes.
func CommonCoin(votes []*ValidatedVote) int {
	var minHash crypto.Digest
	have := false
	for _, vv := range votes {
		for j := uint64(1); j <= vv.NumVotes; j++ {
			h := sortition.SubUserHash(vv.Vote.SortHash, j)
			if !have || h.Less(minHash) {
				minHash = h
				have = true
			}
		}
	}
	if !have {
		return 0
	}
	return int(minHash[len(minHash)-1] & 1)
}

// BinaryResult carries BinaryBA⋆'s conclusion.
type BinaryResult struct {
	// Value is the agreed hash (block_hash or empty_hash).
	Value crypto.Digest
	// Steps is the number of binary steps executed.
	Steps int
	// LastStep is the concluding wire step.
	LastStep uint64
	// Cert aggregates the concluding step's votes.
	Cert *ledger.Certificate
	// VotedFinal reports whether this user cast a final-step vote.
	VotedFinal bool
}

// BinaryBA implements Algorithm 8: agreement between block_hash and
// empty_hash. On consensus it votes the result in the next three steps
// (so stragglers can cross the threshold) and, if consensus was reached
// in the very first step, votes in the final step to enable final
// consensus.
func BinaryBA(env *Env, ctx *Context, blockHash crypto.Digest) (BinaryResult, error) {
	prm := env.Params
	step := 1
	r := blockHash
	emptyHash := ctx.EmptyHash

	voteNext3 := func(step int, value crypto.Digest) {
		if prm.AblateNoVoteNext3 {
			return
		}
		for s := step + 1; s <= step+3; s++ {
			CommitteeVote(env, ctx, WireStepOfBinary(s), prm.TauStep, value)
		}
	}

	for step < prm.MaxSteps {
		// --- Step kind 1: bias toward block_hash on timeout.
		CommitteeVote(env, ctx, WireStepOfBinary(step), prm.TauStep, r)
		cr := CountVotes(env, ctx, WireStepOfBinary(step), prm.TStep, prm.TauStep, prm.LambdaStep)
		if cr.timedOut {
			r = blockHash
		} else if cr.value != emptyHash {
			r = cr.value
			voteNext3(step, r)
			res := BinaryResult{Value: r, Steps: step, LastStep: WireStepOfBinary(step)}
			res.Cert = certificateFrom(ctx, res.LastStep, r, cr.votes, false)
			if step == 1 {
				CommitteeVote(env, ctx, StepFinal, prm.TauFinal, r)
				res.VotedFinal = true
			}
			return res, nil
		} else {
			r = cr.value
		}
		step++
		if step >= prm.MaxSteps {
			break
		}

		// --- Step kind 2: bias toward empty_hash on timeout.
		CommitteeVote(env, ctx, WireStepOfBinary(step), prm.TauStep, r)
		cr = CountVotes(env, ctx, WireStepOfBinary(step), prm.TStep, prm.TauStep, prm.LambdaStep)
		if cr.timedOut {
			r = emptyHash
		} else if cr.value == emptyHash {
			r = cr.value
			voteNext3(step, r)
			res := BinaryResult{Value: r, Steps: step, LastStep: WireStepOfBinary(step)}
			res.Cert = certificateFrom(ctx, res.LastStep, r, cr.votes, false)
			return res, nil
		} else {
			r = cr.value
		}
		step++
		if step >= prm.MaxSteps {
			break
		}

		// --- Step kind 3: common coin breaks adversarial vote splitting.
		CommitteeVote(env, ctx, WireStepOfBinary(step), prm.TauStep, r)
		cr = CountVotes(env, ctx, WireStepOfBinary(step), prm.TStep, prm.TauStep, prm.LambdaStep)
		if cr.timedOut {
			coin := 0
			if !prm.AblateNoCommonCoin {
				coin = CommonCoin(cr.votes)
			}
			if coin == 0 {
				r = blockHash
			} else {
				r = emptyHash
			}
		} else {
			r = cr.value
		}
		step++
	}

	// No consensus after MaxSteps; assume network problems and rely on
	// the §8.2 recovery protocol to recover liveness.
	return BinaryResult{Steps: step}, ErrNoConsensus
}

// Run executes BA⋆ for one round (Algorithm 3). blockHash is the hash
// of the highest-priority proposal the node received (or the empty
// hash). The returned outcome's Value is a hash; resolving it to block
// contents (BlockOfHash) is the caller's concern.
func Run(env *Env, ctx *Context, blockHash crypto.Digest) (Outcome, error) {
	bres, err := RunWithoutFinal(env, ctx, blockHash)
	if err != nil {
		return Outcome{}, err
	}
	binaryDone := env.Proc.Now()

	out := Outcome{
		Value:       bres.Value,
		BinarySteps: bres.Steps,
		Cert:        bres.Cert,
		BinaryDone:  binaryDone,
	}
	// Check if we reached "final" or "tentative" consensus.
	if fc := WaitFinal(env, ctx, bres.Value); fc != nil {
		out.Final = true
		out.FinalCert = fc
	}
	return out, nil
}

// RunWithoutFinal runs the reduction and BinaryBA⋆ phases only. The
// caller is responsible for the final confirmation step (WaitFinal),
// which it may overlap with the next round — the §10.2 pipelining
// optimization the paper describes but leaves unimplemented.
func RunWithoutFinal(env *Env, ctx *Context, blockHash crypto.Digest) (BinaryResult, error) {
	hblock := Reduction(env, ctx, blockHash)
	return BinaryBA(env, ctx, hblock)
}

// WaitFinal runs the final confirmation step (§7.4): it counts
// final-step votes for up to λ_step and, if value gathered more than
// T_final·τ_final, returns the final certificate; nil means the round
// stays tentative.
func WaitFinal(env *Env, ctx *Context, value crypto.Digest) *ledger.Certificate {
	prm := env.Params
	fr := CountVotes(env, ctx, StepFinal, prm.TFinal, prm.TauFinal, prm.LambdaStep)
	if !fr.timedOut && fr.value == value {
		return certificateFrom(ctx, StepFinal, fr.value, fr.votes, true)
	}
	return nil
}

// NewContext builds a Context from a ledger for its next round.
func NewContext(l *ledger.Ledger) *Context {
	round := l.NextRound()
	weights, total := l.SortitionWeights(round)
	return &Context{
		Round:         round,
		Seed:          l.SortitionSeed(round),
		Weights:       weights,
		TotalWeight:   total,
		LastBlockHash: l.HeadHash(),
		EmptyHash:     l.NextEmptyBlock().Hash(),
	}
}

// String renders a context for debugging.
func (c *Context) String() string {
	return fmt.Sprintf("ctx{round %d, seed %v, W %d}", c.Round, c.Seed, c.TotalWeight)
}
