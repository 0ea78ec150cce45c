// Package agreement implements BA⋆, Algorand's Byzantine agreement
// protocol (§7, Algorithms 3-9), in two pieces. Machine is the protocol:
// Reduction, BinaryBA⋆ and the final step as a pure state machine that
// takes validated votes and timeouts and answers with actions — vote,
// count, conclude, stuck. Drive is the one blocking loop that executes
// those actions for a vtime process: a vote through sortition, signing
// and gossip, a count by reading a per-(round, step) mailbox until its
// deadline. A Count is one step's count; the final step's (StartFinal)
// runs after the round's commit without blocking, fed by its host.
// Committee membership is re-drawn with cryptographic sortition at every
// step, so members speak only once.
//
// The package is deliberately free of networking and ledger policy: the
// host node supplies an Env with its identity, a gossip function and
// per-step vote inboxes, and receives back the agreed value, its
// finality, and its vote certificate (§8.3).
package agreement

import (
	"errors"
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
	// Steps counts vote-counting steps (one per BA⋆ step entered).
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
	// StepSeconds observes how long each step counted.
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
		StepSeconds:  r.Histogram("algorand_ba_step_seconds", "vote-counting duration per step", nil),
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

// Env is what Drive needs from its host node.
type Env struct {
	Proc     *vtime.Proc
	Identity crypto.Identity
	// Gossip broadcasts one of our votes. j is the number of sub-users
	// our own sortition selected for it: the host counts the vote with
	// that, and need not verify a proof it has just made.
	Gossip func(v *ledger.Vote, j uint64)
	// Inbox returns the mailbox of validated votes for (round, step); the
	// host sends each as a *ValidatedVote, the one copy a step holds.
	Inbox func(round, step uint64) *vtime.Mailbox
	// StepTimer, when non-nil, observes every count: the wire step, how
	// long it took, and whether it timed out. Drives the §10.5
	// timeout-validation experiment.
	StepTimer func(step uint64, took time.Duration, timedOut bool)
	// Metrics, when non-nil, receives per-step counter updates.
	Metrics *Metrics
	// Halted, when non-nil, reports that the host has crashed: Drive
	// starts no count after it does, and returns ErrHalted.
	Halted func() bool
}

// Outcome is the result of one BA⋆ execution.
type Outcome struct {
	Value crypto.Digest
	// Final reports final (vs tentative) consensus (§7.1, §7.4).
	Final bool
	// BinarySteps is how many BinaryBA⋆ steps ran (1 in the common case).
	BinarySteps int
	// Cert is the round's certificate (§8.3), built once the final step
	// ends: its votes when Final, else the concluding BinaryBA⋆ step's.
	// The Outcome Drive returns when BinaryBA⋆ concludes has none yet.
	Cert *ledger.Certificate
}

// ErrNoConsensus is returned when BinaryBA⋆ exceeds MaxSteps; the node
// must fall back to the recovery protocol (§8.2).
var ErrNoConsensus = errors.New("agreement: no consensus within MaxSteps")

// ErrHalted is returned when the host halted while BA⋆ ran.
var ErrHalted = errors.New("agreement: host halted")

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

// Drive executes acts — what m's Start, StartBinary or Confirm returned —
// and every action m answers them with, until m concludes (its Outcome)
// or is stuck (ErrNoConsensus), or its host has halted (ErrHalted). It is
// the one place BA⋆ blocks: a vote is cast through sortition, signing and
// env.Gossip, a count reads env.Inbox(round, step) until its deadline.
func Drive(env *Env, m *Machine, acts []Action) (Outcome, error) {
	for i := 0; i < len(acts); i++ {
		switch a := acts[i]; a.Kind {
		case ActVote:
			committeeVote(env, m.ctx, a.Step, a.Tau, a.Value)
		case ActCount:
			if env.Halted != nil && env.Halted() {
				return Outcome{}, ErrHalted
			}
			acts, i = countVotes(env, m, a.Step, a.Lambda), -1
		case ActConclude:
			return m.out, nil
		case ActStuck:
			return Outcome{}, ErrNoConsensus
		}
	}
	return Outcome{}, ErrNoConsensus
}

// committeeVote implements Algorithm 4: check committee membership for
// (round, step) by sortition and, if selected, gossip a signed vote.
func committeeVote(env *Env, ctx *Context, step uint64, tau uint64, value crypto.Digest) {
	role := sortition.Role{Kind: sortition.RoleCommittee, Round: ctx.Round, Step: step}
	w := ctx.Weights[env.Identity.PublicKey()]
	res := sortition.Execute(env.Identity, ctx.Seed[:], role, tau, w, ctx.TotalWeight)
	if !res.Selected() {
		return
	}
	v := &ledger.Vote{Sender: env.Identity.PublicKey(), Round: ctx.Round, Step: step,
		SortHash: res.Output, SortProof: res.Proof, PrevHash: ctx.LastBlockHash, Value: value}
	v.Sign(env.Identity)
	env.Gossip(v, res.J)
	if env.Metrics != nil {
		env.Metrics.VotesCast.Inc()
	}
}

// countVotes is Algorithm 5's wait: it hands m each validated vote of
// (round, step) until m's tally crosses the threshold or lambda passes,
// and returns what m does next.
func countVotes(env *Env, m *Machine, step uint64, lambda time.Duration) []Action {
	c := Count{env: env, m: m, step: step, start: env.Proc.Now(), lambda: lambda}
	inbox := env.Inbox(m.ctx.Round, step)
	for !c.ended {
		if !c.take(inbox, c.Deadline()) {
			c.Timeout()
		}
	}
	return c.acts
}

// Count is one step's count (Algorithm 5): the machine it hands the
// step's validated votes to, and the one place the step's counters and
// its StepTimer span are recorded. Drive's wait runs one to its end. A
// host runs the §7.4 final step's (StartFinal) after its round's commit,
// while it runs the next round (§10.2): its handler hands the count each
// later vote of the step (Deliver), and a timer of its own ends it at
// Deadline (Timeout).
type Count struct {
	env    *Env
	m      *Machine
	step   uint64
	start  time.Duration
	lambda time.Duration
	ended  bool
	acts   []Action // what m does next, once the count ended
}

// StartFinal begins m's final step (Confirm) after BinaryBA⋆ concluded, as
// a count that does not block: it hands the count the votes of the step
// env.Inbox holds already — the host's own, and those of users who
// concluded sooner — and returns it, ended if they crossed the threshold.
func StartFinal(env *Env, m *Machine) *Count {
	a := m.Confirm()[0]
	c := &Count{env: env, m: m, step: a.Step, start: env.Proc.Now(), lambda: a.Lambda}
	inbox := env.Inbox(m.ctx.Round, a.Step)
	for !c.ended && c.take(inbox, c.start) {
	}
	return c
}

// take hands c the next vote waiting in inbox or arriving there by
// deadline, and reports whether one did.
func (c *Count) take(inbox *vtime.Mailbox, deadline time.Duration) bool {
	msg, ok := c.env.Proc.RecvDeadline(inbox, deadline)
	if ok {
		c.Deliver(msg.(*ValidatedVote))
	}
	return ok
}

// Deliver hands the count one validated vote of its step, and reports
// whether the count ended with it: the vote crossed the threshold.
func (c *Count) Deliver(vv *ValidatedVote) bool {
	if c.ended {
		return false
	}
	rc, acts := c.m.Deliver(vv)
	if mt := c.env.Metrics; mt != nil && rc == VoteCounted {
		mt.VotesCounted.Inc()
	} else if mt != nil && rc == VoteDuplicate {
		mt.VotesDeduped.Inc()
	}
	if acts != nil {
		c.end(acts, false)
	}
	return c.ended
}

// Timeout ends the count without a winner, if it is still going on.
func (c *Count) Timeout() {
	if !c.ended {
		c.end(c.m.Timeout(), true)
	}
}

// Deadline is when the count times out: λ after it began.
func (c *Count) Deadline() time.Duration { return c.start + c.lambda }

// Outcome is the machine's outcome once its final step's count ended:
// whether the round is final, and its one certificate.
func (c *Count) Outcome() (Outcome, bool) { return c.m.out, c.ended }

func (c *Count) end(acts []Action, timedOut bool) {
	c.ended, c.acts = true, acts
	took := c.env.Proc.Now() - c.start
	if mt := c.env.Metrics; mt != nil {
		mt.Steps.Inc()
		if timedOut {
			mt.StepTimeouts.Inc()
		}
		mt.StepSeconds.ObserveDuration(took)
	}
	if c.env.StepTimer != nil {
		c.env.StepTimer(c.step, took, timedOut)
	}
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
