package agreement

import (
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/params"
	"algorand/internal/sortition"
)

// ActionKind says what the machine wants done. ActVote: if sortition
// puts this user on Step's committee of expected size Tau, sign and
// gossip a vote for Value (Algorithm 4). ActCount: hand Deliver every
// validated vote of Step, and call Timeout if Lambda passes first
// (Algorithm 5); a count is the last action of its list. ActConclude: BA⋆
// concluded on Value, after BinaryBA⋆ and again, finality decided, after
// the final step. ActStuck: MaxSteps passed without consensus
// (ErrNoConsensus).
type ActionKind uint8

const (
	ActVote ActionKind = iota
	ActCount
	ActConclude
	ActStuck
)

// Action is one instruction from the machine to its driver.
type Action struct {
	Kind   ActionKind
	Step   uint64
	Tau    uint64
	Value  crypto.Digest
	Lambda time.Duration
}

// Receipt says what Deliver made of a vote, for the driver's counters.
type Receipt uint8

const (
	VoteIgnored   Receipt = iota // not of the step being counted, or no sub-user votes
	VoteDuplicate                // its sender was already counted in the step
	VoteCounted                  // tallied toward the step's threshold
)

// Machine is BA⋆ for one round as a pure state machine: Reduction
// (Algorithm 7), BinaryBA⋆ (Algorithm 8) and the final step (§7.4), with
// Algorithm 5's tally. Events go in — Start or StartBinary, a validated
// vote of the step being counted, that step's timeout, Confirm — and
// actions come out: vote, count, conclude, stuck. It holds no clock,
// mailbox, goroutine or network (Drive executes its actions); the
// returned actions are valid until the next call. Reset readies it for
// another round: a host keeps one machine, and what it grew in one round
// it reuses in the next.
type Machine struct {
	ctx *Context
	prm params.Params
	// step is the wire step being counted (0: none), threshold its T·τ.
	step      uint64
	threshold float64
	// k is BinaryBA⋆'s step counter and blockHash its block_hash.
	k         int
	blockHash crypto.Digest
	// The tally: the step each sender was last counted in, the weight each
	// value gathered in the step, and every vote the step counted, in
	// arrival order — the step's one store, which the certificate and the
	// common coin read. A sender counts once per step, so voters lasts the
	// round (Reset empties it); the rest is cleared between steps, not
	// remade: a step after the first allocates nothing for it.
	voters map[crypto.PublicKey]uint64
	weight map[crypto.Digest]uint64
	votes  []*ValidatedVote
	// kept is the concluding BinaryBA⋆ step's votes, set aside while the
	// final step counts: a round that does not become final is certified
	// by them (§8.3). It lasts the round.
	kept []*ValidatedVote
	out  Outcome
	acts []Action
}

// NewMachine returns the BA⋆ machine of the round ctx describes.
func NewMachine(ctx *Context, prm params.Params) *Machine {
	m := &Machine{
		voters: make(map[crypto.PublicKey]uint64),
		weight: make(map[crypto.Digest]uint64),
		acts:   make([]Action, 0, 5), // the longest list: decide's three votes, the final vote, conclude
	}
	m.Reset(ctx, prm)
	return m
}

// Reset makes m the machine of the round ctx describes, as NewMachine
// would, keeping only the storage its tally grew.
func (m *Machine) Reset(ctx *Context, prm params.Params) {
	m.ctx, m.prm = ctx, prm
	m.step, m.k, m.blockHash = 0, 0, crypto.Digest{}
	clear(m.voters)
	clear(m.kept)
	m.kept = m.kept[:0]
	m.out = Outcome{}
}

// Start begins BA⋆ (Algorithm 3) on hblock, the highest-priority
// proposal's hash or the empty hash: Reduction's first step.
func (m *Machine) Start(hblock crypto.Digest) []Action {
	m.acts = m.acts[:0]
	m.vote(StepReduction1, m.prm.TauStep, hblock)
	// Other users might still be waiting for block proposals, so wait
	// λ_block + λ_step.
	m.count(StepReduction1, m.prm.LambdaBlock+m.prm.LambdaStep)
	return m.acts
}

// StartBinary begins BinaryBA⋆ on blockHash as if Reduction had ended on
// it: the state a split Reduction leaves behind (the §7.4 coin
// experiment).
func (m *Machine) StartBinary(blockHash crypto.Digest) []Action {
	m.step = StepReduction2
	return m.end(false, blockHash)
}

// Confirm begins the final step (§7.4) after BinaryBA⋆ concluded: the
// round is final if the value it concluded on gathers more than
// T_final·τ_final final-step votes before λ_step passes.
func (m *Machine) Confirm() []Action {
	m.acts = m.acts[:0]
	m.count(StepFinal, m.prm.LambdaStep)
	return m.acts
}

// Deliver counts one validated vote (Algorithm 5: a sender once per
// step). The actions are nil while the step goes on.
func (m *Machine) Deliver(vv *ValidatedVote) (Receipt, []Action) {
	v := vv.Vote
	if v.Step != m.step || v.Round != m.ctx.Round { // m.step is 0 between steps
		return VoteIgnored, nil
	}
	if m.voters[v.Sender] == m.step {
		return VoteDuplicate, nil
	}
	if vv.NumVotes == 0 {
		return VoteIgnored, nil
	}
	m.voters[v.Sender] = m.step
	m.votes = append(m.votes, vv)
	m.weight[v.Value] += vv.NumVotes
	if float64(m.weight[v.Value]) > m.threshold {
		return VoteCounted, m.end(false, v.Value)
	}
	return VoteCounted, nil
}

// Timeout ends the step being counted without a winner.
func (m *Machine) Timeout() []Action {
	if m.step == 0 {
		return nil
	}
	return m.end(true, crypto.Digest{})
}

func (m *Machine) vote(step, tau uint64, value crypto.Digest) {
	m.acts = append(m.acts, Action{Kind: ActVote, Step: step, Tau: tau, Value: value})
}

// count starts counting step with an empty tally.
func (m *Machine) count(step uint64, lambda time.Duration) {
	T, tau := m.prm.TStep, m.prm.TauStep
	if step == StepFinal {
		T, tau = m.prm.TFinal, m.prm.TauFinal
	}
	m.step, m.threshold = step, float64(tau)*T
	clear(m.weight)
	clear(m.votes)
	m.votes = m.votes[:0]
	m.acts = append(m.acts, Action{Kind: ActCount, Step: step, Lambda: lambda})
}

// end ends the step being counted — it timed out, or value crossed the
// threshold — and moves on to what follows it.
func (m *Machine) end(timedOut bool, value crypto.Digest) []Action {
	step := m.step
	m.step, m.acts = 0, m.acts[:0]
	if timedOut {
		value = m.ctx.EmptyHash // what either Reduction step falls back to
	}
	switch step {
	case StepReduction1:
		// Re-gossip the popular block hash.
		m.vote(StepReduction2, m.prm.TauStep, value)
		m.count(StepReduction2, m.prm.LambdaStep)
	case StepReduction2:
		m.k, m.blockHash = 1, value
		m.binaryStep(value)
	case StepFinal:
		// The round's one certificate: the final step's votes if they made
		// it final, else those of the step BinaryBA⋆ concluded in.
		m.out.Final = !timedOut && value == m.out.Value
		step, votes := WireStepOfBinary(m.out.BinarySteps), m.kept
		if m.out.Final {
			step, votes = StepFinal, m.votes
		}
		m.out.Cert = certificateFrom(m.ctx, step, m.out.Value, votes, m.out.Final)
		m.acts = append(m.acts, Action{Kind: ActConclude, Value: m.out.Value})
	default:
		m.binaryEnded(timedOut, value)
	}
	return m.acts
}

// binaryStep votes r in BinaryBA⋆ step k and counts it, unless k has
// reached MaxSteps: then the network is assumed to have problems and
// the §8.2 recovery protocol to restore liveness.
func (m *Machine) binaryStep(r crypto.Digest) {
	if m.k >= m.prm.MaxSteps {
		m.acts = append(m.acts, Action{Kind: ActStuck})
		return
	}
	step := WireStepOfBinary(m.k)
	m.vote(step, m.prm.TauStep, r)
	m.count(step, m.prm.LambdaStep)
}

// binaryEnded is Algorithm 8's one transition. The step's kind, (k−1) % 3,
// decides which winner ends BinaryBA⋆ (block_hash in kind 0, empty_hash in
// kind 1) and what a timeout falls back to: block_hash in kind 0,
// empty_hash in kind 1, and in kind 2 the common coin, which breaks
// adversarial vote splitting. value is the winner, or the empty hash on a
// timeout.
func (m *Machine) binaryEnded(timedOut bool, value crypto.Digest) {
	empty := m.ctx.EmptyHash
	r := value
	switch kind := (m.k - 1) % 3; {
	case !timedOut:
		if kind == 0 && value != empty || kind == 1 && value == empty {
			m.decide(value)
			return
		}
	case kind == 0:
		r = m.blockHash
	case kind == 2 && (m.prm.AblateNoCommonCoin || CommonCoin(m.votes) == 0):
		r = m.blockHash
	}
	m.k++
	m.binaryStep(r)
}

// decide ends BinaryBA⋆ on value at step k. It votes value in the next
// three steps, so that stragglers can cross the threshold, and, when
// consensus came in the very first step, in the final step, to enable
// final consensus. The step's votes are kept for the certificate the
// final step settles on.
func (m *Machine) decide(value crypto.Digest) {
	if !m.prm.AblateNoVoteNext3 {
		for s := m.k + 1; s <= m.k+3; s++ {
			m.vote(WireStepOfBinary(s), m.prm.TauStep, value)
		}
	}
	m.kept = append(m.kept, m.votes...)
	m.out = Outcome{Value: value, BinarySteps: m.k}
	if m.k == 1 {
		m.vote(StepFinal, m.prm.TauFinal, value)
	}
	m.acts = append(m.acts, Action{Kind: ActConclude, Value: value})
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
