package agreement

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/metrics"
	"algorand/internal/params"
	"algorand/internal/sortition"
	"algorand/internal/vtime"
)

// The parent commit's BA⋆, frozen as the oracle Machine and Drive are held
// to: the paper's blocking pseudocode (Algorithms 4, 5, 7, 8 and the final
// step) as it ran before they replaced it, with env.Params passed as prm,
// and the certificate its host stored: the final step's when the round is
// final, else the concluding BinaryBA⋆ step's.

func parentCommitteeVote(env *Env, ctx *Context, step uint64, tau uint64, value crypto.Digest) {
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

type parentCount struct {
	value    crypto.Digest
	timedOut bool
	votes    []*ValidatedVote
}

func parentCountVotes(env *Env, ctx *Context, step uint64, T float64, tau uint64, lambda time.Duration) parentCount {
	start := env.Proc.Now()
	res := parentCountVotesInner(env, ctx, step, T, tau, lambda)
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

func parentCountVotesInner(env *Env, ctx *Context, step uint64, T float64, tau uint64, lambda time.Duration) parentCount {
	var res parentCount
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

func parentReduction(env *Env, prm params.Params, ctx *Context, hblock crypto.Digest) crypto.Digest {
	parentCommitteeVote(env, ctx, StepReduction1, prm.TauStep, hblock)
	r1 := parentCountVotes(env, ctx, StepReduction1, prm.TStep, prm.TauStep, prm.LambdaBlock+prm.LambdaStep)
	if r1.timedOut {
		parentCommitteeVote(env, ctx, StepReduction2, prm.TauStep, ctx.EmptyHash)
	} else {
		parentCommitteeVote(env, ctx, StepReduction2, prm.TauStep, r1.value)
	}
	r2 := parentCountVotes(env, ctx, StepReduction2, prm.TStep, prm.TauStep, prm.LambdaStep)
	if r2.timedOut {
		return ctx.EmptyHash
	}
	return r2.value
}

func parentBinaryBA(env *Env, prm params.Params, ctx *Context, blockHash crypto.Digest) (Outcome, error) {
	step := 1
	r := blockHash
	emptyHash := ctx.EmptyHash

	voteNext3 := func(step int, value crypto.Digest) {
		if prm.AblateNoVoteNext3 {
			return
		}
		for s := step + 1; s <= step+3; s++ {
			parentCommitteeVote(env, ctx, WireStepOfBinary(s), prm.TauStep, value)
		}
	}

	for step < prm.MaxSteps {
		parentCommitteeVote(env, ctx, WireStepOfBinary(step), prm.TauStep, r)
		cr := parentCountVotes(env, ctx, WireStepOfBinary(step), prm.TStep, prm.TauStep, prm.LambdaStep)
		if cr.timedOut {
			r = blockHash
		} else if cr.value != emptyHash {
			r = cr.value
			voteNext3(step, r)
			res := Outcome{Value: r, BinarySteps: step}
			res.Cert = certificateFrom(ctx, WireStepOfBinary(step), r, cr.votes, false)
			if step == 1 {
				parentCommitteeVote(env, ctx, StepFinal, prm.TauFinal, r)
			}
			return res, nil
		} else {
			r = cr.value
		}
		step++
		if step >= prm.MaxSteps {
			break
		}

		parentCommitteeVote(env, ctx, WireStepOfBinary(step), prm.TauStep, r)
		cr = parentCountVotes(env, ctx, WireStepOfBinary(step), prm.TStep, prm.TauStep, prm.LambdaStep)
		if cr.timedOut {
			r = emptyHash
		} else if cr.value == emptyHash {
			r = cr.value
			voteNext3(step, r)
			res := Outcome{Value: r, BinarySteps: step}
			res.Cert = certificateFrom(ctx, WireStepOfBinary(step), r, cr.votes, false)
			return res, nil
		} else {
			r = cr.value
		}
		step++
		if step >= prm.MaxSteps {
			break
		}

		parentCommitteeVote(env, ctx, WireStepOfBinary(step), prm.TauStep, r)
		cr = parentCountVotes(env, ctx, WireStepOfBinary(step), prm.TStep, prm.TauStep, prm.LambdaStep)
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
	return Outcome{}, ErrNoConsensus
}

func parentWaitFinal(env *Env, prm params.Params, ctx *Context, value crypto.Digest) *ledger.Certificate {
	fr := parentCountVotes(env, ctx, StepFinal, prm.TFinal, prm.TauFinal, prm.LambdaStep)
	if !fr.timedOut && fr.value == value {
		return certificateFrom(ctx, StepFinal, fr.value, fr.votes, true)
	}
	return nil
}

// baImpl runs one node's BA⋆ from start — Reduction first, or straight
// into BinaryBA⋆ when binaryOnly — and then the final step.
type baImpl func(env *Env, prm params.Params, ctx *Context, start crypto.Digest, binaryOnly bool) (Outcome, error)

func parentImpl(env *Env, prm params.Params, ctx *Context, start crypto.Digest, binaryOnly bool) (Outcome, error) {
	hblock := start
	if !binaryOnly {
		hblock = parentReduction(env, prm, ctx, start)
	}
	out, err := parentBinaryBA(env, prm, ctx, hblock)
	if err != nil {
		return Outcome{}, err
	}
	if fc := parentWaitFinal(env, prm, ctx, out.Value); fc != nil {
		out.Final, out.Cert = true, fc
	}
	return out, nil
}

// reusedMachines is Machine and Drive as a node runs them, on a machine
// it keeps from round to round: each honest user takes a machine another
// one left in an earlier schedule, Reset, or a new one if none is spare.
func reusedMachines() baImpl {
	var spare []*Machine
	return func(env *Env, prm params.Params, ctx *Context, start crypto.Digest, binaryOnly bool) (Outcome, error) {
		var m *Machine
		if k := len(spare); k > 0 {
			m, spare = spare[k-1], spare[:k-1]
			m.Reset(ctx, prm)
		} else {
			m = NewMachine(ctx, prm)
		}
		defer func() { spare = append(spare, m) }()
		acts := m.Start(start)
		if binaryOnly {
			acts = m.StartBinary(start)
		}
		if _, err := Drive(env, m, acts); err != nil {
			return Outcome{}, err
		}
		return Drive(env, m, m.Confirm())
	}
}

// schedule is one seeded configuration: 4–7 voters with random stake,
// committee sizes, thresholds, MaxSteps and ablation switches, per-link
// delays and drops, a silent voter and an equivocating one (each or
// neither), and honest inputs split across two blocks and the empty hash.
type schedule struct {
	seed                int64
	weights             []uint64
	prm                 params.Params
	inputs              []crypto.Digest
	startAt             []time.Duration
	silent, equivocator int // -1: none
	binaryOnly          bool
	maxDelay            time.Duration
	drop                float64
}

func newSchedule(seed int64) *schedule {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(4)
	sc := &schedule{seed: seed, silent: -1, equivocator: -1, binaryOnly: rng.Intn(4) == 0}
	var total uint64
	for i := 0; i < n; i++ {
		w := uint64(5 + rng.Intn(16))
		sc.weights = append(sc.weights, w)
		total += w
	}
	prm := params.Default()
	prm.TauStep = total/2 + uint64(rng.Int63n(int64(total/2)))
	prm.TauFinal = total/2 + uint64(rng.Int63n(int64(total/2)))
	prm.TStep = 0.5 + 0.3*rng.Float64()
	prm.TFinal = 0.6 + 0.25*rng.Float64()
	prm.MaxSteps = 1 + rng.Intn(12)
	prm.LambdaStep = time.Duration(500+rng.Intn(1500)) * time.Millisecond
	prm.LambdaBlock = time.Duration(rng.Intn(2000)) * time.Millisecond
	prm.AblateNoVoteNext3 = rng.Intn(4) == 0
	prm.AblateNoCommonCoin = rng.Intn(4) == 0
	sc.prm = prm
	sc.maxDelay = time.Duration(1+rng.Int63n(int64(prm.LambdaStep*3/2))) * time.Nanosecond
	sc.drop = 0.3 * rng.Float64()
	if rng.Intn(2) == 0 {
		sc.silent = rng.Intn(n)
	}
	if rng.Intn(2) == 0 {
		if e := rng.Intn(n); e != sc.silent {
			sc.equivocator = e
		}
	}
	values := []crypto.Digest{crypto.HashBytes("oracle.A"), crypto.HashBytes("oracle.A"), crypto.HashBytes("oracle.B"), oracleEmpty}
	for i := 0; i < n; i++ {
		sc.inputs = append(sc.inputs, values[rng.Intn(len(values))])
		sc.startAt = append(sc.startAt, time.Duration(rng.Int63n(int64(prm.LambdaStep/2))))
	}
	return sc
}

var oracleEmpty = crypto.HashBytes("oracle.empty")

func (sc *schedule) String() string {
	return fmt.Sprintf("seed %d: %d voters, τ %d/%d, T %.3f/%.3f, MaxSteps %d, λ %v/%v, binary only %v, no vote-next-3 %v, no coin %v, delay ≤ %v, drop %.2f, silent %d, equivocator %d",
		sc.seed, len(sc.weights), sc.prm.TauStep, sc.prm.TauFinal, sc.prm.TStep, sc.prm.TFinal, sc.prm.MaxSteps,
		sc.prm.LambdaBlock, sc.prm.LambdaStep, sc.binaryOnly, sc.prm.AblateNoVoteNext3, sc.prm.AblateNoCommonCoin,
		sc.maxDelay, sc.drop, sc.silent, sc.equivocator)
}

// castVote is one vote a user signed and gossiped.
type castVote struct {
	At     time.Duration
	Sender int
	Step   uint64
	Value  crypto.Digest
}

// stepObs is one StepTimer observation.
type stepObs struct {
	Step     uint64
	Took     time.Duration
	TimedOut bool
}

// nodeResult is everything an honest user's BA⋆ left observable.
type nodeResult struct {
	Out      Outcome
	Err      error
	Done     time.Duration
	Steps    []stepObs
	Counters [7]float64
}

type trialResult struct {
	Votes []castVote
	Nodes []nodeResult
}

// run plays the schedule with impl on every honest user.
func (sc *schedule) run(impl baImpl) trialResult {
	n := len(sc.weights)
	s := vtime.New()
	provider := crypto.NewFast()
	rng := rand.New(rand.NewSource(sc.seed))
	var ids []crypto.Identity
	weights := make(map[crypto.PublicKey]uint64, n)
	var total uint64
	for i, w := range sc.weights {
		// The same users in every schedule, as a node's committee is much
		// the same from one round to the next.
		id := provider.NewIdentity(crypto.SeedFromUint64(uint64(i)))
		ids = append(ids, id)
		weights[id.PublicKey()] = w
		total += w
	}
	ctx := &Context{Round: 1, Seed: crypto.HashUint64("oracle.seed", uint64(sc.seed)), Weights: weights,
		TotalWeight: total, LastBlockHash: crypto.HashBytes("oracle.last"), EmptyHash: oracleEmpty}
	inboxes := make([]map[uint64]*vtime.Mailbox, n)
	inbox := func(i int, step uint64) *vtime.Mailbox {
		if inboxes[i] == nil {
			inboxes[i] = make(map[uint64]*vtime.Mailbox)
		}
		mb, ok := inboxes[i][step]
		if !ok {
			mb = s.NewMailbox()
			inboxes[i][step] = mb
		}
		return mb
	}
	var res trialResult
	gossip := func(from int) func(v *ledger.Vote, _ uint64) {
		return func(v *ledger.Vote, _ uint64) {
			res.Votes = append(res.Votes, castVote{s.Now(), from, v.Step, v.Value})
			for i := 0; i < n; i++ {
				dropped := rng.Float64() < sc.drop && i != from
				delay := time.Millisecond + time.Duration(rng.Int63n(int64(sc.maxDelay)))
				if dropped {
					continue
				}
				s.After(delay, func() {
					if nv := ProcessVote(provider, sc.prm, ctx, v); nv > 0 {
						inbox(i, v.Step).Send(&ValidatedVote{Vote: v, NumVotes: nv})
					}
				})
			}
		}
	}
	env := func(i int, p *vtime.Proc) *Env {
		return &Env{Proc: p, Identity: ids[i], Gossip: gossip(i),
			Inbox: func(_, step uint64) *vtime.Mailbox { return inbox(i, step) }}
	}

	res.Nodes = make([]nodeResult, n)
	for i := 0; i < n; i++ {
		switch i {
		case sc.silent:
		case sc.equivocator:
			// Both values of every step, the block first, half a λ apart.
			s.Spawn("equivocator", func(p *vtime.Proc) {
				e := env(i, p)
				steps := []uint64{StepReduction1, StepReduction2}
				for k := 1; k <= sc.prm.MaxSteps+3; k++ {
					steps = append(steps, WireStepOfBinary(k))
				}
				for _, step := range append(steps, StepFinal) {
					tau := sc.prm.TauStep
					if step == StepFinal {
						tau = sc.prm.TauFinal
					}
					parentCommitteeVote(e, ctx, step, tau, sc.inputs[i])
					parentCommitteeVote(e, ctx, step, tau, oracleEmpty)
					p.Sleep(sc.prm.LambdaStep / 2)
				}
			})
		default:
			s.Spawn("honest", func(p *vtime.Proc) {
				p.Sleep(sc.startAt[i])
				e := env(i, p)
				nr := &res.Nodes[i]
				e.StepTimer = func(step uint64, took time.Duration, timedOut bool) {
					nr.Steps = append(nr.Steps, stepObs{step, took, timedOut})
				}
				e.Metrics = NewMetrics(metrics.NewRegistry())
				nr.Out, nr.Err = impl(e, sc.prm, ctx, sc.inputs[i], sc.binaryOnly)
				nr.Done = p.Now()
				mt := e.Metrics
				nr.Counters = [7]float64{float64(mt.Steps.Load()), float64(mt.StepTimeouts.Load()), float64(mt.VotesCounted.Load()),
					float64(mt.VotesDeduped.Load()), float64(mt.VotesCast.Load()), float64(mt.StepSeconds.Count()), mt.StepSeconds.Sum()}
			})
		}
	}
	s.Run(time.Hour)
	return res
}

// TestMachineMatchesParent holds Machine and Drive to the blocking BA⋆
// they replaced: on 300 seeded schedules, every vote gossiped (when, by
// whom, in which step, for what), every outcome (value, binary steps,
// the certificate vote for vote, finality, error), every StepTimer
// reading and every counter must be the same. Each schedule runs on
// machines the schedules before it left behind.
func TestMachineMatchesParent(t *testing.T) {
	var final, tentative, stuck, coinSteps int
	machineImpl := reusedMachines()
	for seed := int64(1); seed <= 300; seed++ {
		sc := newSchedule(seed)
		want, got := sc.run(parentImpl), sc.run(machineImpl)
		if !reflect.DeepEqual(want.Votes, got.Votes) {
			for i := range want.Votes {
				if i >= len(got.Votes) || want.Votes[i] != got.Votes[i] {
					t.Fatalf("%v\nvote %d of %d: parent cast %+v, machine %+v", sc, i, len(want.Votes), want.Votes[i], got.Votes[i:min(i+1, len(got.Votes))])
				}
			}
			t.Fatalf("%v\nmachine cast %d votes, parent %d", sc, len(got.Votes), len(want.Votes))
		}
		for i := range want.Nodes {
			if !reflect.DeepEqual(want.Nodes[i], got.Nodes[i]) {
				t.Fatalf("%v\nnode %d: parent %+v\nmachine %+v", sc, i, want.Nodes[i], got.Nodes[i])
			}
			switch nr := want.Nodes[i]; {
			case i == sc.silent || i == sc.equivocator:
			case nr.Err != nil:
				stuck++
			case nr.Out.Final:
				final++
			default:
				tentative++
			}
			if want.Nodes[i].Out.BinarySteps >= 3 {
				coinSteps++
			}
		}
	}
	t.Logf("honest outcomes: %d final, %d tentative, %d stuck; %d past a coin step", final, tentative, stuck, coinSteps)
	if final == 0 || tentative == 0 || stuck == 0 || coinSteps == 0 {
		t.Fatal("the schedules miss a kind of outcome; test premise broken")
	}
}
