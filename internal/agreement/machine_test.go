package agreement

import (
	"reflect"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/params"
)

// TestMachineTransitions drives the machine with no scheduler, one event
// at a time, and asserts the exact actions of every transition: each
// Reduction step, each BinaryBA⋆ step kind on a timeout and on either
// value winning, the final step, MaxSteps and both ablation switches. The
// cases run in turn on one machine, Reset between them, and their voters
// are the same users: what a case leaves in it must not reach the next.
func TestMachineTransitions(t *testing.T) {
	block, other := crypto.HashBytes("machine.block"), crypto.HashBytes("machine.other")
	empty := crypto.HashBytes("machine.empty")
	ctx := &Context{Round: 7, EmptyHash: empty}
	prm := params.Default()
	prm.TauStep, prm.TauFinal, prm.MaxSteps = 100, 300, 10
	prm.LambdaBlock, prm.LambdaStep = 3*time.Second, time.Second
	τs, τf, λ := prm.TauStep, prm.TauFinal, prm.LambdaStep

	type event func(m *Machine) []Action
	start := func(v crypto.Digest) event { return func(m *Machine) []Action { return m.Start(v) } }
	binary := func(v crypto.Digest) event { return func(m *Machine) []Action { return m.StartBinary(v) } }
	timeout := func(m *Machine) []Action { return m.Timeout() }
	confirm := func(m *Machine) []Action { return m.Confirm() }
	sender := 0 // the users of a case are numbered from 1
	// deliver hands the step being counted one vote for v of weight w.
	deliver := func(v crypto.Digest, w uint64, sortHash byte) event {
		return func(m *Machine) []Action {
			sender++
			vote := &ledger.Vote{Sender: crypto.PublicKey(crypto.HashUint64("machine.sender", uint64(sender))),
				Round: ctx.Round, Step: m.step, Value: v}
			vote.SortHash[0] = sortHash
			_, acts := m.Deliver(&ValidatedVote{Vote: vote, NumVotes: w})
			return acts
		}
	}
	wins := func(v crypto.Digest) event { return deliver(v, τf, 0) }
	vote := func(step, tau uint64, v crypto.Digest) Action {
		return Action{Kind: ActVote, Step: step, Tau: tau, Value: v}
	}
	count := func(step uint64, lambda time.Duration) Action {
		return Action{Kind: ActCount, Step: step, Lambda: lambda}
	}
	conclude := func(v crypto.Digest) Action { return Action{Kind: ActConclude, Value: v} }
	b := WireStepOfBinary

	// Sortition outputs whose one vote tosses the common coin each way: on
	// 1 a timed-out coin step falls back to the empty hash, on 0 to the
	// block.
	var coin [2]byte
	for _, c := range []int{0, 1} {
		for CommonCoin([]*ValidatedVote{{Vote: &ledger.Vote{SortHash: crypto.VRFOutput{coin[c]}}, NumVotes: 1}}) != c {
			coin[c]++
		}
	}
	// Kind 0 times out to the block, kind 1 to the empty hash: these reach
	// BinaryBA⋆ step k of a machine started on the block.
	atStep := func(k int) []event {
		evs := []event{binary(block)}
		for i := 1; i < k; i++ {
			evs = append(evs, timeout)
		}
		return evs
	}
	concludedOnBlock := []event{binary(block), wins(block)}

	// The outcome of a concluded case; certStep is its certificate's step,
	// 0 while BinaryBA⋆ has concluded and the final step has not.
	type outcome struct {
		Outcome
		certStep uint64
	}
	cases := []struct {
		name    string
		prm     func(p *params.Params)
		events  []event // the last one's actions are asserted
		want    []Action
		outcome *outcome
	}{
		{name: "start", events: []event{start(block)},
			want: []Action{vote(StepReduction1, τs, block), count(StepReduction1, prm.LambdaBlock+λ)}},
		{name: "reduction 1 times out", events: []event{start(block), timeout},
			want: []Action{vote(StepReduction2, τs, empty), count(StepReduction2, λ)}},
		{name: "reduction 1 won", events: []event{start(block), wins(other)},
			want: []Action{vote(StepReduction2, τs, other), count(StepReduction2, λ)}},
		{name: "reduction 2 times out", events: []event{start(block), wins(block), timeout},
			want: []Action{vote(b(1), τs, empty), count(b(1), λ)}},
		{name: "reduction 2 won", events: []event{start(block), timeout, wins(other)},
			want: []Action{vote(b(1), τs, other), count(b(1), λ)}},

		{name: "kind 0 times out to the block", events: append(atStep(4), deliver(empty, 1, 0), timeout),
			want: []Action{vote(b(5), τs, block), count(b(5), λ)}},
		{name: "kind 0 won by the block at step 1", events: concludedOnBlock,
			want:    []Action{vote(b(2), τs, block), vote(b(3), τs, block), vote(b(4), τs, block), vote(StepFinal, τf, block), conclude(block)},
			outcome: &outcome{Outcome: Outcome{Value: block, BinarySteps: 1}}},
		{name: "kind 0 won by the block after step 1", events: append(atStep(4), wins(block)),
			want:    []Action{vote(b(5), τs, block), vote(b(6), τs, block), vote(b(7), τs, block), conclude(block)},
			outcome: &outcome{Outcome: Outcome{Value: block, BinarySteps: 4}}},
		{name: "kind 0 won by the empty hash", events: append(atStep(1), wins(empty)),
			want: []Action{vote(b(2), τs, empty), count(b(2), λ)}},
		{name: "kind 1 times out to the empty hash", events: append(atStep(2), timeout),
			want: []Action{vote(b(3), τs, empty), count(b(3), λ)}},
		{name: "kind 1 won by the block", events: append(atStep(2), wins(block)),
			want: []Action{vote(b(3), τs, block), count(b(3), λ)}},
		{name: "kind 1 won by the empty hash", events: append(atStep(2), wins(empty)),
			want:    []Action{vote(b(3), τs, empty), vote(b(4), τs, empty), vote(b(5), τs, empty), conclude(empty)},
			outcome: &outcome{Outcome: Outcome{Value: empty, BinarySteps: 2}}},
		{name: "kind 2 times out to the block on coin 0", events: append(atStep(3), deliver(empty, 1, coin[0]), timeout),
			want: []Action{vote(b(4), τs, block), count(b(4), λ)}},
		{name: "kind 2 times out to the empty hash on coin 1", events: append(atStep(3), deliver(block, 1, coin[1]), timeout),
			want: []Action{vote(b(4), τs, empty), count(b(4), λ)}},
		{name: "kind 2 won by the block", events: append(atStep(3), wins(block)),
			want: []Action{vote(b(4), τs, block), count(b(4), λ)}},
		{name: "kind 2 won by the empty hash", events: append(atStep(3), wins(empty)),
			want: []Action{vote(b(4), τs, empty), count(b(4), λ)}},

		{name: "confirm", events: append(concludedOnBlock, confirm), want: []Action{count(StepFinal, λ)}},
		{name: "final step won", events: append(concludedOnBlock, confirm, wins(block)),
			want: []Action{conclude(block)}, outcome: &outcome{Outcome{Value: block, BinarySteps: 1, Final: true}, StepFinal}},
		{name: "final step times out", events: append(concludedOnBlock, confirm, deliver(block, 1, 0), timeout),
			want: []Action{conclude(block)}, outcome: &outcome{Outcome{Value: block, BinarySteps: 1}, b(1)}},
		{name: "final step won by another value", events: append(concludedOnBlock, confirm, wins(other)),
			want: []Action{conclude(block)}, outcome: &outcome{Outcome{Value: block, BinarySteps: 1}, b(1)}},
		{name: "tentative after step 2", events: append(atStep(2), wins(empty), confirm, timeout),
			want: []Action{conclude(empty)}, outcome: &outcome{Outcome{Value: empty, BinarySteps: 2}, b(2)}},

		{name: "MaxSteps 1", prm: func(p *params.Params) { p.MaxSteps = 1 }, events: atStep(1),
			want: []Action{{Kind: ActStuck}}},
		{name: "MaxSteps reached", prm: func(p *params.Params) { p.MaxSteps = 3 }, events: atStep(3),
			want: []Action{{Kind: ActStuck}}},
		{name: "no vote-next-3", prm: func(p *params.Params) { p.AblateNoVoteNext3 = true }, events: concludedOnBlock,
			want: []Action{vote(StepFinal, τf, block), conclude(block)}},
		{name: "no common coin", prm: func(p *params.Params) { p.AblateNoCommonCoin = true },
			events: append(atStep(3), deliver(block, 1, coin[1]), timeout),
			want:   []Action{vote(b(4), τs, block), count(b(4), λ)}},
	}
	var m *Machine
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := prm
			if tc.prm != nil {
				tc.prm(&p)
			}
			if m == nil {
				m = NewMachine(ctx, p)
			} else {
				m.Reset(ctx, p)
			}
			sender = 0
			var acts []Action
			for _, ev := range tc.events {
				acts = ev(m)
			}
			if !reflect.DeepEqual(acts, tc.want) {
				t.Fatalf("actions\n got %+v\nwant %+v", acts, tc.want)
			}
			if tc.outcome == nil {
				return
			}
			out, want := m.out, tc.outcome
			if out.Value != want.Value || out.BinarySteps != want.BinarySteps || out.Final != want.Final {
				t.Fatalf("outcome %+v, want %+v", out, want.Outcome)
			}
			// The one certificate holds the one vote for the value that the
			// final step counted if the round is final, else the one the
			// concluding BinaryBA⋆ step counted.
			cert := out.Cert
			switch {
			case want.certStep == 0:
				if cert != nil {
					t.Fatalf("a certificate of step %d before the final step ended", cert.Step)
				}
			case cert == nil:
				t.Fatal("no certificate")
			case cert.Round != ctx.Round || cert.Step != want.certStep || cert.Value != out.Value || cert.Final != out.Final:
				t.Fatalf("certificate of round %d step %d for %v, final %v; want step %d", cert.Round, cert.Step, cert.Value, cert.Final, want.certStep)
			case len(cert.Votes) != 1 || cert.Votes[0].Step != cert.Step || cert.Votes[0].Value != cert.Value:
				t.Fatalf("certificate holds %+v, want the one vote of its step for its value", cert.Votes)
			}
		})
	}
}

// TestMachineDeliverReceipts: a sender counts once per step, a vote of
// another step or without sub-user votes is not counted, and nothing —
// no vote, no timeout — moves a machine between steps.
func TestMachineDeliverReceipts(t *testing.T) {
	ctx := &Context{Round: 7, EmptyHash: crypto.HashBytes("machine.empty")}
	m := NewMachine(ctx, params.Default())
	vv := func(sender string, step, n uint64) *ValidatedVote {
		return &ValidatedVote{Vote: &ledger.Vote{Sender: crypto.PublicKey(crypto.HashBytes(sender)), Round: ctx.Round,
			Step: step, Value: ctx.EmptyHash}, NumVotes: n}
	}
	if rc, _ := m.Deliver(vv("a", StepReduction1, 1)); rc != VoteIgnored || m.Timeout() != nil {
		t.Fatalf("before any step: a vote %v, a timeout %v", rc, m.Timeout())
	}
	m.Start(ctx.EmptyHash)
	for _, c := range []struct {
		vv   *ValidatedVote
		want Receipt
	}{
		{vv("a", StepReduction1, 1), VoteCounted},
		{vv("a", StepReduction1, 1), VoteDuplicate},
		{vv("b", StepReduction2, 1), VoteIgnored},
		{vv("c", StepReduction1, 0), VoteIgnored},
		{vv("c", StepReduction1, 2), VoteCounted},
	} {
		if rc, acts := m.Deliver(c.vv); rc != c.want || acts != nil {
			t.Fatalf("%v: %v (%v), want %v", c.vv.Vote.Sender, rc, acts, c.want)
		}
	}
	if len(m.votes) != 2 || m.weight[ctx.EmptyHash] != 3 {
		t.Fatalf("tally holds %d votes of weight %d, want 2 of 3", len(m.votes), m.weight[ctx.EmptyHash])
	}
}
