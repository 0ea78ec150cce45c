package agreement

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/params"
	"algorand/internal/sortition"
	"algorand/internal/vtime"
)

// harness wires n users over an idealized broadcast medium (uniform
// small latency) so BA⋆ can be tested in isolation from the gossip
// network. Votes are validated at each receiver with ProcessVote, as
// the node layer does in production.
type harness struct {
	sim      *vtime.Sim
	provider crypto.Provider
	prm      params.Params
	ctx      *Context
	ids      []crypto.Identity
	inboxes  []map[[2]uint64]*vtime.Mailbox
	rng      *rand.Rand
	// dropVotes, when set, filters delivery (for partition tests):
	// return true to drop the vote going to receiver i.
	dropVotes func(v *ledger.Vote, receiver int) bool
}

func newHarness(t testing.TB, n int, tau uint64) *harness {
	h := &harness{
		sim:      vtime.New(),
		provider: crypto.NewFast(),
		rng:      rand.New(rand.NewSource(42)),
	}
	h.prm = params.Default()
	h.prm.TauStep = tau
	h.prm.TauFinal = tau
	h.prm.MaxSteps = 30
	weights := make(map[crypto.PublicKey]uint64, n)
	for i := 0; i < n; i++ {
		id := h.provider.NewIdentity(crypto.SeedFromUint64(uint64(i)))
		h.ids = append(h.ids, id)
		weights[id.PublicKey()] = 10
		h.inboxes = append(h.inboxes, make(map[[2]uint64]*vtime.Mailbox))
	}
	lastHash := crypto.HashBytes("last-block")
	h.ctx = &Context{
		Round:         1,
		Seed:          crypto.HashBytes("test-seed"),
		Weights:       weights,
		TotalWeight:   uint64(n) * 10,
		LastBlockHash: lastHash,
		EmptyHash:     crypto.HashBytes("empty-block"),
	}
	return h
}

func (h *harness) inbox(node int, round, step uint64) *vtime.Mailbox {
	key := [2]uint64{round, step}
	mb, ok := h.inboxes[node][key]
	if !ok {
		mb = h.sim.NewMailbox()
		h.inboxes[node][key] = mb
	}
	return mb
}

// broadcast delivers a vote to every node (including the sender) after
// a small random latency, validating at each receiver.
func (h *harness) broadcast(v *ledger.Vote, _ uint64) {
	for i := range h.ids {
		i := i
		if h.dropVotes != nil && h.dropVotes(v, i) {
			continue
		}
		delay := time.Duration(1+h.rng.Intn(50)) * time.Millisecond
		h.sim.After(delay, func() {
			nv := ProcessVote(h.provider, h.prm, h.ctx, v)
			if nv == 0 {
				return
			}
			h.inbox(i, v.Round, v.Step).Send(&ValidatedVote{Vote: v, NumVotes: nv})
		})
	}
}

func (h *harness) env(node int) *Env {
	return &Env{
		Provider: h.provider,
		Identity: h.ids[node],
		Params:   h.prm,
		Gossip:   h.broadcast,
		Inbox: func(round, step uint64) *vtime.Mailbox {
			return h.inbox(node, round, step)
		},
	}
}

// runAll runs BA⋆ on every node and collects outcomes.
func (h *harness) runAll(start func(i int) crypto.Digest) ([]Outcome, []error) {
	n := len(h.ids)
	outs := make([]Outcome, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		env := h.env(i)
		h.sim.Spawn("node", func(p *vtime.Proc) {
			env.Proc = p
			outs[i], errs[i] = Run(env, h.ctx, start(i))
		})
	}
	h.sim.Run(time.Hour)
	return outs, errs
}

func TestUnanimousFinalConsensus(t *testing.T) {
	h := newHarness(t, 40, 30)
	block := crypto.HashBytes("proposed-block")
	outs, errs := h.runAll(func(int) crypto.Digest { return block })

	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for i, o := range outs {
		if o.Value != block {
			t.Fatalf("node %d agreed on %v, want %v", i, o.Value, block)
		}
		if !o.Final {
			t.Fatalf("node %d reached only tentative consensus", i)
		}
		if o.BinarySteps != 1 {
			t.Fatalf("node %d took %d binary steps, want 1", i, o.BinarySteps)
		}
		if o.FinalCert == nil || o.Cert == nil {
			t.Fatalf("node %d missing certificates", i)
		}
	}
}

func TestSplitProposalsFallToEmpty(t *testing.T) {
	h := newHarness(t, 40, 30)
	a := crypto.HashBytes("block-A")
	b := crypto.HashBytes("block-B")
	outs, errs := h.runAll(func(i int) crypto.Digest {
		if i%2 == 0 {
			return a
		}
		return b
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for i, o := range outs {
		if o.Value != h.ctx.EmptyHash {
			t.Fatalf("node %d agreed on %v, want empty hash", i, o.Value)
		}
	}
	// All outcomes must agree with each other (safety).
	for i := 1; i < len(outs); i++ {
		if outs[i].Value != outs[0].Value {
			t.Fatal("disagreement between honest nodes")
		}
	}
}

// TestAgreementWithEquivocatingCommittee: 20% of the users (the
// paper's h=80% operating point) double-vote (for the block and for
// empty) at every step. Honest nodes must still all agree on one value.
func TestAgreementWithEquivocatingCommittee(t *testing.T) {
	h := newHarness(t, 45, 30)
	block := crypto.HashBytes("contested-block")
	nMal := 9

	// Malicious users: spawn processes that vote both values at every
	// wire step they are selected for, instead of running BA⋆.
	for i := 0; i < nMal; i++ {
		env := h.env(i)
		h.sim.Spawn("adversary", func(p *vtime.Proc) {
			env.Proc = p
			steps := []uint64{StepReduction1, StepReduction2}
			for k := 1; k <= 12; k++ {
				steps = append(steps, WireStepOfBinary(k))
			}
			steps = append(steps, StepFinal)
			for _, s := range steps {
				tau := h.prm.TauStep
				if s == StepFinal {
					tau = h.prm.TauFinal
				}
				CommitteeVote(env, h.ctx, s, tau, block)
				CommitteeVote(env, h.ctx, s, tau, h.ctx.EmptyHash)
				p.Sleep(h.prm.LambdaStep / 2)
			}
		})
	}

	// Honest users run the real protocol.
	outs := make([]Outcome, len(h.ids))
	errs := make([]error, len(h.ids))
	for i := nMal; i < len(h.ids); i++ {
		i := i
		env := h.env(i)
		h.sim.Spawn("honest", func(p *vtime.Proc) {
			env.Proc = p
			outs[i], errs[i] = Run(env, h.ctx, block)
		})
	}
	h.sim.Run(2 * time.Hour)

	var agreed *crypto.Digest
	for i := nMal; i < len(h.ids); i++ {
		if errs[i] != nil {
			t.Fatalf("honest node %d: %v", i, errs[i])
		}
		if agreed == nil {
			v := outs[i].Value
			agreed = &v
		} else if outs[i].Value != *agreed {
			t.Fatalf("safety violation: node %d on %v, others on %v", i, outs[i].Value, *agreed)
		}
	}
}

func TestCertificatesVerify(t *testing.T) {
	h := newHarness(t, 40, 30)
	block := crypto.HashBytes("certified-block")
	outs, _ := h.runAll(func(int) crypto.Digest { return block })

	o := outs[0]
	if o.Cert == nil {
		t.Fatal("no certificate")
	}
	threshold := uint64(float64(h.prm.TauStep) * h.prm.TStep)
	err := o.Cert.Verify(h.provider, h.ctx.Seed, h.ctx.Weights, h.ctx.TotalWeight,
		h.prm.TauStep, threshold, h.ctx.LastBlockHash)
	if err != nil {
		t.Fatalf("tentative certificate invalid: %v", err)
	}
	if o.FinalCert == nil {
		t.Fatal("no final certificate")
	}
	fThreshold := uint64(float64(h.prm.TauFinal) * h.prm.TFinal)
	err = o.FinalCert.Verify(h.provider, h.ctx.Seed, h.ctx.Weights, h.ctx.TotalWeight,
		h.prm.TauFinal, fThreshold, h.ctx.LastBlockHash)
	if err != nil {
		t.Fatalf("final certificate invalid: %v", err)
	}
	if !o.FinalCert.Final || o.Cert.Final {
		t.Fatal("certificate finality flags wrong")
	}
}

func TestLaggingNodeCatchesUp(t *testing.T) {
	h := newHarness(t, 40, 30)
	block := crypto.HashBytes("late-block")
	n := len(h.ids)
	outs := make([]Outcome, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		env := h.env(i)
		h.sim.Spawn("node", func(p *vtime.Proc) {
			env.Proc = p
			if i == 0 {
				p.Sleep(3 * time.Second) // one straggler
			}
			outs[i], errs[i] = Run(env, h.ctx, block)
		})
	}
	h.sim.Run(time.Hour)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		if outs[i].Value != block {
			t.Fatalf("node %d missed consensus", i)
		}
	}
}

// TestPartitionedStepYieldsNoSplit: drop all votes to a minority group
// during the whole run; the majority still decides, and the minority
// either agrees or hangs (no conflicting decision).
func TestPartitionedMinorityNeverDecidesDifferently(t *testing.T) {
	h := newHarness(t, 40, 30)
	block := crypto.HashBytes("partition-block")
	minority := map[int]bool{0: true, 1: true, 2: true}
	h.dropVotes = func(v *ledger.Vote, receiver int) bool {
		return minority[receiver]
	}
	outs, errs := h.runAll(func(int) crypto.Digest { return block })

	var majorityValue *crypto.Digest
	for i := range outs {
		if minority[i] {
			continue
		}
		if errs[i] != nil {
			t.Fatalf("majority node %d: %v", i, errs[i])
		}
		if majorityValue == nil {
			v := outs[i].Value
			majorityValue = &v
		} else if outs[i].Value != *majorityValue {
			t.Fatal("majority disagreement")
		}
	}
	// Minority nodes received nothing: they must either have errored out
	// (MaxSteps) or agreed with the majority — decided different values
	// is the only forbidden outcome. With total vote loss they march
	// through steps voting alone and eventually hit MaxSteps.
	for i := range minority {
		if errs[i] == nil && outs[i].Value != *majorityValue {
			t.Fatalf("partitioned node %d decided %v against majority %v",
				i, outs[i].Value, *majorityValue)
		}
	}
}

func TestProcessVoteRejections(t *testing.T) {
	h := newHarness(t, 10, 1000)
	env := h.env(0)

	// Build a valid vote by brute force: find a selected identity.
	var valid *ledger.Vote
	for i := range h.ids {
		env := h.env(i)
		_ = env
		role := [2]uint64{1, StepReduction1}
		_ = role
		v := &ledger.Vote{
			Sender:   h.ids[i].PublicKey(),
			Round:    1,
			Step:     StepReduction1,
			PrevHash: h.ctx.LastBlockHash,
			Value:    crypto.HashBytes("v"),
		}
		res := executeSortition(h, i, StepReduction1)
		if res.j == 0 {
			continue
		}
		v.SortHash = res.out
		v.SortProof = res.proof
		v.Sign(h.ids[i])
		valid = v
		break
	}
	if valid == nil {
		t.Fatal("no selected identity found; raise tau")
	}
	if n := ProcessVote(h.provider, h.prm, h.ctx, valid); n == 0 {
		t.Fatal("valid vote rejected")
	}

	bad := *valid
	bad.Value = crypto.HashBytes("other") // breaks signature
	if n := ProcessVote(h.provider, h.prm, h.ctx, &bad); n != 0 {
		t.Fatal("tampered vote accepted")
	}

	wrongChain := *valid
	wrongChain.PrevHash = crypto.Digest{9}
	wrongChain.Sign(h.ids[0]) // signed by wrong identity anyway
	if n := ProcessVote(h.provider, h.prm, h.ctx, &wrongChain); n != 0 {
		t.Fatal("wrong-chain vote accepted")
	}

	wrongStep := *valid
	wrongStep.Step = StepReduction2 // proof no longer matches role
	// Re-sign properly with the original sender? We cannot (not our key
	// in general), so just check rejection path via signature/sortition.
	if n := ProcessVote(h.provider, h.prm, h.ctx, &wrongStep); n != 0 {
		t.Fatal("wrong-step vote accepted")
	}
	_ = env
}

type sortRes struct {
	out   crypto.VRFOutput
	proof []byte
	j     uint64
}

func sortitionExecute(id crypto.Identity, ctx *Context, step uint64, tau, w uint64) sortRes {
	role := sortition.Role{Kind: sortition.RoleCommittee, Round: ctx.Round, Step: step}
	res := sortition.Execute(id, ctx.Seed[:], role, tau, w, ctx.TotalWeight)
	return sortRes{out: res.Output, proof: res.Proof, j: res.J}
}

func executeSortition(h *harness, node int, step uint64) sortRes {
	env := h.env(node)
	// Reuse CommitteeVote's internals via sortition package directly.
	id := env.Identity
	w := h.ctx.Weights[id.PublicKey()]
	res := sortitionExecute(id, h.ctx, step, h.prm.TauStep, w)
	return res
}

func TestCommonCoinProperties(t *testing.T) {
	// Agreement: identical vote sets give identical coins.
	mk := func(seed byte, n int) []*ValidatedVote {
		var votes []*ValidatedVote
		for i := 0; i < n; i++ {
			v := new(ledger.Vote)
			v.SortHash[0] = seed
			v.SortHash[1] = byte(i)
			votes = append(votes, &ValidatedVote{Vote: v, NumVotes: uint64(1 + i%3)})
		}
		return votes
	}
	a := CommonCoin(mk(1, 10))
	b := CommonCoin(mk(1, 10))
	if a != b {
		t.Fatal("coin not deterministic")
	}
	// Empty vote set defaults to 0.
	if CommonCoin(nil) != 0 {
		t.Fatal("empty coin should be 0")
	}
	// Fairness: across many vote sets, both outcomes occur.
	zeros, ones := 0, 0
	for s := 0; s < 100; s++ {
		if CommonCoin(mk(byte(s), 7)) == 0 {
			zeros++
		} else {
			ones++
		}
	}
	if zeros < 20 || ones < 20 {
		t.Fatalf("coin biased: %d zeros, %d ones", zeros, ones)
	}
}

func TestWireStepMapping(t *testing.T) {
	if WireStepOfBinary(1) != 3 {
		t.Fatalf("binary step 1 = wire %d", WireStepOfBinary(1))
	}
	seen := map[uint64]bool{StepReduction1: true, StepReduction2: true, StepFinal: true}
	for k := 1; k < 150; k++ {
		ws := WireStepOfBinary(k)
		if seen[ws] {
			t.Fatalf("wire step collision at binary step %d", k)
		}
		seen[ws] = true
	}
}

func TestStepTimerObservesEveryCount(t *testing.T) {
	h := newHarness(t, 30, 25)
	block := crypto.HashBytes("timed-block")
	var observed []uint64
	env := h.env(0)
	h.sim.Spawn("node", func(p *vtime.Proc) {
		env.Proc = p
		env.StepTimer = func(step uint64, took time.Duration, timedOut bool) {
			observed = append(observed, step)
			if took < 0 {
				t.Errorf("negative step duration")
			}
		}
		Run(env, h.ctx, block)
	})
	// The rest of the population runs without timers.
	for i := 1; i < len(h.ids); i++ {
		i := i
		e := h.env(i)
		h.sim.Spawn("node", func(p *vtime.Proc) {
			e.Proc = p
			Run(e, h.ctx, block)
		})
	}
	h.sim.Run(time.Hour)
	// Common case: reduction1, reduction2, binary step 1, final = 4 counts.
	if len(observed) != 4 {
		t.Fatalf("StepTimer fired %d times (%v), want 4", len(observed), observed)
	}
	if observed[0] != StepReduction1 || observed[1] != StepReduction2 ||
		observed[2] != WireStepOfBinary(1) || observed[3] != StepFinal {
		t.Fatalf("unexpected step order: %v", observed)
	}
}

func TestAblateNoVoteNext3SuppressesExtraVotes(t *testing.T) {
	run := func(ablate bool) int {
		h := newHarness(t, 30, 25)
		h.prm.AblateNoVoteNext3 = ablate
		block := crypto.HashBytes("vn3-block")
		votes := 0
		orig := h.broadcast
		h.dropVotes = nil
		_ = orig
		// Count votes for binary steps beyond the concluding one.
		counting := func(v *ledger.Vote, j uint64) {
			if v.Step > WireStepOfBinary(1) && v.Step < StepFinal {
				votes++
			}
			orig(v, j)
		}
		outs := make([]Outcome, len(h.ids))
		for i := range h.ids {
			i := i
			env := h.env(i)
			env.Gossip = counting
			h.sim.Spawn("node", func(p *vtime.Proc) {
				env.Proc = p
				outs[i], _ = Run(env, h.ctx, block)
			})
		}
		h.sim.Run(time.Hour)
		return votes
	}
	withVotes := run(false)
	without := run(true)
	if withVotes == 0 {
		t.Fatal("expected next-3 votes in the unablated run")
	}
	if without != 0 {
		t.Fatalf("ablated run still cast %d next-step votes", without)
	}
}

// TestAllocBudgetProcessVote guards Algorithm 6 as the simulator runs it
// for every vote every node hears of: the signing bytes and the VRF input
// are built on the stack, so validating a vote allocates nothing.
func TestAllocBudgetProcessVote(t *testing.T) {
	h := newHarness(t, 20, 20)
	var vote *ledger.Vote
	for node := range h.ids {
		if res := executeSortition(h, node, StepReduction1); res.j > 0 {
			id := h.ids[node]
			vote = &ledger.Vote{Sender: id.PublicKey(), Round: h.ctx.Round, Step: StepReduction1,
				SortHash: res.out, SortProof: res.proof, PrevHash: h.ctx.LastBlockHash, Value: h.ctx.EmptyHash}
			vote.Sign(id)
			break
		}
	}
	if vote == nil {
		t.Fatal("no identity sits on the step-1 committee")
	}
	if ProcessVote(h.provider, h.prm, h.ctx, vote) == 0 {
		t.Fatal("valid vote rejected")
	}
	if n := testing.AllocsPerRun(200, func() { ProcessVote(h.provider, h.prm, h.ctx, vote) }); n != 0 {
		t.Errorf("ProcessVote: %v allocations per vote, want 0", n)
	}
}

// voteBy is node's validated vote for value in a step, nil when sortition
// leaves the node off that step's committee.
func (h *harness) voteBy(node int, step uint64, value crypto.Digest) *ValidatedVote {
	res := executeSortition(h, node, step)
	if res.j == 0 {
		return nil
	}
	id := h.ids[node]
	v := &ledger.Vote{Sender: id.PublicKey(), Round: h.ctx.Round, Step: step,
		SortHash: res.out, SortProof: res.proof, PrevHash: h.ctx.LastBlockHash, Value: value}
	v.Sign(id)
	return &ValidatedVote{Vote: v, NumVotes: res.j}
}

// countSent runs one CountVotes of node 0 over votes already in its inbox.
func (h *harness) countSent(step uint64, T float64, sent []*ValidatedVote) (res countResult, allocated uint64) {
	for _, vv := range sent {
		h.inbox(0, h.ctx.Round, step).Send(vv)
	}
	env := h.env(0)
	h.sim.Spawn("counter", func(p *vtime.Proc) {
		env.Proc = p
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res = CountVotes(env, h.ctx, step, T, h.prm.TauStep, h.prm.LambdaStep)
		runtime.ReadMemStats(&after)
		allocated = after.TotalAlloc - before.TotalAlloc
	})
	h.sim.Run(time.Hour)
	return res, allocated
}

// TestAllocBudgetCountVotes guards the one store of a step: what
// CountVotes keeps of a validated vote is the pointer the host sent, and
// that points at the vote gossip delivered, so a step of k votes allocates
// less than half a vote's 328 wire bytes for each — the voter set and the
// list of pointers (it made three copies: the list of all, the list per
// value, the certificate; and the host a fourth).
func TestAllocBudgetCountVotes(t *testing.T) {
	h := newHarness(t, 300, 250)
	step := WireStepOfBinary(1)
	var sent []*ValidatedVote
	for node := range h.ids {
		if vv := h.voteBy(node, step, h.ctx.EmptyHash); vv != nil {
			sent = append(sent, vv)
		}
	}
	if len(sent) < 100 {
		t.Fatalf("only %d of %d users on the committee; raise tau", len(sent), len(h.ids))
	}
	// A threshold nobody reaches: the step counts every vote and times out.
	res, allocated := h.countSent(step, 100, sent)
	if !res.timedOut || len(res.votes) != len(sent) {
		t.Fatalf("counted %d of %d votes, timed out %v", len(res.votes), len(sent), res.timedOut)
	}
	for i := range sent {
		if res.votes[i] != sent[i] || res.votes[i].Vote != sent[i].Vote {
			t.Fatalf("vote %d in the store is not the validated vote the host sent", i)
		}
	}
	if got := unsafe.Sizeof(ValidatedVote{}); got != 16 {
		t.Errorf("a ValidatedVote is %d bytes, want a pointer and a count", got)
	}
	if perVote, half := allocated/uint64(len(sent)), uint64(ledger.VoteWireSize)/2; perVote >= half {
		t.Errorf("counting a vote allocated %d bytes, half a copy of it is %d", perVote, half)
	}

	cert := certificateFrom(h.ctx, step, h.ctx.EmptyHash, res.votes, false)
	if len(cert.Votes) != len(sent) || cap(cert.Votes) != len(sent) {
		t.Errorf("certificate of %d votes holds len %d cap %d", len(sent), len(cert.Votes), cap(cert.Votes))
	}
	if n := testing.AllocsPerRun(50, func() { cert = certificateFrom(h.ctx, step, h.ctx.EmptyHash, res.votes, false) }); n != 2 {
		t.Errorf("certificateFrom: %v allocations, want the certificate and one array of votes", n)
	}
}

// TestCertificateHoldsTheWinningValuesVotes: a concluding step that also
// saw votes for the other value, and a voter who sent both, certifies the
// winner with exactly the votes counted for it, in the order they came.
func TestCertificateHoldsTheWinningValuesVotes(t *testing.T) {
	h := newHarness(t, 60, 45)
	step := WireStepOfBinary(1)
	block := crypto.HashBytes("proposed-block")
	var sent []*ValidatedVote
	equivocator := -1
	for node := range h.ids {
		value := block
		if node%4 == 1 {
			value = h.ctx.EmptyHash
		}
		vv := h.voteBy(node, step, value)
		if vv == nil {
			continue
		}
		if equivocator < 0 && value == h.ctx.EmptyHash {
			// Its vote for the empty hash comes first and is the one counted.
			equivocator = node
			sent = append(sent, vv, h.voteBy(node, step, block))
			continue
		}
		sent = append(sent, vv)
	}
	if equivocator < 0 {
		t.Fatal("no empty-hash voter on the committee")
	}
	res, _ := h.countSent(step, h.prm.TStep, sent)
	if res.timedOut || res.value != block {
		t.Fatalf("step concluded on %v (timed out %v), want the block", res.value, res.timedOut)
	}

	// What Algorithm 5 counted for the block, replayed by hand.
	var want []ledger.Vote
	voted := map[crypto.PublicKey]bool{}
	var weight uint64
	for _, vv := range sent {
		if voted[vv.Vote.Sender] {
			continue
		}
		voted[vv.Vote.Sender] = true
		if vv.Vote.Value != block {
			continue
		}
		want = append(want, *vv.Vote)
		if weight += vv.NumVotes; float64(weight) > h.prm.TStep*float64(h.prm.TauStep) {
			break
		}
	}
	if len(want) == len(sent) || len(res.votes) <= len(want) {
		t.Fatal("the step saw no vote for the other value; test premise broken")
	}

	cert := certificateFrom(h.ctx, step, block, res.votes, false)
	if len(cert.Votes) != len(want) {
		t.Fatalf("certificate holds %d votes, %d were counted for the block", len(cert.Votes), len(want))
	}
	for i := range want {
		if cert.Votes[i].Sender != want[i].Sender || cert.Votes[i].Value != block {
			t.Fatalf("vote %d of the certificate is %v's for %v", i, cert.Votes[i].Sender, cert.Votes[i].Value)
		}
		if cert.Votes[i].Sender == h.ids[equivocator].PublicKey() {
			t.Fatal("the equivocator's second vote is in the certificate")
		}
	}
	threshold := uint64(h.prm.TStep * float64(h.prm.TauStep))
	if err := cert.Verify(h.provider, h.ctx.Seed, h.ctx.Weights, h.ctx.TotalWeight, h.prm.TauStep, threshold, h.ctx.LastBlockHash); err != nil {
		t.Fatalf("certificate does not verify: %v", err)
	}
}
