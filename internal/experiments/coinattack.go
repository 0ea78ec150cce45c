package experiments

import (
	"math/rand"
	"time"

	"algorand/internal/agreement"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/params"
	"algorand/internal/sortition"
	"algorand/internal/vtime"
)

// CoinAttack reproduces the §7.4 "getting unstuck" scenario against the
// real BinaryBA⋆ implementation. The setup is the paper's: a malicious
// highest-priority proposer has split the honest users out of the
// reduction stage — group A enters BinaryBA⋆ with the block's hash,
// group B with the empty hash — and the adversary's committee weight b
// satisfies the attack precondition g/2 + b > T·τ (deliberately
// violating the §7.5 committee constraints, whose whole point is to
// make this state astronomically unlikely at τ_step = 2000).
//
// Honest votes propagate reliably (strong synchrony); the adversary's
// only power is releasing its own votes selectively and late. Group B
// is inert: every one of its fallbacks resolves to the empty hash. The
// adversary keeps group A on the block hash by pushing its votes for it
// (g_A + b > T·τ) to group A alone, just before the step-kind-2
// deadline whose timeout fallback would otherwise flip A to empty; in
// step-kind-1 A's timeout fallback is already the block hash, and in
// the coin step (kind 3) the adversary withholds, betting on the
// fallback.
//
// Without the coin the kind-3 fallback is the deterministic block hash,
// so the split persists to MaxSteps. With Algorithm 9, group A's
// fallback is the least-significant bit of the lowest sortition hash it
// saw — unpredictable and common across A — so with probability ≈1/2
// per loop A flips to empty, the groups unify, and consensus follows
// two steps later.
func CoinAttack(trials int, withCoin bool, seedBase int64) CoinAblationResult {
	res := CoinAblationResult{MaxSteps: 24}
	for t := 0; t < trials; t++ {
		steps, stuck := coinAttackTrial(withCoin, seedBase+int64(t), res.MaxSteps)
		if withCoin {
			res.WithCoin = append(res.WithCoin, steps)
			if stuck {
				res.StuckWith++
			}
		} else {
			res.WithoutCoin = append(res.WithoutCoin, steps)
			if stuck {
				res.StuckWithout++
			}
		}
	}
	return res
}

// RunCoinAblation runs both arms.
func RunCoinAblation(trials int, seedBase int64) CoinAblationResult {
	with := CoinAttack(trials, true, seedBase)
	without := CoinAttack(trials, false, seedBase)
	with.WithoutCoin = without.WithoutCoin
	with.StuckWithout = without.StuckWithout
	return with
}

// coinAttackTrial runs one BinaryBA⋆ execution under the splitting
// adversary and returns the (max over honest users) binary step count,
// plus whether anyone hit MaxSteps.
func coinAttackTrialDebug(withCoin bool, seed int64, maxSteps int) (int, bool) {
	coinDebug = true
	defer func() { coinDebug = false }()
	return coinAttackTrial(withCoin, seed, maxSteps)
}

// coinDebug enables tracing in the attack harness.
var coinDebug = false

func coinAttackTrial(withCoin bool, seed int64, maxSteps int) (int, bool) {
	// h = 0.7 sits inside the attack-feasible window (T < h and
	// h/2 + (1-h) > T), and τ = 1600 gives the binomial margins enough
	// room that the adversary's threshold pushes almost never miss —
	// mirroring how the paper's τ_step = 2000 makes the *defense*
	// reliable when the constraints point the other way.
	const (
		nHonest   = 20
		honestW   = 350
		advW      = 3000
		tau       = 1600
		threshold = 0.60
	)
	s := vtime.New()
	provider := crypto.NewFast()
	rng := rand.New(rand.NewSource(seed))

	prm := params.Default()
	prm.TauStep = tau
	prm.TauFinal = tau
	prm.TStep = threshold
	prm.MaxSteps = maxSteps
	prm.LambdaStep = coinAttackLambda
	prm.AblateNoCommonCoin = !withCoin

	weights := make(map[crypto.PublicKey]uint64)
	var honest []crypto.Identity
	for i := 0; i < nHonest; i++ {
		id := provider.NewIdentity(crypto.SeedFromUint64(uint64(seed)<<20 | uint64(i)))
		honest = append(honest, id)
		weights[id.PublicKey()] = honestW
	}
	adv := provider.NewIdentity(crypto.SeedFromUint64(uint64(seed)<<20 | 999))
	weights[adv.PublicKey()] = advW
	total := uint64(nHonest*honestW + advW)

	blockHash := crypto.HashBytes("attack.block", []byte{byte(seed)})
	ctx := &agreement.Context{
		Round:         1,
		Seed:          crypto.HashUint64("attack.seed", uint64(seed)),
		Weights:       weights,
		TotalWeight:   total,
		LastBlockHash: crypto.HashBytes("attack.last"),
		EmptyHash:     crypto.HashBytes("attack.empty"),
	}

	// Per-honest-node vote inboxes.
	inboxes := make([]map[uint64]*vtime.Mailbox, nHonest)
	for i := range inboxes {
		inboxes[i] = make(map[uint64]*vtime.Mailbox)
	}
	inbox := func(node int, step uint64) *vtime.Mailbox {
		mb, ok := inboxes[node][step]
		if !ok {
			mb = s.NewMailbox()
			inboxes[node][step] = mb
		}
		return mb
	}

	groupA := func(i int) bool { return i < nHonest/2 }

	// Honest gossip: deliver to every honest node quickly. The adversary
	// watches group A's first vote of each step to time its injections.
	stepSeen := make(map[uint64]bool)
	var injectAt func(step uint64)
	gossipFrom := func(v *ledger.Vote, _ uint64) {
		for i := 0; i < nHonest; i++ {
			i := i
			delay := time.Duration(1+rng.Intn(20)) * time.Millisecond
			s.After(delay, func() {
				nv := agreement.ProcessVote(provider, prm, ctx, v)
				if nv == 0 {
					return
				}
				inbox(i, v.Step).Send(&agreement.ValidatedVote{Vote: v, NumVotes: nv})
			})
		}
		if !stepSeen[v.Step] {
			stepSeen[v.Step] = true
			injectAt(v.Step)
		}
	}

	// The adversary's selective delivery: in step-kind-2 (timeout→empty
	// for everyone), push block votes to group A just before its
	// deadline so A continues on the block hash instead of unifying
	// with B on empty. All other steps need no adversary action: A's
	// kind-1 fallback is already the block hash, and in the coin step
	// the adversary withholds and bets on the fallback.
	injectAt = func(wireStep uint64) {
		if wireStep <= 2 { // only binary steps are attacked
			return
		}
		k := int(wireStep - 2) // binary step counter
		if (k-1)%3 != 1 {      // only the timeout→empty step kind
			return
		}
		push := blockHash
		role := sortition.Role{Kind: sortition.RoleCommittee, Round: ctx.Round, Step: wireStep}
		res := sortition.Execute(adv, ctx.Seed[:], role, prm.TauStep, weights[adv.PublicKey()], total)
		if res.J == 0 {
			return
		}
		v := &ledger.Vote{
			Sender:    adv.PublicKey(),
			Round:     ctx.Round,
			Step:      wireStep,
			SortHash:  res.Output,
			SortProof: res.Proof,
			PrevHash:  ctx.LastBlockHash,
			Value:     push,
		}
		v.Sign(adv)
		s.After(prm.LambdaStep*9/10, func() {
			for i := 0; i < nHonest; i++ {
				if !groupA(i) {
					continue
				}
				nv := agreement.ProcessVote(provider, prm, ctx, v)
				if nv == 0 {
					return
				}
				inbox(i, wireStep).Send(&agreement.ValidatedVote{Vote: v, NumVotes: nv})
			}
		})
	}

	stepsTaken := make([]int, nHonest)
	anyStuck := false
	for i := 0; i < nHonest; i++ {
		i := i
		env := &agreement.Env{
			Provider: provider,
			Identity: honest[i],
			Params:   prm,
			Gossip:   gossipFrom,
			Inbox:    func(_, step uint64) *vtime.Mailbox { return inbox(i, step) },
		}
		// Skip the reduction stage: the scenario starts from an already
		// split population, which is exactly the state the reduction can
		// leave behind under a dishonest highest-priority proposer.
		start := blockHash
		if !groupA(i) {
			start = ctx.EmptyHash
		}
		s.Spawn("honest", func(p *vtime.Proc) {
			env.Proc = p
			if coinDebug && i == 0 {
				env.StepTimer = func(step uint64, took time.Duration, timedOut bool) {
					println("node0 step", int(step-2), "took(ms)", int(took.Milliseconds()), "timeout:", timedOut)
				}
			}
			out, err := agreement.BinaryBA(env, ctx, start)
			if err != nil {
				stepsTaken[i] = maxSteps
				anyStuck = true
				return
			}
			stepsTaken[i] = out.Steps
			if coinDebug && i < 3 {
				println("node", i, "consensus at step", out.Steps, "empty:", out.Value == ctx.EmptyHash)
			}
		})
	}

	s.Run(time.Duration(maxSteps+8) * prm.LambdaStep * 4)

	maxTaken := 0
	for _, st := range stepsTaken {
		if st > maxTaken {
			maxTaken = st
		}
	}
	return maxTaken, anyStuck
}
