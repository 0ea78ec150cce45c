package chaos

import (
	"fmt"

	"algorand/internal/committee"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/sortition"
)

// biasLogThreshold is ln(1e-9): a Chernoff bound below it means the
// observed adversary luck had probability under one in a billion in an
// unbiased run — far past noise, so we call it a violation. Short runs
// cannot reach the threshold (five rounds of perfect luck at 20% stake
// bound at ln P ≈ -8), which keeps the swarm free of false positives;
// the long directed grinding scenario is where the bound has teeth.
const biasLogThreshold = -20.7

// CheckSortitionBias asserts the §5.2 claim that seed grinding cannot
// buy the adversary more than its stake's share of power, on three
// fronts over the longest honest chain:
//
//  1. committed seeds never repeat (a repeat means the seed chain
//     collapsed — the strongest possible grinding outcome);
//  2. the fraction of proposed (non-empty) rounds won by Byzantine
//     proposers stays within a Chernoff binomial bound of the Byzantine
//     stake fraction;
//  3. Byzantine committee seats across all ordinary certificates —
//     recomputed from each vote's sortition proof, never trusted — stay
//     within a Poisson bound of the expected Σ f_byz·τ.
//
// A grinder's binary publish/withhold choice roughly doubles one
// round's options, nowhere near the 1e-9 tails; a *bugged* sortition
// or seed pipeline (seed reuse, weight misaccounting) blows past them
// immediately, which is what the invariant is for.
func CheckSortitionBias(r *Result) []Violation {
	c := r.Cluster
	var ref *ledger.Ledger
	for _, n := range c.Nodes {
		if r.Byzantine[n.ID] {
			continue
		}
		if ref == nil || n.Ledger().ChainLength() > ref.ChainLength() {
			ref = n.Ledger()
		}
	}
	if ref == nil {
		return nil
	}

	byzPK := map[crypto.PublicKey]bool{}
	for i := range r.Byzantine {
		byzPK[c.Identity(i).PublicKey()] = true
	}
	byzFrac := r.Scenario.ByzantineWeightFrac()

	var vs []Violation

	// Seed distinctness: every committed seed — VRF or fallback — hashes
	// in its round and an unpredictable predecessor, so a repeat anywhere
	// in one chain is a (cryptographically impossible) grinding win.
	seenSeed := map[crypto.Digest]uint64{}
	nonEmpty, byzWins := 0, 0
	for rd := uint64(1); rd <= ref.ChainLength(); rd++ {
		b, ok := ref.BlockAt(rd)
		if !ok {
			continue // chain-gap is CheckInvariants' to report
		}
		if first, dup := seenSeed[b.Seed]; dup {
			vs = append(vs, Violation{Kind: "seed-repeat", Node: -1, Round: rd,
				Detail: fmt.Sprintf("seed %x already committed in round %d", b.Seed[:4], first)})
		} else {
			seenSeed[b.Seed] = rd
		}
		if len(b.SeedProof) > 0 {
			nonEmpty++
			if byzPK[b.Proposer] {
				byzWins++
			}
		}
	}

	if lb := committee.BinomialUpperTailLog(nonEmpty, byzFrac, byzWins); lb < biasLogThreshold {
		vs = append(vs, Violation{Kind: "sortition-bias", Node: -1,
			Detail: fmt.Sprintf(
				"Byzantine stake (%.1f%% of weight) proposed %d of %d non-empty rounds (Chernoff ln P ≤ %.1f < ln 1e-9)",
				byzFrac*100, byzWins, nonEmpty, lb)})
	}

	// Committee seats: recompute every Byzantine voter's sub-user count
	// from its sortition proof across all ordinary certificates, and
	// compare against the Poisson expectation Σ f_byz·τ (one term per
	// certificate, with the stake fraction taken from that round's own
	// §5.3 look-back snapshot).
	var lambda, byzSeats float64
	for rd := uint64(1); rd <= ref.ChainLength(); rd++ {
		b, ok := ref.BlockAt(rd)
		if !ok {
			continue
		}
		cert, okC := ref.Certificate(b.Hash())
		if !okC || cert.Round >= ledger.RecoveryRoundBase {
			continue // recovery certs use their own self-describing context
		}
		tau := r.CheckParams.TauStep
		if cert.Final {
			tau = r.CheckParams.TauFinal
		}
		seed := ref.SortitionSeed(cert.Round)
		weights, total := ref.SortitionWeights(cert.Round)
		if total == 0 {
			continue
		}
		var byzW uint64
		for pk, w := range weights {
			if byzPK[pk] {
				byzW += w
			}
		}
		lambda += float64(byzW) / float64(total) * float64(tau)
		role := sortition.Role{Kind: sortition.RoleCommittee, Round: cert.Round, Step: cert.Step}
		for i := range cert.Votes {
			v := &cert.Votes[i]
			if !byzPK[v.Sender] {
				continue
			}
			_, j := sortition.Verify(c.Provider, v.Sender, v.SortProof, seed[:], role,
				tau, weights[v.Sender], total)
			byzSeats += float64(j)
		}
	}
	if lb := committee.PoissonUpperTailLog(lambda, byzSeats); lb < biasLogThreshold {
		vs = append(vs, Violation{Kind: "sortition-bias", Node: -1,
			Detail: fmt.Sprintf(
				"Byzantine committee seats %.0f across certificates, expected %.1f (Chernoff ln P ≤ %.1f < ln 1e-9)",
				byzSeats, lambda, lb)})
	}
	return vs
}

// CheckDegradation asserts graceful degradation of the ingestion
// pipeline after a run with transaction load: pending pools stay within
// their configured bounds exactly, and — for Overload scenarios, where the
// offered load provably exceeds admission capacity — the pipeline must
// have shed with *typed* rejects rather than absorbed everything. The
// memory bound is the point: a pipeline that "survives" overload by
// queueing without limit fails here even though every other invariant
// (safety, liveness) still passes.
func CheckDegradation(r *Result) []Violation {
	if r.Scenario.TxLoad <= 0 {
		return nil
	}
	cfg := r.TxCfg
	var vs []Violation
	var shed uint64
	for _, n := range r.Cluster.Nodes {
		f := n.TxFlow()
		if f == nil {
			continue
		}
		st := f.Stats()
		if st.Pending > cfg.MaxTxs {
			vs = append(vs, Violation{Kind: "queue-bound", Node: n.ID,
				Detail: fmt.Sprintf("pending %d txs exceeds pool bound %d", st.Pending, cfg.MaxTxs)})
		}
		if st.PendingBytes > cfg.MaxBytes {
			vs = append(vs, Violation{Kind: "queue-bound", Node: n.ID,
				Detail: fmt.Sprintf("pending %d bytes exceeds byte bound %d", st.PendingBytes, cfg.MaxBytes)})
		}
		shed += st.SenderLimit + st.RateLimited + st.PoolFull + st.Evicted
	}
	if r.Scenario.Overload && shed == 0 {
		vs = append(vs, Violation{Kind: "overload-no-shed", Node: -1,
			Detail: "overload run shed nothing: admission never pushed back against load past capacity"})
	}
	return vs
}
