// Package committee reproduces the committee-sizing analysis of §7.5
// and Appendix B of the Algorand paper (Figure 3): how large must the
// expected committee τ be, and what vote threshold T should be used, so
// that the probability of drawing a committee that violates BA⋆'s
// safety/liveness constraints is below a target (5·10⁻⁹ in the paper)?
//
// The constraints, from §7.5, on the number of honest committee seats g
// and malicious seats b in a step are:
//
//	liveness:  g > T·τ            (honest users alone can cross the threshold)
//	safety:    g/2 + b ≤ T·τ      (adversary + split honest votes cannot
//	                               push two different values past it)
//
// Sortition assigns each of the W currency units an independent
// Bernoulli(τ/W) trial, so with W ≫ τ the seat counts are Poisson:
// g ~ Poisson(h·τ) and b ~ Poisson((1-h)·τ), independent. We evaluate
// the violation probability exactly in that limit, in log space, which
// is accurate far beyond the 10⁻⁹ scale of interest.
package committee

import "math"

// logPoisPMF returns log P[Poisson(lambda) = k].
func logPoisPMF(k int, lambda float64) float64 {
	if lambda <= 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return -lambda + float64(k)*math.Log(lambda) - lg
}

// poisCDF returns the CDF array F[k] = P[X <= k] for k in [0, max].
func poisCDF(lambda float64, max int) []float64 {
	cdf := make([]float64, max+1)
	sum := 0.0
	for k := 0; k <= max; k++ {
		sum += math.Exp(logPoisPMF(k, lambda))
		if sum > 1 {
			sum = 1
		}
		cdf[k] = sum
	}
	return cdf
}

// StepViolationProb returns the probability that a committee of expected
// size tau, with honest weighted fraction h and threshold fraction T,
// violates either BA⋆ constraint.
func StepViolationProb(tau float64, h, T float64) float64 {
	lambdaG := h * tau
	lambdaB := (1 - h) * tau
	thresh := T * tau

	// P[viol] = P[g <= T·τ] + Σ_{g > T·τ} P(g)·P[b > T·τ - g/2].
	gCut := int(math.Floor(thresh))
	// Upper summation limit: mean + 20σ covers far beyond 1e-9.
	gMax := int(lambdaG + 20*math.Sqrt(lambdaG) + 50)
	bMax := int(thresh) + 1
	bCDF := poisCDF(lambdaB, bMax)

	viol := 0.0
	// First term: g too small. Sum the lower tail directly.
	for g := 0; g <= gCut; g++ {
		viol += math.Exp(logPoisPMF(g, lambdaG))
	}
	// Second term: g fine but adversary can equivocate.
	for g := gCut + 1; g <= gMax; g++ {
		bLimitF := thresh - float64(g)/2
		var pBviol float64
		if bLimitF < 0 {
			pBviol = 1 // even b = 0 violates g/2 <= T·τ... g/2 > T·τ means violation regardless of b
		} else {
			bLimit := int(math.Floor(bLimitF))
			if bLimit >= len(bCDF) {
				pBviol = 0
			} else {
				pBviol = 1 - bCDF[bLimit]
			}
		}
		viol += math.Exp(logPoisPMF(g, lambdaG)) * pBviol
	}
	if viol > 1 {
		viol = 1
	}
	return viol
}

// BestThreshold scans thresholds T in (2/3, tMax] and returns the T
// minimizing the violation probability for the given tau and h, along
// with that probability.
func BestThreshold(tau float64, h float64) (bestT, bestViol float64) {
	bestViol = math.Inf(1)
	for T := 0.67; T <= 0.95; T += 0.0025 {
		v := StepViolationProb(tau, h, T)
		if v < bestViol {
			bestViol = v
			bestT = T
		}
	}
	return bestT, bestViol
}

// MinTau returns the smallest expected committee size (searched to the
// given granularity) whose best-threshold violation probability is at
// most target, together with the threshold achieving it. This is the
// Figure 3 computation: MinTau(h, 5e-9) as h varies.
func MinTau(h, target float64) (tau uint64, T float64) {
	lo, hi := uint64(50), uint64(50)
	// Exponential search for an upper bound.
	for {
		if _, v := BestThreshold(float64(hi), h); v <= target {
			break
		}
		lo = hi
		hi *= 2
		if hi > 1<<20 {
			return 0, 0 // unreachable target
		}
	}
	// Binary search on the (monotone in practice) predicate.
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if _, v := BestThreshold(float64(mid), h); v <= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	bestT, _ := BestThreshold(float64(hi), h)
	return hi, bestT
}

// Figure3Point is one point of the Figure 3 curve.
type Figure3Point struct {
	Honest    float64 // h, the honest fraction of the money
	Tau       uint64
	Threshold float64
}

// Figure3 computes the committee-size curve for the given honest
// fractions at the paper's violation target 5·10⁻⁹.
func Figure3(fractions []float64) []Figure3Point {
	pts := make([]Figure3Point, 0, len(fractions))
	for _, h := range fractions {
		tau, T := MinTau(h, 5e-9)
		pts = append(pts, Figure3Point{Honest: h, Tau: tau, Threshold: T})
	}
	return pts
}

// logSumExp adds probabilities given in log space.
func logSumExp(logs []float64) float64 {
	max := math.Inf(-1)
	for _, l := range logs {
		if l > max {
			max = l
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	sum := 0.0
	for _, l := range logs {
		sum += math.Exp(l - max)
	}
	return max + math.Log(sum)
}

// PoissonUpperTailLog returns a Chernoff upper bound on
// ln P[Poisson(λ) ≥ k]: for k > λ the bound is
// exp(-λ) (eλ/k)^k, i.e. k - λ - k·ln(k/λ) in log space; for k ≤ λ the
// tail is not small and the bound is 0 (ln 1). The chaos harness uses
// it to ask "how surprising is this many Byzantine committee seats?"
// without enumerating PMFs: committee sortition gives a party with
// weight fraction f an expected f·τ seats per step (the binomial is
// Poisson to within the paper's own approximation), so observed seats
// far above Σ f·τ across certificates betray a biased seed chain.
func PoissonUpperTailLog(lambda float64, k float64) float64 {
	if k <= lambda || k <= 0 {
		return 0
	}
	if lambda <= 0 {
		return math.Inf(-1) // impossible: any seat from a zero-weight party
	}
	return k - lambda - k*math.Log(k/lambda)
}

// BinomialUpperTailLog returns a Chernoff upper bound on
// ln P[Binomial(n, p) ≥ k] via the relative-entropy form
// exp(-n·D(k/n ‖ p)); 0 (ln 1) when k ≤ n·p. Used to bound how many
// rounds a Byzantine stake fraction p may win block proposal.
func BinomialUpperTailLog(n int, p float64, k int) float64 {
	if n <= 0 || k <= 0 || float64(k) <= float64(n)*p {
		return 0
	}
	if p <= 0 {
		return math.Inf(-1)
	}
	if k > n {
		return math.Inf(-1) // impossible outcome
	}
	a := float64(k) / float64(n)
	d := a * math.Log(a/p)
	if a < 1 {
		d += (1 - a) * math.Log((1-a)/(1-p))
	}
	return -float64(n) * d
}

// AdversaryCertificateLog2Prob returns log₂ P[Poisson((1-h)·τ) > T·τ]:
// the probability that adversary-controlled committee seats alone
// exceed the vote threshold in a single step, which is what an attacker
// would need to forge a block certificate (§8.3). The paper reports
// this is below 2⁻¹⁶⁶ per step for τ_step > 1000.
func AdversaryCertificateLog2Prob(tau float64, h, T float64) float64 {
	lambdaB := (1 - h) * tau
	thresh := int(math.Floor(T * tau))
	// Sum the upper tail in log space. Terms decay geometrically past
	// the threshold (ratio λ/k < 1), so a few hundred terms suffice.
	var logs []float64
	for k := thresh + 1; k <= thresh+2000; k++ {
		logs = append(logs, logPoisPMF(k, lambdaB))
	}
	return logSumExp(logs) / math.Ln2
}
