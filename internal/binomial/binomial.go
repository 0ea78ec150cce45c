// Package binomial evaluates binomial cumulative distribution functions
// with arbitrary precision, as required by cryptographic sortition
// (Algorithms 1-2 of the Algorand paper).
//
// Sortition maps a VRF output, read as the fraction hash/2^hashlen, onto
// the partition of [0,1) into intervals I_j = [CDF(j-1), CDF(j)) of the
// Binomial(w, τ/W) distribution: the j whose interval contains the
// fraction is the number of selected sub-users. A float64 CDF is not
// good enough here: the prover and every verifier must agree on j
// exactly, and the fraction has hashlen (=512) bits of granularity, so
// we evaluate with big.Float at a precision comfortably beyond that.
package binomial

import "math/big"

// Prec is the working precision in bits. VRF outputs give fractions
// with 512-bit granularity; 640 bits keeps rounding error far below it.
const Prec = 640

// Walker incrementally evaluates the CDF of Binomial(n, p) where
// p = pNum/pDen, walking j upward using the term recurrence
//
//	B(j+1; n, p) = B(j; n, p) · (n-j)/(j+1) · p/(1-p).
//
// The expected number of selected sub-users in sortition is w·τ/W,
// which is small, so the walk terminates after a few terms in practice.
type Walker struct {
	n     uint64
	ratio *big.Float // p/(1-p)
	term  *big.Float // B(j; n, p)
	cdf   *big.Float // CDF(j)
	j     uint64
	// degenerate: p >= 1 (everyone always selected) or p <= 0.
	alwaysAll  bool
	alwaysNone bool
}

// New returns a Walker for Binomial(n, pNum/pDen) positioned at j = 0.
func New(n, pNum, pDen uint64) *Walker {
	w := &Walker{n: n}
	if pDen == 0 || pNum >= pDen {
		w.alwaysAll = true
		return w
	}
	if pNum == 0 || n == 0 {
		w.alwaysNone = true
		return w
	}
	p := new(big.Float).SetPrec(Prec).Quo(
		new(big.Float).SetPrec(Prec).SetUint64(pNum),
		new(big.Float).SetPrec(Prec).SetUint64(pDen),
	)
	q := new(big.Float).SetPrec(Prec).Sub(big.NewFloat(1).SetPrec(Prec), p)
	w.ratio = new(big.Float).SetPrec(Prec).Quo(p, q)
	// term(0) = (1-p)^n via exponentiation by squaring.
	w.term = powUint(q, n)
	w.cdf = new(big.Float).SetPrec(Prec).Set(w.term)
	return w
}

// powUint returns x^e at Prec bits.
func powUint(x *big.Float, e uint64) *big.Float {
	result := big.NewFloat(1).SetPrec(Prec)
	base := new(big.Float).SetPrec(Prec).Set(x)
	for e > 0 {
		if e&1 == 1 {
			result.Mul(result, base)
		}
		base.Mul(base, base)
		e >>= 1
	}
	return result
}

// clone returns an independent Walker at the same position.
func (w *Walker) clone() *Walker {
	c := *w
	c.term = new(big.Float).Copy(w.term)
	c.cdf = new(big.Float).Copy(w.cdf)
	return &c
}

// advance moves to the next j, updating term and cdf.
func (w *Walker) advance() {
	// term(j+1) = term(j) * (n-j)/(j+1) * ratio
	f := new(big.Float).SetPrec(Prec).SetUint64(w.n - w.j)
	f.Quo(f, new(big.Float).SetPrec(Prec).SetUint64(w.j+1))
	w.term.Mul(w.term, f)
	w.term.Mul(w.term, w.ratio)
	w.cdf.Add(w.cdf, w.term)
	w.j++
}

// Quantile returns the smallest j with fraction < CDF(j); this is the
// sortition outcome for a VRF hash whose value is fraction ∈ [0,1).
// If the fraction exceeds CDF(n) (possible only through rounding at the
// extreme tail), n is returned.
func (w *Walker) Quantile(fraction *big.Float) uint64 {
	if w.alwaysAll {
		return w.n
	}
	if w.alwaysNone {
		return 0
	}
	for fraction.Cmp(w.cdf) >= 0 {
		if w.j >= w.n {
			return w.n
		}
		w.advance()
	}
	return w.j
}

// CDF returns the CDF evaluated at k, i.e. P[X <= k], as a big.Float.
// The walker must be fresh (not yet walked past k).
func (w *Walker) CDF(k uint64) *big.Float {
	if w.alwaysAll {
		if k >= w.n {
			return big.NewFloat(1)
		}
		return big.NewFloat(0)
	}
	if w.alwaysNone {
		return big.NewFloat(1)
	}
	for w.j < k && w.j < w.n {
		w.advance()
	}
	return new(big.Float).SetPrec(Prec).Set(w.cdf)
}

// FractionOfHash interprets hash (big-endian) as the fraction
// hash / 2^(8·len(hash)) ∈ [0,1).
func FractionOfHash(hash []byte) *big.Float {
	num := new(big.Int).SetBytes(hash)
	f := new(big.Float).SetPrec(Prec).SetInt(num)
	den := new(big.Float).SetPrec(Prec).SetMantExp(big.NewFloat(1).SetPrec(Prec), 8*len(hash))
	return f.Quo(f, den)
}

// Select is the complete sortition quantile computation: given a VRF
// hash, a user's weight w, total weight W and expected selections tau,
// it returns how many of the user's sub-users are selected. The answer
// is New(w, tau, W).Quantile(FractionOfHash(hash)), read from the
// distribution's remembered boundaries (table.go) when it has any.
func Select(hash []byte, w, W, tau uint64) uint64 {
	switch {
	case w == 0:
		return 0
	case W == 0 || tau >= W: // New's alwaysAll
		return w
	case tau == 0: // New's alwaysNone
		return 0
	case len(hash) != hashLen:
		return New(w, tau, W).Quantile(FractionOfHash(hash))
	}
	return tables.quantile(tableKey{w: w, tau: tau, W: W}, hash)
}
