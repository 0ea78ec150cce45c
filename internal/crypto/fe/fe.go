// Package fe implements arithmetic in GF(2^255-19), the base field of
// edwards25519, using five unsaturated 51-bit limbs in uint64s.
//
// The representation and reduction strategy follow the well-known ref10
// design: limbs are allowed to grow slightly past 51 bits between
// operations and are brought back by carry propagation. Operations are
// written to be correct for any reduced inputs; they are not guaranteed
// to be constant-time, which is acceptable for this research
// implementation (see DESIGN.md).
package fe

import (
	"errors"
	"math/bits"
)

// Element is an element of GF(2^255-19). The zero value is a valid zero
// element.
//
// Internally, an element is represented as v = l0 + l1*2^51 + l2*2^102 +
// l3*2^153 + l4*2^204, with each limb kept below roughly 2^52.
type Element struct {
	l0, l1, l2, l3, l4 uint64
}

const maskLow51Bits uint64 = (1 << 51) - 1

var (
	feZero = &Element{}
	feOne  = &Element{l0: 1}
)

// Zero sets v = 0 and returns v.
func (v *Element) Zero() *Element {
	*v = *feZero
	return v
}

// One sets v = 1 and returns v.
func (v *Element) One() *Element {
	*v = *feOne
	return v
}

// Set sets v = a and returns v.
func (v *Element) Set(a *Element) *Element {
	*v = *a
	return v
}

// IsZero reports whether v == 0.
func (v *Element) IsZero() bool {
	b := v.Bytes()
	var acc byte
	for _, x := range b {
		acc |= x
	}
	return acc == 0
}

// Equal reports whether v == u.
func (v *Element) Equal(u *Element) bool {
	return v.Bytes() == u.Bytes()
}

// IsNegative reports whether v is "negative", defined as the least
// significant bit of the canonical encoding (RFC 8032 convention).
func (v *Element) IsNegative() bool {
	b := v.Bytes()
	return b[0]&1 == 1
}

// carryPropagate brings the limbs below 52 bits by performing one round
// of carry propagation, folding the top carry back via 19.
func (v *Element) carryPropagate() *Element {
	// Top limb first: every line reads the limb below it before that limb
	// is rewritten, which keeps the function small enough to inline into
	// Multiply, Square, Add and Subtract.
	c4 := v.l4 >> 51
	v.l4 = v.l4&maskLow51Bits + v.l3>>51
	v.l3 = v.l3&maskLow51Bits + v.l2>>51
	v.l2 = v.l2&maskLow51Bits + v.l1>>51
	v.l1 = v.l1&maskLow51Bits + v.l0>>51
	v.l0 = v.l0&maskLow51Bits + c4*19
	return v
}

// reduce fully reduces v modulo 2^255-19 to its canonical representative.
func (v *Element) reduce() *Element {
	v.carryPropagate()

	// After the light reduction we know that all limbs are below 2^52 and
	// the value is below 2^256. Determine whether v >= p by adding 19 and
	// checking for a carry out of bit 255.
	c := (v.l0 + 19) >> 51
	c = (v.l1 + c) >> 51
	c = (v.l2 + c) >> 51
	c = (v.l3 + c) >> 51
	c = (v.l4 + c) >> 51

	// If v >= p, subtract p by adding 19 and dropping bit 255 and above.
	v.l0 += 19 * c
	v.l1 += v.l0 >> 51
	v.l0 &= maskLow51Bits
	v.l2 += v.l1 >> 51
	v.l1 &= maskLow51Bits
	v.l3 += v.l2 >> 51
	v.l2 &= maskLow51Bits
	v.l4 += v.l3 >> 51
	v.l3 &= maskLow51Bits
	v.l4 &= maskLow51Bits // discard the 2^255 bit

	return v
}

// Add sets v = a + b and returns v.
func (v *Element) Add(a, b *Element) *Element {
	v.l0 = a.l0 + b.l0
	v.l1 = a.l1 + b.l1
	v.l2 = a.l2 + b.l2
	v.l3 = a.l3 + b.l3
	v.l4 = a.l4 + b.l4
	return v.carryPropagate()
}

// Subtract sets v = a - b and returns v.
func (v *Element) Subtract(a, b *Element) *Element {
	// Add 2p to keep limbs positive before subtracting.
	v.l0 = (a.l0 + 0xFFFFFFFFFFFDA) - b.l0
	v.l1 = (a.l1 + 0xFFFFFFFFFFFFE) - b.l1
	v.l2 = (a.l2 + 0xFFFFFFFFFFFFE) - b.l2
	v.l3 = (a.l3 + 0xFFFFFFFFFFFFE) - b.l3
	v.l4 = (a.l4 + 0xFFFFFFFFFFFFE) - b.l4
	return v.carryPropagate()
}

// Negate sets v = -a and returns v.
func (v *Element) Negate(a *Element) *Element {
	return v.Subtract(feZero, a)
}

// uint128 holds the 128-bit accumulator used during multiplication.
type uint128 struct {
	lo, hi uint64
}

func mul64(a, b uint64) uint128 {
	hi, lo := bits.Mul64(a, b)
	return uint128{lo, hi}
}

func addMul64(v uint128, a, b uint64) uint128 {
	hi, lo := bits.Mul64(a, b)
	lo, c := bits.Add64(lo, v.lo, 0)
	hi, _ = bits.Add64(hi, v.hi, c)
	return uint128{lo, hi}
}

// shiftRightBy51 returns a >> 51. a is assumed to be at most 115 bits.
func shiftRightBy51(a uint128) uint64 {
	return a.hi<<(64-51) | a.lo>>51
}

// Multiply sets v = a * b and returns v.
func (v *Element) Multiply(a, b *Element) *Element {
	a0, a1, a2, a3, a4 := a.l0, a.l1, a.l2, a.l3, a.l4
	b0, b1, b2, b3, b4 := b.l0, b.l1, b.l2, b.l3, b.l4

	a1_19 := a1 * 19
	a2_19 := a2 * 19
	a3_19 := a3 * 19
	a4_19 := a4 * 19

	// r0 = a0×b0 + 19×(a1×b4 + a2×b3 + a3×b2 + a4×b1)
	r0 := mul64(a0, b0)
	r0 = addMul64(r0, a1_19, b4)
	r0 = addMul64(r0, a2_19, b3)
	r0 = addMul64(r0, a3_19, b2)
	r0 = addMul64(r0, a4_19, b1)

	// r1 = a0×b1 + a1×b0 + 19×(a2×b4 + a3×b3 + a4×b2)
	r1 := mul64(a0, b1)
	r1 = addMul64(r1, a1, b0)
	r1 = addMul64(r1, a2_19, b4)
	r1 = addMul64(r1, a3_19, b3)
	r1 = addMul64(r1, a4_19, b2)

	// r2 = a0×b2 + a1×b1 + a2×b0 + 19×(a3×b4 + a4×b3)
	r2 := mul64(a0, b2)
	r2 = addMul64(r2, a1, b1)
	r2 = addMul64(r2, a2, b0)
	r2 = addMul64(r2, a3_19, b4)
	r2 = addMul64(r2, a4_19, b3)

	// r3 = a0×b3 + a1×b2 + a2×b1 + a3×b0 + 19×a4×b4
	r3 := mul64(a0, b3)
	r3 = addMul64(r3, a1, b2)
	r3 = addMul64(r3, a2, b1)
	r3 = addMul64(r3, a3, b0)
	r3 = addMul64(r3, a4_19, b4)

	// r4 = a0×b4 + a1×b3 + a2×b2 + a3×b1 + a4×b0
	r4 := mul64(a0, b4)
	r4 = addMul64(r4, a1, b3)
	r4 = addMul64(r4, a2, b2)
	r4 = addMul64(r4, a3, b1)
	r4 = addMul64(r4, a4, b0)

	c0 := shiftRightBy51(r0)
	c1 := shiftRightBy51(r1)
	c2 := shiftRightBy51(r2)
	c3 := shiftRightBy51(r3)
	c4 := shiftRightBy51(r4)

	v.l0 = r0.lo&maskLow51Bits + c4*19
	v.l1 = r1.lo&maskLow51Bits + c0
	v.l2 = r2.lo&maskLow51Bits + c1
	v.l3 = r3.lo&maskLow51Bits + c2
	v.l4 = r4.lo&maskLow51Bits + c3
	return v.carryPropagate()
}

// Square sets v = a * a and returns v.
func (v *Element) Square(a *Element) *Element {
	l0, l1, l2, l3, l4 := a.l0, a.l1, a.l2, a.l3, a.l4

	l0_2 := l0 * 2
	l1_2 := l1 * 2
	l1_38 := l1 * 38
	l2_38 := l2 * 38
	l3_38 := l3 * 38
	l3_19 := l3 * 19
	l4_19 := l4 * 19

	// r0 = l0×l0 + 19×2×(l1×l4 + l2×l3)
	r0 := mul64(l0, l0)
	r0 = addMul64(r0, l1_38, l4)
	r0 = addMul64(r0, l2_38, l3)

	// r1 = 2×l0×l1 + 19×2×l2×l4 + 19×l3×l3
	r1 := mul64(l0_2, l1)
	r1 = addMul64(r1, l2_38, l4)
	r1 = addMul64(r1, l3_19, l3)

	// r2 = 2×l0×l2 + l1×l1 + 19×2×l3×l4
	r2 := mul64(l0_2, l2)
	r2 = addMul64(r2, l1, l1)
	r2 = addMul64(r2, l3_38, l4)

	// r3 = 2×l0×l3 + 2×l1×l2 + 19×l4×l4
	r3 := mul64(l0_2, l3)
	r3 = addMul64(r3, l1_2, l2)
	r3 = addMul64(r3, l4_19, l4)

	// r4 = 2×l0×l4 + 2×l1×l3 + l2×l2
	r4 := mul64(l0_2, l4)
	r4 = addMul64(r4, l1_2, l3)
	r4 = addMul64(r4, l2, l2)

	c0 := shiftRightBy51(r0)
	c1 := shiftRightBy51(r1)
	c2 := shiftRightBy51(r2)
	c3 := shiftRightBy51(r3)
	c4 := shiftRightBy51(r4)

	v.l0 = r0.lo&maskLow51Bits + c4*19
	v.l1 = r1.lo&maskLow51Bits + c0
	v.l2 = r2.lo&maskLow51Bits + c1
	v.l3 = r3.lo&maskLow51Bits + c2
	v.l4 = r4.lo&maskLow51Bits + c3
	return v.carryPropagate()
}

// pow2k sets v = a^(2^k) by squaring k times. k must be positive.
func (v *Element) pow2k(a *Element, k int) *Element {
	v.Square(a)
	for i := 1; i < k; i++ {
		v.Square(v)
	}
	return v
}

// Invert sets v = 1/a mod p and returns v. If a == 0, v is set to 0.
func (v *Element) Invert(a *Element) *Element {
	// Inversion via exponentiation by p-2 = 2^255-21, using the classic
	// ref10 addition chain.
	var z2, z9, z11, z2_5_0, z2_10_0, z2_20_0, z2_50_0, z2_100_0, t Element

	z2.Square(a)             // 2
	t.pow2k(&z2, 2)          // 8
	z9.Multiply(&t, a)       // 9
	z11.Multiply(&z9, &z2)   // 11
	t.Square(&z11)           // 22
	z2_5_0.Multiply(&t, &z9) // 31 = 2^5 - 1

	t.pow2k(&z2_5_0, 5)            // 2^10 - 2^5
	z2_10_0.Multiply(&t, &z2_5_0)  // 2^10 - 1
	t.pow2k(&z2_10_0, 10)          // 2^20 - 2^10
	z2_20_0.Multiply(&t, &z2_10_0) // 2^20 - 1
	t.pow2k(&z2_20_0, 20)          // 2^40 - 2^20
	t.Multiply(&t, &z2_20_0)       // 2^40 - 1
	t.pow2k(&t, 10)                // 2^50 - 2^10
	z2_50_0.Multiply(&t, &z2_10_0) // 2^50 - 1
	t.pow2k(&z2_50_0, 50)          // 2^100 - 2^50
	z2_100_0.Multiply(&t, &z2_50_0)
	t.pow2k(&z2_100_0, 100)   // 2^200 - 2^100
	t.Multiply(&t, &z2_100_0) // 2^200 - 1
	t.pow2k(&t, 50)           // 2^250 - 2^50
	t.Multiply(&t, &z2_50_0)  // 2^250 - 1
	t.pow2k(&t, 5)            // 2^255 - 2^5
	return v.Multiply(&t, &z11)
}

// Pow22523 sets v = a^((p-5)/8) = a^(2^252-3) and returns v. This is the
// exponent used when extracting square roots.
func (v *Element) Pow22523(a *Element) *Element {
	var t0, t1, t2 Element

	t0.Square(a)              // 2
	t1.pow2k(&t0, 2)          // 8
	t1.Multiply(a, &t1)       // 9
	t0.Multiply(&t0, &t1)     // 11
	t0.Square(&t0)            // 22
	t0.Multiply(&t1, &t0)     // 31 = 2^5 - 1
	t1.pow2k(&t0, 5)          // 2^10 - 2^5
	t0.Multiply(&t1, &t0)     // 2^10 - 1
	t1.pow2k(&t0, 10)         // 2^20 - 2^10
	t1.Multiply(&t1, &t0)     // 2^20 - 1
	t2.pow2k(&t1, 20)         // 2^40 - 2^20
	t1.Multiply(&t2, &t1)     // 2^40 - 1
	t1.pow2k(&t1, 10)         // 2^50 - 2^10
	t0.Multiply(&t1, &t0)     // 2^50 - 1
	t1.pow2k(&t0, 50)         // 2^100 - 2^50
	t1.Multiply(&t1, &t0)     // 2^100 - 1
	t2.pow2k(&t1, 100)        // 2^200 - 2^100
	t1.Multiply(&t2, &t1)     // 2^200 - 1
	t1.pow2k(&t1, 50)         // 2^250 - 2^50
	t0.Multiply(&t1, &t0)     // 2^250 - 1
	t0.pow2k(&t0, 2)          // 2^252 - 4
	return v.Multiply(&t0, a) // 2^252 - 3
}

// SqrtRatio sets v to a square root of u/w, and returns wasSquare
// reporting whether u/w was a quadratic residue. The chosen root is the
// non-negative one (per IsNegative). If u/w is not square, v is set to
// sqrt(i*u/w) where i = sqrt(-1); callers that only care about the
// square case should check wasSquare.
func (v *Element) SqrtRatio(u, w *Element) (wasSquare bool) {
	var t0, t1 Element

	// r = u * w^3 * (u * w^7)^((p-5)/8)
	var w2, w3, w7, r, check Element
	w2.Square(w)
	w3.Multiply(&w2, w)
	w7.Multiply(&w3, &w2)
	w7.Multiply(&w7, &w2)
	t0.Multiply(u, &w7)
	t0.Pow22523(&t0)
	r.Multiply(u, &w3)
	r.Multiply(&r, &t0)

	check.Square(&r)
	check.Multiply(&check, w) // check = w * r^2

	var negU, negUi Element
	negU.Negate(u)
	negUi.Multiply(&negU, sqrtM1())

	switch {
	case check.Equal(u):
		wasSquare = true
	case check.Equal(&negU):
		// r is off by a factor of sqrt(-1).
		r.Multiply(&r, sqrtM1())
		wasSquare = true
	case check.Equal(&negUi):
		r.Multiply(&r, sqrtM1())
		wasSquare = false
	default:
		wasSquare = false
	}

	// Choose the non-negative root.
	if r.IsNegative() {
		t1.Negate(&r)
		r.Set(&t1)
	}
	v.Set(&r)
	return wasSquare
}

// SetBytes sets v to the 32-byte little-endian encoding x, ignoring the
// most significant bit (as in RFC 8032 field element decoding), and
// returns v. An error is returned if len(x) != 32.
func (v *Element) SetBytes(x []byte) (*Element, error) {
	if len(x) != 32 {
		return nil, errors.New("fe: invalid field element length")
	}
	v.l0 = le64(x[0:8]) & maskLow51Bits
	v.l1 = (le64(x[6:14]) >> 3) & maskLow51Bits
	v.l2 = (le64(x[12:20]) >> 6) & maskLow51Bits
	v.l3 = (le64(x[19:27]) >> 1) & maskLow51Bits
	v.l4 = (le64(x[24:32]) >> 12) & maskLow51Bits
	return v, nil
}

// SetCanonicalBytes is like SetBytes but rejects non-canonical encodings
// (values >= p, or with the high bit set).
func (v *Element) SetCanonicalBytes(x []byte) (*Element, error) {
	if _, err := v.SetBytes(x); err != nil {
		return nil, err
	}
	if x[31]&0x80 != 0 {
		return nil, errors.New("fe: non-canonical encoding (high bit set)")
	}
	b := v.Bytes()
	for i := range b {
		if b[i] != x[i] {
			return nil, errors.New("fe: non-canonical encoding")
		}
	}
	return v, nil
}

// Bytes returns the canonical 32-byte little-endian encoding of v.
func (v *Element) Bytes() [32]byte {
	t := *v
	t.reduce()

	var out [32]byte
	putLE64(out[0:8], t.l0|t.l1<<51)
	putLE64(out[8:16], t.l1>>13|t.l2<<38)
	putLE64(out[16:24], t.l2>>26|t.l3<<25)
	putLE64(out[24:32], t.l3>>39|t.l4<<12)
	return out
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, x uint64) {
	_ = b[7]
	b[0] = byte(x)
	b[1] = byte(x >> 8)
	b[2] = byte(x >> 16)
	b[3] = byte(x >> 24)
	b[4] = byte(x >> 32)
	b[5] = byte(x >> 40)
	b[6] = byte(x >> 48)
	b[7] = byte(x >> 56)
}

// Select sets v = a if cond == 1 and v = b if cond == 0, reading both and
// branching on neither: the fixed-window multiplication picks table
// entries by secret digits through it.
func (v *Element) Select(a, b *Element, cond int) *Element {
	m := -uint64(cond & 1)
	v.l0 = b.l0 ^ m&(a.l0^b.l0)
	v.l1 = b.l1 ^ m&(a.l1^b.l1)
	v.l2 = b.l2 ^ m&(a.l2^b.l2)
	v.l3 = b.l3 ^ m&(a.l3^b.l3)
	v.l4 = b.l4 ^ m&(a.l4^b.l4)
	return v
}
