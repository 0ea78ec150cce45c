package edwards

import (
	"encoding/binary"

	"algorand/internal/crypto/fe"
)

// Scalar multiplication. Two routines, told apart by who may know the
// scalar:
//
//   - fixedWindowMult, behind ScalarMult and ScalarBaseMult, is for
//     secret scalars: signed radix-16 digits, each looked up by reading
//     the whole table row, so the sequence of doublings, additions and
//     table positions touched is the same for every scalar.
//   - varTimeMultiScalarMult, behind the VarTime* methods, is for public
//     inputs (a proof's c and s): sliding signed windows that skip zero
//     digits, every term of a sum riding one chain of doublings.
//
// Both read their points from tables in cached form. B has static ones,
// filled in by init.

var (
	// baseRows[j][k] = (k+1) * 256^j * B: with a row for every second
	// radix-16 digit, s*B is 64 additions and 4 doublings.
	baseRows [32][8]cached
	// baseOdd[k] = (2k+1) * B, the odd multiples a width-8 NAF selects.
	baseOdd [64]cached
)

func initBaseTables() {
	p := basePoint
	for j := range baseRows {
		multiples(&baseRows[j], &p)
		for k := 0; k < 8; k++ {
			p.Double(&p)
		}
	}
	oddMultiples(baseOdd[:], &basePoint)
}

// multiples sets row[k] = (k+1)*p.
func multiples(row *[8]cached, p *Point) {
	row[0].fromPoint(p)
	q := *p
	for k := 1; k < len(row); k++ {
		q.addCached(&q, &row[0])
		row[k].fromPoint(&q)
	}
}

// oddMultiples sets odd[k] = (2k+1)*p.
func oddMultiples(odd []cached, p *Point) {
	var q Point
	var twoP cached
	twoP.fromPoint(q.Double(p))
	q = *p
	odd[0].fromPoint(&q)
	for k := 1; k < len(odd); k++ {
		q.addCached(&q, &twoP)
		odd[k].fromPoint(&q)
	}
}

// signedRadix16 returns s as 64 digits in [-8, 8] with
// s = sum d[i] * 16^i. The top digit does not overflow because s is
// below 2^255.
func (s *Scalar) signedRadix16() [64]int8 {
	var d [64]int8
	for i, b := range s.b {
		d[2*i] = int8(b & 15)
		d[2*i+1] = int8(b >> 4)
	}
	for i := 0; i < 63; i++ {
		carry := (d[i] + 8) >> 4
		d[i] -= carry << 4
		d[i+1] += carry
	}
	return d
}

// nonAdjacentForm returns s as signed digits with s = sum naf[i] * 2^i,
// every nonzero digit odd, below 2^(w-1) in magnitude and followed by at
// least w-1 zeros. 256 digits hold it because s is below 2^255.
func (s *Scalar) nonAdjacentForm(w uint) [256]int8 {
	var naf [256]int8
	var limbs [5]uint64 // one spare limb so a window may read past bit 255
	for i := 0; i < 4; i++ {
		limbs[i] = binary.LittleEndian.Uint64(s.b[8*i:])
	}
	width := uint64(1) << w
	carry := uint64(0)
	for pos := uint(0); pos < 256; {
		window := limbs[pos/64] >> (pos % 64)
		if pos%64 > 64-w {
			window |= limbs[pos/64+1] << (64 - pos%64)
		}
		window = window&(width-1) + carry
		if window&1 == 0 {
			// An even window leaves this digit zero; the carry rides on.
			pos++
			continue
		}
		// Take the odd window as a digit in (-2^(w-1), 2^(w-1)) and owe the
		// next window the difference.
		carry = window >> (w - 1)
		naf[pos] = int8(int64(window) - int64(carry<<w))
		pos += w
	}
	return naf
}

// lookup sets c = d*P for a digit d in [-8, 8], given row[k] = (k+1)*P.
// It reads all eight entries and branches on none of them.
func (c *cached) lookup(row *[8]cached, d int8, trace *opTrace) {
	sign := d >> 7 // 0, or -1 for a negative digit
	abs := uint32((d + sign) ^ sign)

	*c = cached{} // the identity: (1, 1, 1, 0)
	c.yPlusX.One()
	c.yMinusX.One()
	c.z.One()
	for k := range row {
		hit := int(((abs ^ uint32(k+1)) - 1) >> 31) // 1 when abs == k+1
		c.yPlusX.Select(&row[k].yPlusX, &c.yPlusX, hit)
		c.yMinusX.Select(&row[k].yMinusX, &c.yMinusX, hit)
		c.z.Select(&row[k].z, &c.z, hit)
		c.t2d.Select(&row[k].t2d, &c.t2d, hit)
		trace.record('0' + byte(k))
	}
	// -P in cached form: Y+X and Y-X exchanged, 2dT negated.
	neg := int(sign & 1)
	yPlusX := c.yPlusX
	c.yPlusX.Select(&c.yMinusX, &c.yPlusX, neg)
	c.yMinusX.Select(&yPlusX, &c.yMinusX, neg)
	var minusT2d fe.Element
	c.t2d.Select(minusT2d.Negate(&c.t2d), &c.t2d, neg)
}

// opTrace records what fixedWindowMult does — 'D' a doubling, 'A' an
// addition, '0'..'7' a table position read — for the test that pins the
// routine's uniformity; production passes nil and records nothing.
type opTrace struct {
	ops []byte
}

func (t *opTrace) record(op byte) {
	if t != nil {
		t.ops = append(t.ops, op)
	}
}

// fixedWindowMult sets v = s*P and returns v, where rows[j][k] =
// (k+1) * 16^(j*passes) * P and passes = 64/len(rows): one row of P's
// multiples makes 64 passes of four doublings and an addition, B's 32
// rows make two passes of 32 additions. Nothing here depends on s except
// which value lookup hands back.
func (v *Point) fixedWindowMult(s *Scalar, rows [][8]cached, trace *opTrace) *Point {
	digits := s.signedRadix16()
	passes := len(digits) / len(rows)

	var sel cached
	v.setIdentity()
	for p := passes - 1; p >= 0; p-- {
		if p != passes-1 {
			for i := 0; i < 4; i++ {
				v.double(v, i == 3) // only the addition reads T
				trace.record('D')
			}
		}
		for j := range rows {
			sel.lookup(&rows[j], digits[j*passes+p], trace)
			v.addCached(v, &sel)
			trace.record('A')
		}
	}
	return v
}

// ScalarMult sets v = s*q and returns v. The scalar may be secret: see
// fixedWindowMult. Every Scalar this package can construct is below 2^255
// (reduced mod l, or clamped), which is all the digit recodings need, so
// there is no second path for larger values.
func (v *Point) ScalarMult(s *Scalar, q *Point) *Point {
	var rows [1][8]cached
	multiples(&rows[0], q)
	return v.fixedWindowMult(s, rows[:], nil)
}

// ScalarBaseMult sets v = s*B and returns v. The scalar may be secret.
func (v *Point) ScalarBaseMult(s *Scalar) *Point {
	return v.fixedWindowMult(s, baseRows[:], nil)
}

// nafTerm is one s*P of a variable-time sum: s in non-adjacent form and
// the odd multiples of P its digits select, odd[k] = (2k+1)*P.
type nafTerm struct {
	naf [256]int8
	odd []cached
}

// varTimeMultiScalarMult sets v to the sum of the terms and returns v
// (Straus's interleaving): the terms share one doubling per bit, counted
// down from the highest nonzero digit any of them has, so a 128-bit
// scalar beside a 253-bit one adds nothing until bit 128. Variable time:
// public scalars only.
func (v *Point) varTimeMultiScalarMult(terms []nafTerm) *Point {
	top := 255
	for ; top >= 0; top-- {
		nonzero := false
		for t := range terms {
			nonzero = nonzero || terms[t].naf[top] != 0
		}
		if nonzero {
			break
		}
	}
	v.setIdentity()
	for i := top; i >= 0; i-- {
		adds := false
		for t := range terms {
			adds = adds || terms[t].naf[i] != 0
		}
		v.double(v, adds || i == 0) // T is read by an addition, and by the caller
		for t := range terms {
			switch d := terms[t].naf[i]; {
			case d > 0:
				v.addCached(v, &terms[t].odd[d/2])
			case d < 0:
				v.subCached(v, &terms[t].odd[-d/2])
			}
		}
	}
	return v
}

// VarTimeDoubleScalarBaseMult sets v = a*A + b*B and returns v. Variable
// time: public scalars only.
func (v *Point) VarTimeDoubleScalarBaseMult(a *Scalar, A *Point, b *Scalar) *Point {
	var oddA [8]cached
	oddMultiples(oddA[:], A)
	terms := [2]nafTerm{
		{naf: a.nonAdjacentForm(5), odd: oddA[:]},
		{naf: b.nonAdjacentForm(8), odd: baseOdd[:]},
	}
	return v.varTimeMultiScalarMult(terms[:])
}

// VarTimeDoubleScalarMult sets v = a*A + b*C and returns v. Variable
// time: public scalars only.
func (v *Point) VarTimeDoubleScalarMult(a *Scalar, A *Point, b *Scalar, C *Point) *Point {
	var oddA, oddC [8]cached
	oddMultiples(oddA[:], A)
	oddMultiples(oddC[:], C)
	terms := [2]nafTerm{
		{naf: a.nonAdjacentForm(5), odd: oddA[:]},
		{naf: b.nonAdjacentForm(5), odd: oddC[:]},
	}
	return v.varTimeMultiScalarMult(terms[:])
}
