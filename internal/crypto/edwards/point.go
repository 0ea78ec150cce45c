// Package edwards implements the edwards25519 group: the twisted Edwards
// curve -x^2 + y^2 = 1 + d*x^2*y^2 over GF(2^255-19), with d =
// -121665/121666, as used by Ed25519 (RFC 8032) and the ECVRF suites of
// RFC 9381.
//
// Points use extended homogeneous coordinates (X : Y : Z : T) with
// x = X/Z, y = Y/Z, x*y = T/Z. The addition law is the strongly unified
// add-2008-hwcd-3 formula set, valid for all curve points since d is a
// non-square; doubling has its own, cheaper formula (dbl-2008-hwcd).
//
// Scalar multiplication comes in two routines (mult.go, and DESIGN.md,
// "Curve arithmetic"): a uniform fixed-window one for secret scalars and
// a variable-time interleaved one for public inputs.
package edwards

import (
	"errors"

	"algorand/internal/crypto/fe"
)

// Point is a point on edwards25519. The zero value is invalid; obtain
// points from NewIdentityPoint, NewGeneratorPoint, or SetBytes.
type Point struct {
	x, y, z, t fe.Element
}

// d is the curve constant -121665/121666 mod p, and d2 = 2*d.
var curveD, curveD2 fe.Element

// basePoint is the standard generator B with y = 4/5 and x even.
var basePoint Point

func init() {
	// d = -121665 / 121666 mod p
	var num, den fe.Element
	num.FromBig(bigInt(-121665))
	den.FromBig(bigInt(121666))
	den.Invert(&den)
	curveD.Multiply(&num, &den)
	curveD2.Add(&curveD, &curveD)

	// B: y = 4/5, sign bit 0 (x even).
	var y fe.Element
	var four, five fe.Element
	four.FromBig(bigInt(4))
	five.FromBig(bigInt(5))
	five.Invert(&five)
	y.Multiply(&four, &five)
	enc := y.Bytes()
	if _, err := basePoint.SetBytes(enc[:]); err != nil {
		panic("edwards: cannot construct base point: " + err.Error())
	}
	initBaseTables()
}

// NewIdentityPoint returns the neutral element (0, 1).
func NewIdentityPoint() *Point {
	return new(Point).setIdentity()
}

func (v *Point) setIdentity() *Point {
	v.x.Zero()
	v.y.One()
	v.z.One()
	v.t.Zero()
	return v
}

// NewGeneratorPoint returns a copy of the standard base point B.
func NewGeneratorPoint() *Point {
	p := &Point{}
	*p = basePoint
	return p
}

// Set sets v = u and returns v.
func (v *Point) Set(u *Point) *Point {
	*v = *u
	return v
}

// Bytes returns the canonical 32-byte compressed encoding of v: the
// little-endian encoding of y with the sign of x in the top bit.
func (v *Point) Bytes() [32]byte {
	var zInv fe.Element
	zInv.Invert(&v.z)
	return v.bytesWithInverse(&zInv)
}

// bytesWithInverse is Bytes given 1/Z.
func (v *Point) bytesWithInverse(zInv *fe.Element) [32]byte {
	var x, y fe.Element
	x.Multiply(&v.x, zInv)
	y.Multiply(&v.y, zInv)

	out := y.Bytes()
	if x.IsNegative() {
		out[31] |= 0x80
	}
	return out
}

// maxEncodeBatch is the most points one EncodeBatch call takes; the VRF
// encodes four at a time.
const maxEncodeBatch = 8

// EncodeBatch sets out[i] = points[i].Bytes() for every i with one field
// inversion between them (Montgomery's trick: invert the product of the
// Zs, then peel one factor off at a time), where Bytes pays one each.
func EncodeBatch(out [][32]byte, points ...*Point) {
	n := len(points)
	if n == 0 || n > maxEncodeBatch || len(out) != n {
		panic("edwards: EncodeBatch takes 1 to 8 points and as many outputs")
	}
	// prefix[i] = Z_0 * ... * Z_i
	var prefix [maxEncodeBatch]fe.Element
	prefix[0] = points[0].z
	for i := 1; i < n; i++ {
		prefix[i].Multiply(&prefix[i-1], &points[i].z)
	}
	// inv = 1 / (Z_0 * ... * Z_i) as i counts down.
	var inv, zInv fe.Element
	inv.Invert(&prefix[n-1])
	for i := n - 1; i > 0; i-- {
		zInv.Multiply(&inv, &prefix[i-1])
		inv.Multiply(&inv, &points[i].z)
		out[i] = points[i].bytesWithInverse(&zInv)
	}
	out[0] = points[0].bytesWithInverse(&inv)
}

// SetBytes decompresses the 32-byte encoding in, setting v and returning
// it, or returns an error if in is not a valid point encoding. Following
// RFC 8032, the y coordinate must decode to an element below p, and
// x = 0 with sign bit 1 is rejected.
func (v *Point) SetBytes(in []byte) (*Point, error) {
	if len(in) != 32 {
		return nil, errors.New("edwards: invalid point encoding length")
	}
	var yBytes [32]byte
	copy(yBytes[:], in)
	signBit := yBytes[31]&0x80 != 0
	yBytes[31] &= 0x7f

	var y fe.Element
	if _, err := y.SetCanonicalBytes(yBytes[:]); err != nil {
		return nil, errors.New("edwards: non-canonical y coordinate")
	}

	// x^2 = (y^2 - 1) / (d*y^2 + 1)
	var y2, u, w fe.Element
	y2.Square(&y)
	u.Subtract(&y2, new(fe.Element).One())
	w.Multiply(&y2, &curveD)
	w.Add(&w, new(fe.Element).One())

	var x fe.Element
	if wasSquare := x.SqrtRatio(&u, &w); !wasSquare {
		return nil, errors.New("edwards: not a point on the curve")
	}

	if x.IsZero() && signBit {
		return nil, errors.New("edwards: invalid encoding of -0")
	}
	if x.IsNegative() != signBit {
		x.Negate(&x)
	}

	v.x.Set(&x)
	v.y.Set(&y)
	v.z.One()
	v.t.Multiply(&x, &y)
	return v, nil
}

// Equal reports whether v == u as group elements.
func (v *Point) Equal(u *Point) bool {
	var a, b fe.Element
	a.Multiply(&v.x, &u.z)
	b.Multiply(&u.x, &v.z)
	if !a.Equal(&b) {
		return false
	}
	a.Multiply(&v.y, &u.z)
	b.Multiply(&u.y, &v.z)
	return a.Equal(&b)
}

// IsIdentity reports whether v is the neutral element.
func (v *Point) IsIdentity() bool {
	return v.x.IsZero() && v.y.Equal(&v.z)
}

// cached is a point in the form an addition consumes, (Y+X, Y-X, Z, 2dT):
// what every table entry of the multiplication routines is, and what Add
// makes of its second operand on the way in.
type cached struct {
	yPlusX, yMinusX, z, t2d fe.Element
}

// fromPoint sets c to the cached form of p.
func (c *cached) fromPoint(p *Point) *cached {
	c.yPlusX.Add(&p.y, &p.x)
	c.yMinusX.Subtract(&p.y, &p.x)
	c.z.Set(&p.z)
	c.t2d.Multiply(&p.t, &curveD2)
	return c
}

// Add sets v = p + q and returns v. The formulas are strongly unified:
// they are correct for p == q as well.
func (v *Point) Add(p, q *Point) *Point {
	var c cached
	return v.addCached(p, c.fromPoint(q))
}

// addCached sets v = p + q (8M) and returns v.
func (v *Point) addCached(p *Point, q *cached) *Point {
	var a, b, c, d, e, f, g, h fe.Element

	a.Subtract(&p.y, &p.x)
	a.Multiply(&a, &q.yMinusX) // (Y1 - X1)(Y2 - X2)
	b.Add(&p.y, &p.x)
	b.Multiply(&b, &q.yPlusX) // (Y1 + X1)(Y2 + X2)
	c.Multiply(&p.t, &q.t2d)  // 2d T1 T2
	d.Multiply(&p.z, &q.z)
	d.Add(&d, &d) // 2 Z1 Z2

	e.Subtract(&b, &a)
	f.Subtract(&d, &c)
	g.Add(&d, &c)
	h.Add(&b, &a)
	return v.complete(&e, &f, &g, &h)
}

// subCached sets v = p - q and returns v. The cached form of -q is q's
// with Y+X and Y-X exchanged and 2dT negated.
func (v *Point) subCached(p *Point, q *cached) *Point {
	neg := cached{yPlusX: q.yMinusX, yMinusX: q.yPlusX, z: q.z}
	neg.t2d.Negate(&q.t2d)
	return v.addCached(p, &neg)
}

// complete sets v = (E*F : G*H : F*G : E*H), the four products every
// addition and doubling ends with.
func (v *Point) complete(e, f, g, h *fe.Element) *Point {
	v.x.Multiply(e, f)
	v.y.Multiply(g, h)
	v.z.Multiply(f, g)
	v.t.Multiply(e, h)
	return v
}

// Double sets v = 2*p and returns v (4S + 4M against the 9M of Add(p, p)).
func (v *Point) Double(p *Point) *Point {
	return v.double(p, true)
}

// double is Double; with withT false it skips the product that gives T
// (4S + 3M) and leaves v good for one thing only, being doubled again,
// which reads X, Y and Z. The multiplication loops double in runs.
func (v *Point) double(p *Point, withT bool) *Point {
	var xx, yy, zz2, e, f, g, h fe.Element

	xx.Square(&p.x)
	yy.Square(&p.y)
	zz2.Square(&p.z)
	zz2.Add(&zz2, &zz2)
	e.Add(&p.x, &p.y)
	e.Square(&e)

	h.Add(&yy, &xx)
	g.Subtract(&yy, &xx)
	e.Subtract(&e, &h) // 2 X Y
	f.Subtract(&zz2, &g)
	if withT {
		return v.complete(&e, &f, &g, &h)
	}
	v.x.Multiply(&e, &f)
	v.y.Multiply(&g, &h)
	v.z.Multiply(&f, &g)
	return v
}

// Negate sets v = -p and returns v.
func (v *Point) Negate(p *Point) *Point {
	v.x.Negate(&p.x)
	v.y.Set(&p.y)
	v.z.Set(&p.z)
	v.t.Negate(&p.t)
	return v
}

// Subtract sets v = p - q and returns v.
func (v *Point) Subtract(p, q *Point) *Point {
	var c cached
	return v.subCached(p, c.fromPoint(q))
}

// MultByCofactor sets v = 8*p and returns v.
func (v *Point) MultByCofactor(p *Point) *Point {
	v.double(p, false)
	v.double(v, false)
	return v.double(v, true)
}

// IsSmallOrder reports whether p is in the small-order (8-torsion)
// subgroup, i.e. whether 8*p is the identity.
func (p *Point) IsSmallOrder() bool {
	var v Point
	v.MultByCofactor(p)
	return v.IsIdentity()
}
