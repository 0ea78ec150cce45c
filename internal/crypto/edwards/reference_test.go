package edwards

// An independent reference model of edwards25519 built directly on
// math/big affine arithmetic. It shares no code with the production
// implementation (different coordinate system, different reduction
// strategy, different scalar-multiplication algorithm), so agreement
// between the two is strong evidence against subtle limb or formula
// bugs that algebraic property tests could miss.

import (
	"math/big"
	"math/rand"
	"testing"

	"algorand/internal/crypto/fe"
)

// refPoint is an affine point (x, y) with big.Int coordinates; the
// identity is (0, 1).
type refPoint struct {
	x, y *big.Int
}

var (
	refP *big.Int // field prime
	refD *big.Int // curve constant d
)

func refInit() {
	if refP != nil {
		return
	}
	refP = fe.P()
	// d = -121665/121666 mod p
	num := new(big.Int).Mod(big.NewInt(-121665), refP)
	den := new(big.Int).ModInverse(big.NewInt(121666), refP)
	refD = new(big.Int).Mul(num, den)
	refD.Mod(refD, refP)
}

func refIdentity() refPoint {
	return refPoint{x: big.NewInt(0), y: big.NewInt(1)}
}

// refAdd implements the affine twisted Edwards addition law
//
//	x3 = (x1*y2 + x2*y1) / (1 + d*x1*x2*y1*y2)
//	y3 = (y1*y2 + x1*x2) / (1 - d*x1*x2*y1*y2)
//
// (a = -1 variant: y3 numerator is y1*y2 + x1*x2).
func refAdd(a, b refPoint) refPoint {
	refInit()
	mod := func(z *big.Int) *big.Int { return z.Mod(z, refP) }
	x1y2 := mod(new(big.Int).Mul(a.x, b.y))
	x2y1 := mod(new(big.Int).Mul(b.x, a.y))
	y1y2 := mod(new(big.Int).Mul(a.y, b.y))
	x1x2 := mod(new(big.Int).Mul(a.x, b.x))
	dxy := mod(new(big.Int).Mul(refD, new(big.Int).Mul(x1x2, y1y2)))

	one := big.NewInt(1)
	denX := mod(new(big.Int).Add(one, dxy))
	denY := mod(new(big.Int).Sub(one, dxy))

	x3 := mod(new(big.Int).Add(x1y2, x2y1))
	x3.Mul(x3, new(big.Int).ModInverse(denX, refP))
	mod(x3)
	y3 := mod(new(big.Int).Add(y1y2, x1x2))
	y3.Mul(y3, new(big.Int).ModInverse(denY, refP))
	mod(y3)
	return refPoint{x: x3, y: y3}
}

// refScalarMult is plain double-and-add on the reference model.
func refScalarMult(k *big.Int, p refPoint) refPoint {
	acc := refIdentity()
	base := p
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = refAdd(acc, acc)
		if k.Bit(i) == 1 {
			acc = refAdd(acc, base)
		}
	}
	return acc
}

// toRef converts a production point to the reference representation.
func toRef(t *testing.T, p *Point) refPoint {
	refInit()
	enc := p.Bytes()
	sign := enc[31] >> 7
	enc[31] &= 0x7f
	// Little-endian to big.Int.
	var be [32]byte
	for i := 0; i < 32; i++ {
		be[i] = enc[31-i]
	}
	y := new(big.Int).SetBytes(be[:])
	// Recover x from the curve equation: x^2 = (y^2-1)/(d y^2+1).
	y2 := new(big.Int).Mul(y, y)
	y2.Mod(y2, refP)
	num := new(big.Int).Sub(y2, big.NewInt(1))
	num.Mod(num, refP)
	den := new(big.Int).Mul(refD, y2)
	den.Add(den, big.NewInt(1))
	den.Mod(den, refP)
	x2 := new(big.Int).Mul(num, new(big.Int).ModInverse(den, refP))
	x2.Mod(x2, refP)
	x := new(big.Int).ModSqrt(x2, refP)
	if x == nil {
		t.Fatal("reference: not a square — invalid point")
	}
	if x.Bit(0) != uint(sign) {
		x.Sub(refP, x)
	}
	return refPoint{x: x, y: y}
}

// refEqualsPoint checks a production point against a reference point.
func refEqualsPoint(t *testing.T, got *Point, want refPoint) bool {
	g := toRef(t, got)
	return g.x.Cmp(want.x) == 0 && g.y.Cmp(want.y) == 0
}

func TestAddMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for i := 0; i < 40; i++ {
		p := randomPoint(rng)
		q := randomPoint(rng)
		var sum Point
		sum.Add(p, q)
		want := refAdd(toRef(t, p), toRef(t, q))
		if !refEqualsPoint(t, &sum, want) {
			t.Fatalf("Add diverges from reference at trial %d", i)
		}
	}
}

func TestDoubleMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for i := 0; i < 40; i++ {
		p := randomPoint(rng)
		var dbl Point
		dbl.Double(p)
		want := refAdd(toRef(t, p), toRef(t, p))
		if !refEqualsPoint(t, &dbl, want) {
			t.Fatalf("Double diverges from reference at trial %d", i)
		}
	}
}

func TestScalarMultMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for i := 0; i < 12; i++ {
		p := randomPoint(rng)
		k := new(big.Int).Rand(rng, Order())
		var s Scalar
		s.SetBigInt(k)
		var got Point
		got.ScalarMult(&s, p)
		want := refScalarMult(k, toRef(t, p))
		if !refEqualsPoint(t, &got, want) {
			t.Fatalf("ScalarMult diverges from reference at trial %d (k=%v)", i, k)
		}
	}
}

func TestBasePointMatchesReferenceModel(t *testing.T) {
	refInit()
	// Reference base point: y = 4/5 mod p, x even.
	y := new(big.Int).Mul(big.NewInt(4), new(big.Int).ModInverse(big.NewInt(5), refP))
	y.Mod(y, refP)
	b := toRef(t, NewGeneratorPoint())
	if b.y.Cmp(y) != 0 {
		t.Fatal("base point y != 4/5")
	}
	if b.x.Bit(0) != 0 {
		t.Fatal("base point x not even")
	}
	// And it satisfies the curve equation -x^2 + y^2 = 1 + d x^2 y^2.
	x2 := new(big.Int).Mul(b.x, b.x)
	x2.Mod(x2, refP)
	y2 := new(big.Int).Mul(b.y, b.y)
	y2.Mod(y2, refP)
	lhs := new(big.Int).Sub(y2, x2)
	lhs.Mod(lhs, refP)
	rhs := new(big.Int).Mul(refD, new(big.Int).Mul(x2, y2))
	rhs.Add(rhs, big.NewInt(1))
	rhs.Mod(rhs, refP)
	if lhs.Cmp(rhs) != 0 {
		t.Fatal("base point not on the curve per reference equation")
	}
}

func TestSmallMultiplesMatchReference(t *testing.T) {
	// 1B, 2B, ..., 16B against the reference, catching off-by-one
	// scalar handling.
	b := NewGeneratorPoint()
	ref := toRef(t, b)
	acc := refIdentity()
	for k := 1; k <= 16; k++ {
		acc = refAdd(acc, ref)
		var s Scalar
		s.SetBigInt(big.NewInt(int64(k)))
		var got Point
		got.ScalarBaseMult(&s)
		if !refEqualsPoint(t, &got, acc) {
			t.Fatalf("%d*B diverges from reference", k)
		}
	}
}

// scalarMultBytes is the multiplication production ran before the windowed
// routines: MSB-first double-and-add over a little-endian scalar of any
// length, doubling through the unified addition. It stays as the second
// oracle beside the math/big model — same coordinates as production, no
// recoding, no table, no dedicated doubling — and takes scalars production
// cannot construct (l itself, in TestBasePointOrder).
func (v *Point) scalarMultBytes(sb []byte, q *Point) *Point {
	acc := NewIdentityPoint()
	base := *q
	for i := len(sb) - 1; i >= 0; i-- {
		for bit := 7; bit >= 0; bit-- {
			acc.Add(acc, acc)
			if (sb[i]>>uint(bit))&1 == 1 {
				acc.Add(acc, &base)
			}
		}
	}
	return v.Set(acc)
}
