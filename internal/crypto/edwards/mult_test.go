package edwards

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"algorand/internal/crypto/fe"
)

// The windowed routines against two oracles that share nothing with them
// but the field: the math/big affine model (reference_test.go) and the
// double-and-add loop production ran before (scalarMultBytes).

// rawScalar builds the scalar k without reducing it, as SetClampedBytes
// can: any k below 2^255.
func rawScalar(t testing.TB, k *big.Int) *Scalar {
	t.Helper()
	if k.Sign() < 0 || k.BitLen() > 255 {
		t.Fatalf("scalar %v outside [0, 2^255)", k)
	}
	var be [32]byte
	k.FillBytes(be[:])
	var s Scalar
	for i := range be {
		s.b[i] = be[31-i]
	}
	return &s
}

func pow2(n uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), n) }

// edgeScalars are the values that break digit recodings: the ends of the
// range, carries that run the whole length, the clamped extremes (which
// exceed l), and 128-bit challenges with every top nibble.
func edgeScalars() []*big.Int {
	sub := func(a *big.Int, b int64) *big.Int { return new(big.Int).Sub(a, big.NewInt(b)) }
	add := func(a *big.Int, b int64) *big.Int { return new(big.Int).Add(a, big.NewInt(b)) }
	out := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(7), big.NewInt(8), big.NewInt(15), big.NewInt(16),
		sub(Order(), 1), sub(Order(), 2), Order(), add(Order(), 1),
		sub(pow2(252), 1), pow2(252), add(pow2(252), 1),
		pow2(254), add(pow2(254), 8), sub(pow2(255), 8), sub(pow2(255), 1),
		sub(pow2(64), 1), sub(pow2(128), 1), sub(pow2(200), 1), pow2(127), pow2(128), pow2(129),
	}
	// Repeating nibbles: 0x77.., 0x88.. make every radix-16 digit carry or
	// not; 0x55.., 0xaa.. alternate bits under every NAF window.
	for _, nib := range []byte{0x5, 0x7, 0x8, 0xa, 0xf} {
		b := bytes.Repeat([]byte{nib<<4 | nib}, 32)
		b[0] &= 0x7f
		out = append(out, new(big.Int).SetBytes(b))
	}
	for top := int64(1); top < 16; top++ {
		c := new(big.Int).Lsh(big.NewInt(top), 124)
		out = append(out, c, new(big.Int).Or(c, sub(pow2(124), 1)), new(big.Int).Or(c, big.NewInt(0x5a5a5a5a5a5a)))
	}
	return out
}

// torsionPoints decodes the eight points of small order from their
// well-known encodings.
func torsionPoints(t testing.TB) []*Point {
	t.Helper()
	var out []*Point
	for _, h := range []string{
		"0100000000000000000000000000000000000000000000000000000000000000", // order 1
		"ec" + strings.Repeat("ff", 30) + "7f",                             // order 2
		"0000000000000000000000000000000000000000000000000000000000000000", // order 4
		"0000000000000000000000000000000000000000000000000000000000000080",
		"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05", // order 8
		"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
		"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
		"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
	} {
		enc, _ := hex.DecodeString(h)
		var p Point
		if _, err := p.SetBytes(enc); err != nil {
			t.Fatalf("small-order encoding %s: %v", h, err)
		}
		if !p.IsSmallOrder() {
			t.Fatalf("%s is not of small order", h)
		}
		out = append(out, &p)
	}
	return out
}

// edgePoints are the points a multiplication table is easiest to get
// wrong for: the identity and the rest of the torsion (whose multiples
// repeat inside one table), B, and points with a torsion component.
func edgePoints(t testing.TB, rng *rand.Rand) []*Point {
	tors := torsionPoints(t)
	out := append([]*Point{NewGeneratorPoint(), randomPoint(rng)}, tors...)
	for _, i := range []int{1, 3, 5} {
		out = append(out, new(Point).Add(randomPoint(rng), tors[i]))
	}
	return out
}

// wellFormed reports whether p's T is X*Y/Z, which Equal and Bytes never
// read but the next Add does.
func wellFormed(p *Point) bool {
	var xy, tz fe.Element
	xy.Multiply(&p.x, &p.y)
	tz.Multiply(&p.t, &p.z)
	return xy.Equal(&tz)
}

// oracleMult is k*p by double-and-add, k of any size.
func oracleMult(k *big.Int, p *Point) *Point {
	be := k.Bytes()
	le := make([]byte, len(be))
	for i := range be {
		le[i] = be[len(be)-1-i]
	}
	return new(Point).scalarMultBytes(le, p)
}

func TestRecodingsReconstructScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	ks := edgeScalars()
	for i := 0; i < 200; i++ {
		ks = append(ks, new(big.Int).Rand(rng, pow2(255)))
	}
	for _, k := range ks {
		s := rawScalar(t, k)

		sum := new(big.Int)
		for i, d := range s.signedRadix16() {
			if d < -8 || d > 8 || (d == 8 && i != 63) {
				t.Fatalf("radix-16 digit %d of %v is %d", i, k, d)
			}
			sum.Add(sum, new(big.Int).Lsh(big.NewInt(int64(d)), uint(4*i)))
		}
		if sum.Cmp(k) != 0 {
			t.Fatalf("radix-16 digits of %v sum to %v", k, sum)
		}

		for _, w := range []uint{5, 8} {
			naf := s.nonAdjacentForm(w)
			sum.SetInt64(0)
			last := -int(w)
			for i, d := range naf {
				if d == 0 {
					continue
				}
				if d&1 == 0 || int(d) >= 1<<(w-1) || int(d) <= -(1<<(w-1)) {
					t.Fatalf("width-%d NAF digit %d of %v is %d", w, i, k, d)
				}
				if i-last < int(w) {
					t.Fatalf("width-%d NAF of %v has nonzero digits at %d and %d", w, k, last, i)
				}
				last = i
				sum.Add(sum, new(big.Int).Lsh(big.NewInt(int64(d)), uint(i)))
			}
			if sum.Cmp(k) != 0 {
				t.Fatalf("width-%d NAF of %v sums to %v", w, k, sum)
			}
		}
	}
}

func TestScalarMultMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	ks := edgeScalars()
	for i := 0; i < 24; i++ {
		ks = append(ks, new(big.Int).Rand(rng, pow2(255)))
	}
	points := edgePoints(t, rng)
	for i, k := range ks {
		s := rawScalar(t, k)
		for j, p := range points {
			want := oracleMult(k, p)
			if got := new(Point).ScalarMult(s, p); !got.Equal(want) || !wellFormed(got) {
				t.Fatalf("ScalarMult(%v, point %d) diverges from double-and-add", k, j)
			}
			// In place, and against the independent model on a rotating
			// subset (it is three orders of magnitude slower).
			q := *p
			if q.ScalarMult(s, &q); !q.Equal(want) {
				t.Fatalf("ScalarMult(%v, point %d) in place diverges", k, j)
			}
			if (i+j)%7 == 0 && !refEqualsPoint(t, &q, refScalarMult(k, toRef(t, p))) {
				t.Fatalf("ScalarMult(%v, point %d) diverges from the math/big model", k, j)
			}
		}
		want := oracleMult(k, NewGeneratorPoint())
		got := new(Point).ScalarBaseMult(s)
		if !got.Equal(want) || !wellFormed(got) {
			t.Fatalf("ScalarBaseMult(%v) diverges from double-and-add", k)
		}
		if i%5 == 0 && !refEqualsPoint(t, got, refScalarMult(k, toRef(t, NewGeneratorPoint()))) {
			t.Fatalf("ScalarBaseMult(%v) diverges from the math/big model", k)
		}
	}
}

// checkMultiScalar compares both variable-time entry points with
// a*A + b*C (and a*A + b*B) assembled from double-and-add.
func checkMultiScalar(t testing.TB, a, b *big.Int, pA, pC *Point) {
	t.Helper()
	sa, sb := rawScalar(t, a), rawScalar(t, b)
	aA := oracleMult(a, pA)

	want := new(Point).Add(aA, oracleMult(b, pC))
	if got := new(Point).VarTimeDoubleScalarMult(sa, pA, sb, pC); !got.Equal(want) || !wellFormed(got) {
		t.Fatalf("VarTimeDoubleScalarMult(%v, A, %v, C) diverges from double-and-add", a, b)
	}
	want.Add(aA, oracleMult(b, NewGeneratorPoint()))
	if got := new(Point).VarTimeDoubleScalarBaseMult(sa, pA, sb); !got.Equal(want) || !wellFormed(got) {
		t.Fatalf("VarTimeDoubleScalarBaseMult(%v, A, %v) diverges from double-and-add", a, b)
	}
}

func TestMultiScalarMultMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	edges := edgeScalars()
	points := edgePoints(t, rng)
	// Every edge scalar in each position, beside a random one and beside
	// itself, over a rotating choice of points.
	for i, k := range edges {
		r := new(big.Int).Rand(rng, pow2(255))
		pA, pC := points[i%len(points)], points[(i*5+3)%len(points)]
		checkMultiScalar(t, k, r, pA, pC)
		checkMultiScalar(t, r, k, pA, pC)
		checkMultiScalar(t, k, k, pC, pA)
	}
	for i := 0; i < 40; i++ {
		a, b := new(big.Int).Rand(rng, pow2(128)), new(big.Int).Rand(rng, Order())
		checkMultiScalar(t, a, b, randomPoint(rng), randomPoint(rng))
	}
	// P and -P: the sum passes through the identity, and equals it for
	// equal scalars.
	for i := 0; i < 8; i++ {
		p := randomPoint(rng)
		neg := new(Point).Negate(p)
		a, b := new(big.Int).Rand(rng, Order()), new(big.Int).Rand(rng, Order())
		checkMultiScalar(t, a, b, p, neg)
		checkMultiScalar(t, a, a, p, neg)
		s := rawScalar(t, a)
		if got := new(Point).VarTimeDoubleScalarMult(s, p, s, neg); !got.IsIdentity() {
			t.Fatal("a*P + a*(-P) is not the identity")
		}
	}
	// Against the independent model, and with the destination aliasing an
	// input.
	for i := 0; i < 6; i++ {
		a, b := new(big.Int).Rand(rng, pow2(128)), new(big.Int).Rand(rng, Order())
		pA, pC := randomPoint(rng), randomPoint(rng)
		want := refAdd(refScalarMult(a, toRef(t, pA)), refScalarMult(b, toRef(t, pC)))
		got := *pA
		got.VarTimeDoubleScalarMult(rawScalar(t, a), &got, rawScalar(t, b), pC)
		if !refEqualsPoint(t, &got, want) {
			t.Fatal("VarTimeDoubleScalarMult diverges from the math/big model")
		}
		want = refAdd(refScalarMult(a, toRef(t, pA)), refScalarMult(b, toRef(t, NewGeneratorPoint())))
		got = *pA
		got.VarTimeDoubleScalarBaseMult(rawScalar(t, a), &got, rawScalar(t, b))
		if !refEqualsPoint(t, &got, want) {
			t.Fatal("VarTimeDoubleScalarBaseMult diverges from the math/big model")
		}
	}
}

// FuzzMultiScalarMult drives both multiplication routines with raw
// 255-bit scalars and points that may carry a torsion component.
func FuzzMultiScalarMult(f *testing.F) {
	for i, k := range edgeScalars() {
		if k.BitLen() > 255 {
			continue
		}
		f.Add(rawScalar(f, k).b[:], rawScalar(f, new(big.Int).Sub(pow2(255), big.NewInt(int64(19+i)))).b[:], uint64(i), uint64(3*i+1), byte(i))
	}
	tors := torsionPoints(f)
	f.Fuzz(func(t *testing.T, a, b []byte, seedA, seedC uint64, torsion byte) {
		if len(a) != 32 || len(b) != 32 {
			return
		}
		ka, kb := new(big.Int), new(big.Int)
		for i := 31; i >= 0; i-- {
			ka.Lsh(ka, 8).Or(ka, big.NewInt(int64(a[i])))
			kb.Lsh(kb, 8).Or(kb, big.NewInt(int64(b[i])))
		}
		ka.SetBit(ka, 255, 0)
		kb.SetBit(kb, 255, 0)
		pA := new(Point).ScalarBaseMult(rawScalar(t, new(big.Int).SetUint64(seedA)))
		pC := new(Point).ScalarBaseMult(rawScalar(t, new(big.Int).SetUint64(seedC)))
		pA.Add(pA, tors[torsion&7])
		pC.Add(pC, tors[torsion>>3&7])

		checkMultiScalar(t, ka, kb, pA, pC)
		if got := new(Point).ScalarMult(rawScalar(t, ka), pA); !got.Equal(oracleMult(ka, pA)) {
			t.Fatalf("ScalarMult(%v) diverges from double-and-add", ka)
		}
		if got := new(Point).ScalarBaseMult(rawScalar(t, kb)); !got.Equal(oracleMult(kb, NewGeneratorPoint())) {
			t.Fatalf("ScalarBaseMult(%v) diverges from double-and-add", kb)
		}
	})
}

// TestFixedWindowMultIsUniform pins what the secret-scalar path promises:
// the sequence of doublings, additions and table positions read is the
// same whatever the scalar — here for scalars of very different weight —
// in the one-row form ScalarMult uses and the 32-row form of
// ScalarBaseMult.
func TestFixedWindowMultIsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	var row [1][8]cached
	multiples(&row[0], randomPoint(rng))
	for name, rows := range map[string][][8]cached{"one row": row[:], "base rows": baseRows[:]} {
		var want []byte
		for i, k := range []*big.Int{
			big.NewInt(0), big.NewInt(1), pow2(254), new(big.Int).Sub(pow2(255), big.NewInt(1)),
			new(big.Int).Sub(Order(), big.NewInt(1)), new(big.Int).Rand(rng, Order()),
		} {
			var tr opTrace
			var p Point
			p.fixedWindowMult(rawScalar(t, k), rows, &tr)
			if !p.Equal(oracleMult(k, new(Point).fixedWindowMult(rawScalar(t, big.NewInt(1)), rows, nil))) {
				t.Fatalf("%s: traced multiplication by %v is wrong", name, k)
			}
			if i == 0 {
				want = tr.ops
				adds := bytes.Count(want, []byte{'A'})
				doubles := bytes.Count(want, []byte{'D'})
				if adds != 64 || doubles != 4*(64/len(rows)-1) || len(want) != adds*9+doubles {
					t.Fatalf("%s: %d additions, %d doublings, %d operations in all", name, adds, doubles, len(want))
				}
				continue
			}
			if !bytes.Equal(tr.ops, want) {
				t.Fatalf("%s: multiplying by %v and by 0 leave different traces", name, k)
			}
		}
	}
}

func TestEncodeBatchMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	points := edgePoints(t, rng)
	for i := range points {
		// Off Z = 1, as the results of arithmetic are.
		points[i] = new(Point).Add(points[i], NewIdentityPoint())
		points[i].Double(points[i])
	}
	for n := 1; n <= maxEncodeBatch; n++ {
		batch := make([]*Point, n)
		for i := range batch {
			batch[i] = points[(n+i)%len(points)]
		}
		out := make([][32]byte, n)
		EncodeBatch(out, batch...)
		for i, p := range batch {
			if out[i] != p.Bytes() {
				t.Fatalf("batch of %d: encoding %d differs from Bytes", n, i)
			}
		}
	}
	for _, n := range []int{0, maxEncodeBatch + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("EncodeBatch took %d points", n)
				}
			}()
			EncodeBatch(make([][32]byte, n), make([]*Point, n)...)
		}()
	}
}

func TestDoubleMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	for i, p := range edgePoints(t, rng) {
		var viaAdd, viaDouble, noT Point
		viaAdd.Add(p, p)
		viaDouble.Double(p)
		if !viaDouble.Equal(&viaAdd) || !refEqualsPoint(t, &viaDouble, refAdd(toRef(t, p), toRef(t, p))) {
			t.Fatalf("Double(point %d) != Add(p, p)", i)
		}
		if !wellFormed(&viaDouble) {
			t.Fatalf("Double(point %d) leaves T inconsistent", i)
		}
		// Without T the result still doubles to 4p.
		noT.double(p, false)
		noT.Double(&noT)
		viaAdd.Add(&viaAdd, &viaAdd)
		if !noT.Equal(&viaAdd) {
			t.Fatalf("double without T, doubled again, != 4 * point %d", i)
		}
	}
}

func TestScalarSetCanonicalBytesBoundary(t *testing.T) {
	l := Order()
	for _, c := range []struct {
		k  *big.Int
		ok bool
	}{
		{big.NewInt(0), true},
		{new(big.Int).Sub(l, big.NewInt(1)), true},
		{l, false},
		{new(big.Int).Add(l, big.NewInt(1)), false},
		{new(big.Int).Sub(l, pow2(128)), true}, // below l in a middle byte
		{new(big.Int).Add(l, pow2(128)), false},
		{new(big.Int).Sub(pow2(252), big.NewInt(1)), true},
		{new(big.Int).Add(pow2(252), pow2(200)), false}, // top byte equal, a lower one above
		{pow2(253), false},
		{new(big.Int).Sub(pow2(256), big.NewInt(1)), false},
	} {
		var be, le [32]byte
		c.k.FillBytes(be[:])
		for i := range be {
			le[i] = be[31-i]
		}
		var s Scalar
		_, err := s.SetCanonicalBytes(le[:])
		if (err == nil) != c.ok {
			t.Fatalf("SetCanonicalBytes(%v): err = %v, want accepted = %v", c.k, err, c.ok)
		}
		if c.ok && s.big().Cmp(c.k) != 0 {
			t.Fatalf("SetCanonicalBytes(%v) stored %v", c.k, s.big())
		}
	}
}

func TestAllocBudgetEdwards(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	p, q := randomPoint(rng), randomPoint(rng)
	a, b := rawScalar(t, new(big.Int).Rand(rng, pow2(128))), rawScalar(t, new(big.Int).Rand(rng, Order()))
	enc := p.Bytes()
	var v Point
	var out [4][32]byte
	for name, fn := range map[string]func(){
		"ScalarMult":                  func() { v.ScalarMult(b, p) },
		"ScalarBaseMult":              func() { v.ScalarBaseMult(b) },
		"VarTimeDoubleScalarBaseMult": func() { v.VarTimeDoubleScalarBaseMult(a, p, b) },
		"VarTimeDoubleScalarMult":     func() { v.VarTimeDoubleScalarMult(a, p, b, q) },
		"EncodeBatch":                 func() { EncodeBatch(out[:], p, q, &v, p) },
		"SetBytes":                    func() { v.SetBytes(enc[:]) },
		"IsSmallOrder":                func() { p.IsSmallOrder() },
	} {
		if n := testing.AllocsPerRun(20, fn); n != 0 {
			t.Errorf("%s allocates %v times, want 0", name, n)
		}
	}
}

func BenchmarkScalarMult(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	var s Scalar
	s.SetBigInt(new(big.Int).Rand(rng, Order()))
	p := randomPoint(rng)
	var v Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.ScalarMult(&s, p)
	}
}

func BenchmarkVarTimeDoubleScalarBaseMult(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	var c, s Scalar
	c.SetBigInt(new(big.Int).Rand(rng, pow2(128)))
	s.SetBigInt(new(big.Int).Rand(rng, Order()))
	p := randomPoint(rng)
	var v Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.VarTimeDoubleScalarBaseMult(&c, p, &s)
	}
}

func BenchmarkDouble(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	p := randomPoint(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Double(p)
	}
}
