package fe

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// randElement returns a uniformly random reduced element along with its
// big.Int value.
func randElement(rng *rand.Rand) (*Element, *big.Int) {
	x := new(big.Int).Rand(rng, P())
	var e Element
	e.FromBig(x)
	return &e, x
}

func TestBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		e, x := randElement(rng)
		b := e.Bytes()
		var e2 Element
		if _, err := e2.SetBytes(b[:]); err != nil {
			t.Fatal(err)
		}
		if !e.Equal(&e2) {
			t.Fatalf("round trip mismatch for %v", x)
		}
		if e2.Big().Cmp(x) != 0 {
			t.Fatalf("big round trip mismatch: got %v want %v", e2.Big(), x)
		}
	}
}

func TestSetBytesIgnoresHighBit(t *testing.T) {
	var b [32]byte
	b[0] = 5
	b[31] = 0x80
	var e, want Element
	if _, err := e.SetBytes(b[:]); err != nil {
		t.Fatal(err)
	}
	want.FromBig(big.NewInt(5))
	if !e.Equal(&want) {
		t.Fatalf("high bit not ignored: got %v", e.Big())
	}
}

func TestSetCanonicalBytesRejects(t *testing.T) {
	// p itself encodes non-canonically.
	p := P()
	var buf [32]byte
	p.FillBytes(buf[:])
	for i, j := 0, 31; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	var e Element
	if _, err := e.SetCanonicalBytes(buf[:]); err == nil {
		t.Fatal("expected rejection of p")
	}
	// High-bit set must be rejected too.
	var hb [32]byte
	hb[31] = 0x80
	if _, err := e.SetCanonicalBytes(hb[:]); err == nil {
		t.Fatal("expected rejection of high bit")
	}
	// A canonical value must be accepted.
	var one [32]byte
	one[0] = 1
	if _, err := e.SetCanonicalBytes(one[:]); err != nil {
		t.Fatal(err)
	}
}

// TestArithAgainstBig cross-checks limb arithmetic against math/big.
func TestArithAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := P()
	for i := 0; i < 1000; i++ {
		a, ab := randElement(rng)
		b, bb := randElement(rng)

		var sum, diff, prod, sq, neg Element
		sum.Add(a, b)
		diff.Subtract(a, b)
		prod.Multiply(a, b)
		sq.Square(a)
		neg.Negate(a)

		wantSum := new(big.Int).Add(ab, bb)
		wantSum.Mod(wantSum, p)
		if sum.Big().Cmp(wantSum) != 0 {
			t.Fatalf("add mismatch: %v + %v", ab, bb)
		}
		wantDiff := new(big.Int).Sub(ab, bb)
		wantDiff.Mod(wantDiff, p)
		if diff.Big().Cmp(wantDiff) != 0 {
			t.Fatalf("sub mismatch: %v - %v", ab, bb)
		}
		wantProd := new(big.Int).Mul(ab, bb)
		wantProd.Mod(wantProd, p)
		if prod.Big().Cmp(wantProd) != 0 {
			t.Fatalf("mul mismatch: %v * %v", ab, bb)
		}
		wantSq := new(big.Int).Mul(ab, ab)
		wantSq.Mod(wantSq, p)
		if sq.Big().Cmp(wantSq) != 0 {
			t.Fatalf("square mismatch: %v", ab)
		}
		wantNeg := new(big.Int).Neg(ab)
		wantNeg.Mod(wantNeg, p)
		if neg.Big().Cmp(wantNeg) != 0 {
			t.Fatalf("neg mismatch: %v", ab)
		}
	}
}

func TestMult32(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := P()
	for i := 0; i < 200; i++ {
		a, ab := randElement(rng)
		x := rng.Uint32()
		var got Element
		got.Mult32(a, x)
		want := new(big.Int).Mul(ab, big.NewInt(int64(x)))
		want.Mod(want, p)
		if got.Big().Cmp(want) != 0 {
			t.Fatalf("mult32 mismatch: %v * %d", ab, x)
		}
	}
}

func TestInvert(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var one Element
	one.One()
	for i := 0; i < 100; i++ {
		a, _ := randElement(rng)
		if a.IsZero() {
			continue
		}
		var inv, prod Element
		inv.Invert(a)
		prod.Multiply(a, &inv)
		if !prod.Equal(&one) {
			t.Fatalf("a * a^-1 != 1 for %v", a.Big())
		}
	}
	// Invert(0) == 0 by convention.
	var zero, invZero Element
	invZero.Invert(&zero)
	if !invZero.IsZero() {
		t.Fatal("Invert(0) != 0")
	}
}

func TestSqrtM1(t *testing.T) {
	i := SqrtM1()
	var sq, minusOne Element
	sq.Square(&i)
	minusOne.Negate(new(Element).One())
	if !sq.Equal(&minusOne) {
		t.Fatal("sqrt(-1)^2 != -1")
	}
}

func TestSqrtRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	squares, nonSquares := 0, 0
	for i := 0; i < 300; i++ {
		u, _ := randElement(rng)
		w, _ := randElement(rng)
		if w.IsZero() {
			continue
		}
		var r Element
		wasSquare := r.SqrtRatio(u, w)
		if wasSquare {
			squares++
			// Check r^2 * w == u.
			var chk Element
			chk.Square(&r)
			chk.Multiply(&chk, w)
			if !chk.Equal(u) {
				t.Fatalf("sqrt check failed (square case)")
			}
			if r.IsNegative() && !r.IsZero() {
				t.Fatal("SqrtRatio returned negative root")
			}
		} else {
			nonSquares++
		}
	}
	// Roughly half the ratios should be squares.
	if squares == 0 || nonSquares == 0 {
		t.Fatalf("implausible split: %d squares, %d non-squares", squares, nonSquares)
	}
}

func TestPow22523(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := P()
	e := new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(5)), 3) // (p-5)/8
	for i := 0; i < 50; i++ {
		a, ab := randElement(rng)
		var got Element
		got.Pow22523(a)
		want := new(big.Int).Exp(ab, e, p)
		if got.Big().Cmp(want) != 0 {
			t.Fatalf("pow22523 mismatch for %v", ab)
		}
	}
}

// Property: (a+b)*c == a*c + b*c (distributivity) on the limb
// implementation alone, via testing/quick over raw byte encodings.
func TestDistributivityQuick(t *testing.T) {
	f := func(ab, bb, cb [32]byte) bool {
		var a, b, c Element
		a.SetBytes(ab[:])
		b.SetBytes(bb[:])
		c.SetBytes(cb[:])
		var l, r1, r2, r Element
		l.Add(&a, &b)
		l.Multiply(&l, &c)
		r1.Multiply(&a, &c)
		r2.Multiply(&b, &c)
		r.Add(&r1, &r2)
		return l.Equal(&r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Multiply is commutative and associative.
func TestMulPropertiesQuick(t *testing.T) {
	comm := func(ab, bb [32]byte) bool {
		var a, b, x, y Element
		a.SetBytes(ab[:])
		b.SetBytes(bb[:])
		x.Multiply(&a, &b)
		y.Multiply(&b, &a)
		return x.Equal(&y)
	}
	if err := quick.Check(comm, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("commutativity: %v", err)
	}
	assoc := func(ab, bb, cb [32]byte) bool {
		var a, b, c, x, y Element
		a.SetBytes(ab[:])
		b.SetBytes(bb[:])
		c.SetBytes(cb[:])
		x.Multiply(&a, &b)
		x.Multiply(&x, &c)
		y.Multiply(&b, &c)
		y.Multiply(&a, &y)
		return x.Equal(&y)
	}
	if err := quick.Check(assoc, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("associativity: %v", err)
	}
}

func TestAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		a, ab := randElement(rng)
		b, bb := randElement(rng)
		p := P()

		// v.Multiply(v, b) where v aliases a.
		v := *a
		v.Multiply(&v, b)
		want := new(big.Int).Mul(ab, bb)
		want.Mod(want, p)
		if v.Big().Cmp(want) != 0 {
			t.Fatal("aliased Multiply(v, v, b) wrong")
		}

		// v.Square(v)
		v = *a
		v.Square(&v)
		want = new(big.Int).Mul(ab, ab)
		want.Mod(want, p)
		if v.Big().Cmp(want) != 0 {
			t.Fatal("aliased Square wrong")
		}

		// v.Add(v, v)
		v = *a
		v.Add(&v, &v)
		want = new(big.Int).Lsh(ab, 1)
		want.Mod(want, p)
		if v.Big().Cmp(want) != 0 {
			t.Fatal("aliased Add wrong")
		}
	}
}

func TestIsNegative(t *testing.T) {
	var two Element
	two.FromBig(big.NewInt(2))
	if two.IsNegative() {
		t.Fatal("2 should be non-negative")
	}
	var one Element
	one.One()
	if !one.IsNegative() {
		t.Fatal("1 has LSB set, should be negative by convention")
	}
}

func TestEqualDifferentRepresentations(t *testing.T) {
	// 2^255 - 19 + 5 should equal 5 despite different limb contents.
	var a Element
	a.FromBig(big.NewInt(5))
	b := a
	// Push b into a denormalized representation: b += p (limbwise).
	b.l0 += maskLow51Bits - 18 // 2^51 - 19
	b.l1 += maskLow51Bits
	b.l2 += maskLow51Bits
	b.l3 += maskLow51Bits
	b.l4 += maskLow51Bits
	if !a.Equal(&b) {
		t.Fatal("denormalized equality failed")
	}
	if !bytes.Equal(firstBytes(a), firstBytes(b)) {
		t.Fatal("encodings differ")
	}
}

// TestSelect covers both arms, with the destination aliasing either
// operand as the table lookup of the fixed-window multiplication does. The
// limbs are compared, not the values: Select moves a representation.
func TestSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 50; i++ {
		a, _ := randElement(rng)
		b, _ := randElement(rng)
		b.Add(b, b) // limbs above 51 bits must survive too
		var v Element
		if v.Select(a, b, 1); v != *a {
			t.Fatal("Select(a, b, 1) != a")
		}
		if v.Select(a, b, 0); v != *b {
			t.Fatal("Select(a, b, 0) != b")
		}
		v = *b
		if v.Select(a, &v, 1); v != *a {
			t.Fatal("Select(a, v, 1) != a")
		}
		v = *a
		if v.Select(&v, b, 0); v != *b {
			t.Fatal("Select(v, b, 0) != b")
		}
	}
}

func firstBytes(e Element) []byte {
	b := e.Bytes()
	return b[:]
}

func BenchmarkMultiply(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x, _ := randElement(rng)
	y, _ := randElement(rng)
	var v Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Multiply(x, y)
	}
}

func BenchmarkSquare(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x, _ := randElement(rng)
	var v Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Square(x)
	}
}

func BenchmarkInvert(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x, _ := randElement(rng)
	var v Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Invert(x)
	}
}
