package edwards

import (
	"errors"
	"math/big"
)

// Scalar is an integer modulo the prime group order
// l = 2^252 + 27742317777372353535851937790883648493, stored as a
// canonical 32-byte little-endian value.
//
// One exception: SetClampedBytes stores an Ed25519-style clamped secret
// scalar, which may exceed l; point multiplication accepts this, and
// arithmetic methods reduce it mod l first.
type Scalar struct {
	b [32]byte
}

// order is l as a big.Int, orderLE its 32-byte little-endian encoding.
var (
	order   *big.Int
	orderLE [32]byte
)

func init() {
	l, ok := new(big.Int).SetString(
		"7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)
	if !ok {
		panic("edwards: bad group order constant")
	}
	// Sanity-check against the structural definition 2^252 + c.
	c, _ := new(big.Int).SetString("27742317777372353535851937790883648493", 10)
	want := new(big.Int).Lsh(big.NewInt(1), 252)
	want.Add(want, c)
	if l.Cmp(want) != 0 {
		panic("edwards: inconsistent group order constants")
	}
	order = l
	var be [32]byte
	l.FillBytes(be[:])
	for i := range be {
		orderLE[i] = be[31-i]
	}
}

// Order returns the group order l as a new big.Int.
func Order() *big.Int {
	return new(big.Int).Set(order)
}

func bigInt(x int64) *big.Int { return big.NewInt(x) }

// big returns the scalar value as a big.Int.
func (s *Scalar) big() *big.Int {
	var be [32]byte
	for i := 0; i < 32; i++ {
		be[i] = s.b[31-i]
	}
	return new(big.Int).SetBytes(be[:])
}

// setBig sets s = x mod l.
func (s *Scalar) setBig(x *big.Int) *Scalar {
	m := new(big.Int).Mod(x, order)
	var be [32]byte
	m.FillBytes(be[:])
	for i := 0; i < 32; i++ {
		s.b[i] = be[31-i]
	}
	return s
}

// SetUniformBytes sets s to the 64-byte little-endian value x reduced
// mod l, as used for nonce generation. It returns an error if
// len(x) != 64.
func (s *Scalar) SetUniformBytes(x []byte) (*Scalar, error) {
	if len(x) != 64 {
		return nil, errors.New("edwards: SetUniformBytes input must be 64 bytes")
	}
	var be [64]byte
	for i := 0; i < 64; i++ {
		be[i] = x[63-i]
	}
	return s.setBig(new(big.Int).SetBytes(be[:])), nil
}

// SetCanonicalBytes sets s to the 32-byte little-endian value x, and
// returns an error if x is not canonical (x >= l). It compares bytes, not
// big.Ints: a proof's s passes through here on every verification.
func (s *Scalar) SetCanonicalBytes(x []byte) (*Scalar, error) {
	if len(x) != 32 {
		return nil, errors.New("edwards: scalar must be 32 bytes")
	}
	// The most significant byte in which x and l differ decides; none
	// means x == l.
	i := 31
	for i > 0 && x[i] == orderLE[i] {
		i--
	}
	if x[i] >= orderLE[i] {
		return nil, errors.New("edwards: non-canonical scalar")
	}
	copy(s.b[:], x)
	return s, nil
}

// SetClampedBytes sets s to the 32-byte value x with Ed25519 clamping
// applied (clear the low 3 bits and bit 255, set bit 254). The stored
// value is the clamped integer itself, NOT reduced mod l, so that
// ScalarBaseMult(s) matches RFC 8032 public key derivation exactly.
func (s *Scalar) SetClampedBytes(x []byte) (*Scalar, error) {
	if len(x) != 32 {
		return nil, errors.New("edwards: scalar must be 32 bytes")
	}
	copy(s.b[:], x)
	s.b[0] &= 248
	s.b[31] &= 127
	s.b[31] |= 64
	return s, nil
}

// SetBigInt sets s = x mod l and returns s.
func (s *Scalar) SetBigInt(x *big.Int) *Scalar {
	return s.setBig(x)
}

// Bytes returns the 32-byte little-endian encoding of s.
func (s *Scalar) Bytes() [32]byte {
	return s.b
}

// MultiplyAdd sets s = a*b + c mod l and returns s.
func (s *Scalar) MultiplyAdd(a, b, c *Scalar) *Scalar {
	v := new(big.Int).Mul(a.big(), b.big())
	v.Add(v, c.big())
	return s.setBig(v)
}

// Add sets s = a + b mod l and returns s.
func (s *Scalar) Add(a, b *Scalar) *Scalar {
	return s.setBig(new(big.Int).Add(a.big(), b.big()))
}

// Negate sets s = -a mod l and returns s.
func (s *Scalar) Negate(a *Scalar) *Scalar {
	return s.setBig(new(big.Int).Neg(a.big()))
}
