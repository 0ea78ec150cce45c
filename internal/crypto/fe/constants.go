package fe

import (
	"math/big"
	"sync"
)

// P returns the field prime 2^255 - 19 as a new big.Int.
func P() *big.Int {
	p := new(big.Int).Lsh(big.NewInt(1), 255)
	return p.Sub(p, big.NewInt(19))
}

// FromBig sets v to x mod p and returns v.
func (v *Element) FromBig(x *big.Int) *Element {
	m := new(big.Int).Mod(x, P())
	var buf [32]byte
	m.FillBytes(buf[:])
	// FillBytes is big-endian; SetBytes wants little-endian.
	for i, j := 0, 31; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	if _, err := v.SetBytes(buf[:]); err != nil {
		panic("fe: internal conversion error: " + err.Error())
	}
	return v
}

var sqrtM1Once struct {
	sync.Once
	v Element
}

// sqrtM1 returns sqrt(-1) mod p, computed once as 2^((p-1)/4) mod p.
func sqrtM1() *Element {
	sqrtM1Once.Do(func() {
		p := P()
		e := new(big.Int).Sub(p, big.NewInt(1))
		e.Rsh(e, 2)
		r := new(big.Int).Exp(big.NewInt(2), e, p)
		sqrtM1Once.v.FromBig(r)
	})
	return &sqrtM1Once.v
}
