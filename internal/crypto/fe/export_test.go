package fe

import "math/big"

// Big returns v as a new big.Int in [0, p).
func (v *Element) Big() *big.Int {
	b := v.Bytes()
	// Reverse little-endian to big-endian for big.Int.
	for i, j := 0, 31; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return new(big.Int).SetBytes(b[:])
}
