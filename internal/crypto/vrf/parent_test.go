package vrf

import (
	"bytes"
	"crypto/sha512"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"algorand/internal/crypto/edwards"
)

// parentVerify is Verify as it stood before the interleaved
// multiplication, kept as the oracle for "accepts exactly what it
// accepted": four separate multiplications (through ScalarMult, not the
// variable-time routine Verify now uses), Gamma re-encoded from the
// decoded point, five separate encodings, streaming hashes, the scalars
// checked and compared as big.Ints.
func parentVerify(pk PublicKey, alpha, pi []byte) (beta [OutputSize]byte, err error) {
	if len(pk) != PublicKeySize {
		return beta, errors.New("vrf: invalid public key length")
	}
	var y edwards.Point
	if _, err := y.SetBytes(pk); err != nil {
		return beta, errors.New("vrf: invalid public key: " + err.Error())
	}
	if y.IsSmallOrder() {
		return beta, errors.New("vrf: small-order public key")
	}

	if len(pi) != ProofSize {
		return beta, errors.New("vrf: invalid proof length")
	}
	var gamma edwards.Point
	if _, err := gamma.SetBytes(pi[:32]); err != nil {
		return beta, errors.New("vrf: invalid Gamma point: " + err.Error())
	}
	cBig, sBig := leBig(pi[32:48]), leBig(pi[48:80])
	if sBig.Cmp(edwards.Order()) >= 0 {
		return beta, errors.New("vrf: non-canonical s")
	}
	var c, s edwards.Scalar
	c.SetBigInt(cBig)
	s.SetBigInt(sBig)

	var hPoint edwards.Point
	found := false
	for ctr := 0; ctr < 256 && !found; ctr++ {
		h := sha512.New()
		h.Write([]byte{suiteID, domainEncode})
		h.Write(pk)
		h.Write(alpha)
		h.Write([]byte{byte(ctr), domainBack})
		digest := h.Sum(nil)
		if _, err := hPoint.SetBytes(digest[:32]); err != nil {
			continue
		}
		hPoint.MultByCofactor(&hPoint)
		found = !hPoint.IsIdentity()
	}
	if !found {
		return beta, errors.New("vrf: encode-to-curve failed after 256 attempts")
	}
	hBytes := hPoint.Bytes()

	// U = s*B - c*Y
	var cY, u edwards.Point
	cY.ScalarMult(&c, &y)
	u.ScalarBaseMult(&s)
	u.Subtract(&u, &cY)

	// V = s*H - c*Gamma
	var sH, cGamma, v edwards.Point
	sH.ScalarMult(&s, &hPoint)
	cGamma.ScalarMult(&c, &gamma)
	v.Subtract(&sH, &cGamma)

	gammaBytes := gamma.Bytes()
	uBytes := u.Bytes()
	vBytes := v.Bytes()

	h := sha512.New()
	h.Write([]byte{suiteID, domainChal})
	for _, p := range [][]byte{pk, hBytes[:], gammaBytes[:], uBytes[:], vBytes[:]} {
		h.Write(p)
	}
	h.Write([]byte{domainBack})
	if leBig(h.Sum(nil)[:challengeSize]).Cmp(cBig) != 0 {
		return beta, errors.New("vrf: proof verification failed")
	}

	var cg edwards.Point
	enc := cg.MultByCofactor(&gamma).Bytes()
	h = sha512.New()
	h.Write([]byte{suiteID, domainProof})
	h.Write(enc[:])
	h.Write([]byte{domainBack})
	copy(beta[:], h.Sum(nil))
	return beta, nil
}

// TestVerifySameVerdictsAsParent feeds Verify and the parent's copy the
// same 10 000 proofs, each a valid one with a single byte changed, and a
// few crafted ones, and requires the same accept/reject and the same beta.
func TestVerifySameVerdictsAsParent(t *testing.T) {
	type valid struct {
		pk    PublicKey
		alpha []byte
		pi    [ProofSize]byte
	}
	rng := rand.New(rand.NewSource(301))
	var pool []valid
	for i := 0; i < 40; i++ {
		sk := testKey(t, byte(100+i))
		alpha := make([]byte, rng.Intn(80))
		rng.Read(alpha)
		_, pi, err := sk.Prove(alpha)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, valid{sk.Public(), alpha, pi})
	}
	accepted := 0
	same := func(what string, pk PublicKey, alpha, pi []byte) {
		t.Helper()
		got, gotErr := Verify(pk, alpha, pi)
		want, wantErr := parentVerify(pk, alpha, pi)
		if (gotErr == nil) != (wantErr == nil) || got != want {
			t.Fatalf("%s: Verify says (%x…, %v), the parent's (%x…, %v)\npk %x alpha %x\npi %x",
				what, got[:8], gotErr, want[:8], wantErr, pk, alpha, pi)
		}
		if gotErr == nil {
			accepted++
		}
	}

	for _, v := range pool {
		same("valid proof", v.pk, v.alpha, v.pi[:])
	}
	if accepted != len(pool) {
		t.Fatalf("%d of %d valid proofs accepted", accepted, len(pool))
	}
	accepted = 0
	for i := 0; i < 10000; i++ {
		v := pool[i%len(pool)]
		pi := v.pi
		// Every position in turn; a third of the changes are single bits,
		// which is how an encoding slips from canonical to not.
		pos := (i / len(pool)) % ProofSize
		if i%3 == 0 {
			pi[pos] ^= 1 << uint(rng.Intn(8))
		} else {
			pi[pos] ^= byte(1 + rng.Intn(255))
		}
		same("one byte changed", v.pk, v.alpha, pi[:])
	}
	if accepted != 0 {
		t.Fatalf("%d proofs with a byte changed were accepted", accepted)
	}

	// What a byte flip rarely makes: s + l (the same residue, not
	// canonical), Gamma plus a point of order 2 and of order 8 (decodes,
	// gives the same 8*Gamma and so the same candidate beta), Gamma with a
	// non-canonical y, a changed key, a changed alpha, a small-order key.
	order2, _ := new(edwards.Point).SetBytes(append([]byte{0xec}, append(bytes.Repeat([]byte{0xff}, 30), 0x7f)...)) // (0, -1)
	order8, _ := new(edwards.Point).SetBytes([]byte{
		0x26, 0xe8, 0x95, 0x8f, 0xc2, 0xb2, 0x27, 0xb0, 0x45, 0xc3, 0xf4, 0x89, 0xf2, 0xef, 0x98, 0xf0,
		0xd5, 0xdf, 0xac, 0x05, 0xd3, 0xc6, 0x33, 0x39, 0xb1, 0x38, 0x02, 0x88, 0x6d, 0x53, 0xfc, 0x05})
	if order2 == nil || order8 == nil {
		t.Fatal("small-order encodings do not decode")
	}
	for _, v := range pool[:8] {
		pi := v.pi
		sPlusL := new(big.Int).Add(edwards.Order(), leBig(pi[48:80]))
		if sPlusL.BitLen() <= 256 {
			putLE(pi[48:80], sPlusL)
			same("s + l", v.pk, v.alpha, pi[:])
		}
		for _, tor := range []*edwards.Point{order2, order8} {
			pi = v.pi
			var g edwards.Point
			if _, err := g.SetBytes(pi[:32]); err != nil {
				t.Fatal(err)
			}
			enc := g.Add(&g, tor).Bytes()
			copy(pi[:32], enc[:])
			same("Gamma + torsion", v.pk, v.alpha, pi[:])
		}
		pi = v.pi
		copy(pi[:32], append([]byte{0xee}, append(bytes.Repeat([]byte{0xff}, 30), 0x7f)...)) // y = p + 1
		same("non-canonical Gamma", v.pk, v.alpha, pi[:])

		same("another key", pool[9].pk, v.alpha, v.pi[:])
		same("another alpha", v.pk, append([]byte{1}, v.alpha...), v.pi[:])
		enc := order8.Bytes()
		same("small-order key", enc[:], v.alpha, v.pi[:])
	}

	// A proof that satisfies both equations for the identity as public key
	// (x = 0: Gamma = 0*H, s = k) and is refused by key validation alone.
	identity := edwards.NewIdentityPoint().Bytes()
	alpha := []byte("forged")
	var h, u, v edwards.Point
	var k edwards.Scalar
	k.SetBigInt(big.NewInt(0xf00d))
	if err := encodeToCurveTAI(&h, identity[:], alpha); err != nil {
		t.Fatal(err)
	}
	var enc [3][32]byte
	edwards.EncodeBatch(enc[:], &h, u.ScalarBaseMult(&k), v.ScalarMult(&k, &h))
	c := challenge(identity[:], &enc[0], &identity, &enc[1], &enc[2])
	kb := k.Bytes()
	forged := append(append(identity[:], c[:]...), kb[:]...)
	same("forged for the identity key", identity[:], alpha, forged)

	if accepted != 0 {
		t.Fatalf("%d crafted proofs were accepted", accepted)
	}
}

func leBig(b []byte) *big.Int {
	be := make([]byte, len(b))
	for i := range b {
		be[len(b)-1-i] = b[i]
	}
	return new(big.Int).SetBytes(be)
}

func putLE(dst []byte, x *big.Int) {
	be := make([]byte, len(dst))
	x.FillBytes(be)
	for i := range be {
		dst[len(dst)-1-i] = be[i]
	}
}
