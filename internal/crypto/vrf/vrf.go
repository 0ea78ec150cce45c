// Package vrf implements the elliptic-curve verifiable random function
// ECVRF-EDWARDS25519-SHA512-TAI, following the construction of Goldberg
// et al. that the Algorand paper cites [28] and that was later
// standardized as RFC 9381 ciphersuite 3.
//
// A VRF keypair is derived exactly like an Ed25519 keypair (RFC 8032):
// the secret scalar x is the clamped low half of SHA-512(seed) and the
// public key is Y = x*B. On input alpha, Prove returns an 80-byte proof
// pi; ProofToHash(pi) and Verify both yield the 64-byte pseudorandom
// output beta. The crucial properties for Algorand's sortition are:
//
//   - Uniqueness: for a fixed public key and alpha there is exactly one
//     beta that verifies (Gamma = x*H is a deterministic function).
//   - Pseudorandomness: beta is indistinguishable from random without
//     the secret key.
//   - Public verifiability: anyone holding pi and the public key checks
//     beta without interaction.
package vrf

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha512"
	"errors"

	"algorand/internal/crypto/edwards"
)

const (
	// ProofSize is the size of a VRF proof pi: Gamma (32) || c (16) || s (32).
	ProofSize = 80
	// OutputSize is the size of the VRF output beta.
	OutputSize = 64
	// PublicKeySize is the size of a VRF public key.
	PublicKeySize = 32
	// SeedSize is the size of the secret seed.
	SeedSize = 32

	suiteID       = 0x03 // ECVRF-EDWARDS25519-SHA512-TAI
	domainEncode  = 0x01
	domainChal    = 0x02
	domainProof   = 0x03
	domainBack    = 0x00
	challengeSize = 16
)

// PublicKey is a VRF public key (a compressed edwards25519 point).
type PublicKey []byte

// PrivateKey holds the expanded VRF secret: the seed, the clamped secret
// scalar, the nonce-derivation prefix, and the public key.
type PrivateKey struct {
	seed   []byte
	x      edwards.Scalar
	prefix [32]byte
	pub    PublicKey
}

// GenerateKey derives a VRF keypair from a 32-byte seed. The derivation
// matches Ed25519, so the same seed yields a VRF public key equal to the
// Ed25519 public key.
func GenerateKey(seed []byte) (*PrivateKey, error) {
	if len(seed) != SeedSize {
		return nil, errors.New("vrf: seed must be 32 bytes")
	}
	h := sha512.Sum512(seed)
	priv := &PrivateKey{seed: append([]byte(nil), seed...)}
	if _, err := priv.x.SetClampedBytes(h[:32]); err != nil {
		return nil, err
	}
	copy(priv.prefix[:], h[32:])
	var y edwards.Point
	enc := y.ScalarBaseMult(&priv.x).Bytes()
	priv.pub = enc[:]
	return priv, nil
}

// Public returns the VRF public key.
func (sk *PrivateKey) Public() PublicKey {
	return sk.pub
}

// Seed returns the seed the key was generated from.
func (sk *PrivateKey) Seed() []byte {
	return append([]byte(nil), sk.seed...)
}

// encodeToCurveTAI hashes alpha to a curve point h using the
// try-and-increment method with the public key as the salt. The hash
// input is built on the stack for any alpha a sortition role produces;
// a longer one spills to the heap and is hashed the same.
func encodeToCurveTAI(h *edwards.Point, salt PublicKey, alpha []byte) error {
	var buf [256]byte
	msg := append(buf[:0], suiteID, domainEncode)
	msg = append(msg, salt...)
	msg = append(msg, alpha...)
	msg = append(msg, 0, domainBack)
	for ctr := 0; ctr < 256; ctr++ {
		msg[len(msg)-2] = byte(ctr)
		digest := sha512.Sum512(msg)
		if _, err := h.SetBytes(digest[:32]); err != nil {
			continue
		}
		// Clear the cofactor so H is in the prime-order subgroup.
		h.MultByCofactor(h)
		if h.IsIdentity() {
			continue
		}
		return nil
	}
	return errors.New("vrf: encode-to-curve failed after 256 attempts")
}

// generateNonce derives the deterministic nonce k from the secret prefix
// and the encoded input point, as in RFC 8032 / RFC 9381 §5.4.2.2.
func (sk *PrivateKey) generateNonce(k *edwards.Scalar, hBytes *[32]byte) {
	var msg [64]byte
	copy(msg[:32], sk.prefix[:])
	copy(msg[32:], hBytes[:])
	digest := sha512.Sum512(msg[:])
	if _, err := k.SetUniformBytes(digest[:]); err != nil {
		panic("vrf: internal nonce error: " + err.Error())
	}
}

// challenge computes the 16-byte challenge c from the five encoded
// points Y, H, Gamma, U, V.
func challenge(y []byte, h, gamma, u, v *[32]byte) (c [challengeSize]byte) {
	var msg [2 + 5*32 + 1]byte
	msg[0], msg[1] = suiteID, domainChal
	copy(msg[2:34], y)
	copy(msg[34:], h[:])
	copy(msg[66:], gamma[:])
	copy(msg[98:], u[:])
	copy(msg[130:], v[:])
	msg[162] = domainBack
	digest := sha512.Sum512(msg[:])
	copy(c[:], digest[:])
	return c
}

// setChallenge sets s to the scalar a challenge stands for; a 128-bit
// value is always canonical mod l.
func setChallenge(s *edwards.Scalar, c []byte) *edwards.Scalar {
	var wide [32]byte
	copy(wide[:challengeSize], c)
	if _, err := s.SetCanonicalBytes(wide[:]); err != nil {
		panic("vrf: internal challenge error: " + err.Error())
	}
	return s
}

// Prove computes the VRF proof pi and output beta for input alpha. Its
// three multiplications by x and k go through the uniform routine.
func (sk *PrivateKey) Prove(alpha []byte) (beta [OutputSize]byte, pi [ProofSize]byte, err error) {
	var h, gamma, gamma8, u, v edwards.Point
	if err := encodeToCurveTAI(&h, sk.pub, alpha); err != nil {
		return beta, pi, err
	}
	gamma.ScalarMult(&sk.x, &h)
	gamma8.MultByCofactor(&gamma)
	// Two inversions for the five encodings: the nonce hashes H, so H
	// cannot wait for U and V.
	var enc [3][32]byte
	edwards.EncodeBatch(enc[:], &h, &gamma, &gamma8)
	hBytes, gammaBytes := &enc[0], &enc[1]

	var k, cs, s edwards.Scalar
	sk.generateNonce(&k, hBytes)
	u.ScalarBaseMult(&k)
	v.ScalarMult(&k, &h)
	var uv [2][32]byte
	edwards.EncodeBatch(uv[:], &u, &v)

	c := challenge(sk.pub, hBytes, gammaBytes, &uv[0], &uv[1])
	s.MultiplyAdd(setChallenge(&cs, c[:]), &sk.x, &k)

	copy(pi[:32], gammaBytes[:])
	copy(pi[32:48], c[:])
	sb := s.Bytes()
	copy(pi[48:], sb[:])
	return gammaToHash(&enc[2]), pi, nil
}

// gammaToHash computes beta from the encoding of 8*Gamma.
func gammaToHash(gamma8 *[32]byte) [OutputSize]byte {
	var msg [2 + 32 + 1]byte
	msg[0], msg[1] = suiteID, domainProof
	copy(msg[2:], gamma8[:])
	msg[34] = domainBack
	return sha512.Sum512(msg[:])
}

// ProofToHash returns beta for a syntactically valid proof pi, without
// verifying it against a public key. Use Verify for untrusted proofs.
func ProofToHash(pi []byte) (beta [OutputSize]byte, err error) {
	var gamma edwards.Point
	var c, s edwards.Scalar
	if err := decodeProof(&gamma, &c, &s, pi); err != nil {
		return beta, err
	}
	enc := gamma.MultByCofactor(&gamma).Bytes()
	return gammaToHash(&enc), nil
}

// decodeProof splits pi into its Gamma point, challenge and response.
func decodeProof(gamma *edwards.Point, c, s *edwards.Scalar, pi []byte) error {
	if len(pi) != ProofSize {
		return errors.New("vrf: invalid proof length")
	}
	if _, err := gamma.SetBytes(pi[:32]); err != nil {
		return errors.New("vrf: invalid Gamma point: " + err.Error())
	}
	setChallenge(c, pi[32:48])
	if _, err := s.SetCanonicalBytes(pi[48:80]); err != nil {
		return errors.New("vrf: non-canonical s")
	}
	return nil
}

// Verify checks proof pi for public key pk and input alpha. On success
// it returns the VRF output beta.
func Verify(pk PublicKey, alpha, pi []byte) (beta [OutputSize]byte, err error) {
	if len(pk) != PublicKeySize {
		return beta, errors.New("vrf: invalid public key length")
	}
	var y, gamma, h, neg, u, v edwards.Point
	if _, err := y.SetBytes(pk); err != nil {
		return beta, errors.New("vrf: invalid public key: " + err.Error())
	}
	// Key validation: reject small-order public keys ("full validation"
	// in RFC 9381 terms), which could otherwise make outputs predictable.
	if y.IsSmallOrder() {
		return beta, errors.New("vrf: small-order public key")
	}
	var c, s edwards.Scalar
	if err := decodeProof(&gamma, &c, &s, pi); err != nil {
		return beta, err
	}
	if err := encodeToCurveTAI(&h, pk, alpha); err != nil {
		return beta, err
	}

	// U = s*B - c*Y and V = s*H - c*Gamma, each one interleaved pass in
	// which the 128-bit c joins the doublings s has already begun. Every
	// input is public.
	u.VarTimeDoubleScalarBaseMult(&c, neg.Negate(&y), &s)
	v.VarTimeDoubleScalarMult(&c, neg.Negate(&gamma), &s, &h)

	// One inversion for H, U, V and 8*Gamma. Gamma itself is read back from
	// the proof: SetBytes accepts only the canonical encoding of a point,
	// so re-encoding what it decoded returns the same 32 bytes.
	var enc [4][32]byte
	edwards.EncodeBatch(enc[:], &h, &u, &v, gamma.MultByCofactor(&gamma))

	cPrime := challenge(pk, &enc[0], (*[32]byte)(pi[:32]), &enc[1], &enc[2])
	if !bytes.Equal(cPrime[:], pi[32:48]) {
		return beta, errors.New("vrf: proof verification failed")
	}
	return gammaToHash(&enc[3]), nil
}

// Ed25519PublicKeyMatches reports whether the VRF public key equals the
// Ed25519 public key derived from the same seed; used in tests and to
// document that one seed can serve both roles.
func Ed25519PublicKeyMatches(seed []byte, pk PublicKey) bool {
	if len(seed) != SeedSize {
		return false
	}
	epk := ed25519.NewKeyFromSeed(seed).Public().(ed25519.PublicKey)
	if len(pk) != len(epk) {
		return false
	}
	for i := range pk {
		if pk[i] != epk[i] {
			return false
		}
	}
	return true
}
