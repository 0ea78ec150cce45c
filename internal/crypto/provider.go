package crypto

import (
	"bytes"
	"crypto/ed25519"
	"time"

	"algorand/internal/crypto/vrf"
)

// Identity is one user's secret-key handle. Algorand users keep no
// private state other than their private keys (§1), and Identity is
// exactly that state.
type Identity interface {
	// PublicKey returns the user's public key. For the Real provider the
	// signing and VRF public keys coincide (same RFC 8032 derivation).
	PublicKey() PublicKey
	// Sign signs msg and returns the signature.
	Sign(msg []byte) []byte
	// VRFProve evaluates the VRF on alpha, returning the pseudorandom
	// output and a proof verifiable with VRFVerify.
	VRFProve(alpha []byte) (VRFOutput, []byte)
}

// CostModel gives the modeled CPU time of each operation. The network
// simulator charges these to the virtual clock so that large FastCrypto
// runs still account for verification CPU, mirroring the paper's
// replace-verification-with-sleep methodology (§10.1).
type CostModel struct {
	Sign      time.Duration
	VerifySig time.Duration
	VRFProve  time.Duration
	VRFVerify time.Duration
}

// Provider bundles verification and identity creation.
type Provider interface {
	// Name identifies the provider in logs and experiment metadata.
	Name() string
	// NewIdentity derives an identity from a seed, deterministically.
	NewIdentity(seed Seed) Identity
	// VerifySig reports whether sig is a valid signature on msg by pk.
	VerifySig(pk PublicKey, msg, sig []byte) bool
	// VRFVerify checks a VRF proof and returns the output on success.
	VRFVerify(pk PublicKey, alpha, proof []byte) (VRFOutput, bool)
	// Costs returns the modeled CPU cost of each operation.
	Costs() CostModel
}

// VerifySig is p.VerifySig for a message the caller built in a buffer on
// its own stack. A call through the Provider interface makes every
// argument escape; naming the two providers of this package lets the
// compiler see that neither keeps msg, so the signing bytes of a
// transaction or a vote cost no allocation per verification. A provider
// from elsewhere gets a copy.
func VerifySig(p Provider, pk PublicKey, msg, sig []byte) bool {
	switch p := p.(type) {
	case *Fast:
		return p.VerifySig(pk, msg, sig)
	case *Real:
		return p.VerifySig(pk, msg, sig)
	}
	return p.VerifySig(pk, bytes.Clone(msg), sig)
}

// VRFVerify is p.VRFVerify for an input built on the caller's stack
// (see VerifySig).
func VRFVerify(p Provider, pk PublicKey, alpha, proof []byte) (VRFOutput, bool) {
	switch p := p.(type) {
	case *Fast:
		return p.VRFVerify(pk, alpha, proof)
	case *Real:
		return p.VRFVerify(pk, alpha, proof)
	}
	return p.VRFVerify(pk, bytes.Clone(alpha), proof)
}

// realIdentity implements Identity with Ed25519 + ECVRF.
type realIdentity struct {
	signKey ed25519.PrivateKey
	vrfKey  *vrf.PrivateKey
	pk      PublicKey
}

func (id *realIdentity) PublicKey() PublicKey { return id.pk }

func (id *realIdentity) Sign(msg []byte) []byte {
	return ed25519.Sign(id.signKey, msg)
}

func (id *realIdentity) VRFProve(alpha []byte) (VRFOutput, []byte) {
	beta, pi, err := id.vrfKey.Prove(alpha)
	if err != nil {
		// encode-to-curve failing 256 times has probability ~2^-256.
		panic("crypto: VRF prove failed: " + err.Error())
	}
	return VRFOutput(beta), pi[:]
}

// Real is the full-fidelity provider: Ed25519 signatures and
// ECVRF-EDWARDS25519-SHA512-TAI proofs.
type Real struct {
	// CPU costs default to zero: with Real crypto the operations
	// actually execute, so the simulator may measure them instead.
	CostOverride *CostModel
}

// NewReal returns the full-fidelity provider.
func NewReal() *Real { return &Real{} }

func (*Real) Name() string { return "real" }

func (r *Real) NewIdentity(seed Seed) Identity {
	signKey := ed25519.NewKeyFromSeed(seed[:])
	vrfKey, err := vrf.GenerateKey(seed[:])
	if err != nil {
		panic("crypto: " + err.Error())
	}
	var pk PublicKey
	copy(pk[:], signKey.Public().(ed25519.PublicKey))
	// Consistency: the VRF public key is derived identically.
	if !bytes.Equal(pk[:], vrfKey.Public()) {
		panic("crypto: signing/VRF public key mismatch")
	}
	return &realIdentity{signKey: signKey, vrfKey: vrfKey, pk: pk}
}

func (r *Real) VerifySig(pk PublicKey, msg, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(pk[:]), msg, sig)
}

func (r *Real) VRFVerify(pk PublicKey, alpha, proof []byte) (VRFOutput, bool) {
	beta, err := vrf.Verify(vrf.PublicKey(pk[:]), alpha, proof)
	if err != nil {
		return VRFOutput{}, false
	}
	return VRFOutput(beta), true
}

func (r *Real) Costs() CostModel {
	if r.CostOverride != nil {
		return *r.CostOverride
	}
	return CostModel{}
}
