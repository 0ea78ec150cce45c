package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/sha512"
	"sync"
	"time"
)

// Fast is a simulation-grade provider: signatures and VRF outputs are
// keyed hashes, verified through an in-process registry mapping public
// keys back to their seeds. It preserves the *statistical* properties
// sortition and BA⋆ need (deterministic, uniformly distributed, unique
// per (key, input)) but is NOT unforgeable across processes: anyone with
// the registry can sign for anyone. It exists so that experiments with
// tens of thousands of users are tractable on one machine, exactly as
// the paper replaces verification with equal-cost sleeps for its
// largest runs (§10.1). The CPU cost of the displaced real operations is
// preserved via the CostModel, which the simulator charges to the
// virtual clock.
//
// Adversarial tests that rely on unforgeability must use Real.
type Fast struct {
	mu    sync.RWMutex
	seeds map[PublicKey]Seed

	// Cost is the modeled CPU cost, calibrated by default from the Real
	// provider's measured performance (see DefaultFastCosts).
	Cost CostModel
}

// DefaultFastCosts approximates the cost of libsodium-class Ed25519 and
// ECVRF operations on a 2017 server core, which is what the paper's
// prototype used. (Our own pure-Go Real provider is within a small
// factor of these numbers; see the crypto benchmarks.)
func DefaultFastCosts() CostModel {
	return CostModel{
		Sign:      60 * time.Microsecond,
		VerifySig: 160 * time.Microsecond,
		VRFProve:  255 * time.Microsecond,
		VRFVerify: 330 * time.Microsecond,
	}
}

// NewFast returns a Fast provider with DefaultFastCosts.
func NewFast() *Fast {
	return &Fast{
		seeds: make(map[PublicKey]Seed),
		Cost:  DefaultFastCosts(),
	}
}

func (*Fast) Name() string { return "fast" }

// fastPK derives the public key for a seed.
func fastPK(seed Seed) PublicKey {
	d := HashBytes("fastcrypto.pk", seed[:])
	return PublicKey(d)
}

type fastIdentity struct {
	seed Seed
	pk   PublicKey
}

func (id *fastIdentity) PublicKey() PublicKey { return id.pk }

// HMAC (RFC 2104) over the key "fastcrypto.<use>" || seed, computed with
// the key block, both digests and the result in the caller's frame: the
// simulator verifies a signature and a VRF proof for every vote and
// transaction every node hears of, and crypto/hmac allocates two digests
// and their pads on each call. The bytes are crypto/hmac's (pinned by
// TestFastMatchesHMAC).
const (
	hmacIpad = 0x36
	hmacOpad = 0x5c
)

// fastKeyBlock fills block with the zero-padded key xor ipad.
func fastKeyBlock(block []byte, use string, seed *Seed) {
	n := copy(block, use)
	copy(block[n:], seed[:])
	for i := range block {
		block[i] ^= hmacIpad
	}
}

func fastSign(seed *Seed, msg []byte) (sig [sha256.Size]byte) {
	var block [sha256.BlockSize]byte
	fastKeyBlock(block[:], "fastcrypto.sig", seed)
	h := sha256.New()
	h.Write(block[:])
	h.Write(msg)
	var inner [sha256.Size]byte
	h.Sum(inner[:0])
	for i := range block {
		block[i] ^= hmacIpad ^ hmacOpad
	}
	h.Reset()
	h.Write(block[:])
	h.Write(inner[:])
	h.Sum(sig[:0])
	return sig
}

func fastVRF(seed *Seed, alpha []byte) (out VRFOutput) {
	var block [sha512.BlockSize]byte
	fastKeyBlock(block[:], "fastcrypto.vrf", seed)
	h := sha512.New()
	h.Write(block[:])
	h.Write(alpha)
	var inner [sha512.Size]byte
	h.Sum(inner[:0])
	for i := range block {
		block[i] ^= hmacIpad ^ hmacOpad
	}
	h.Reset()
	h.Write(block[:])
	h.Write(inner[:])
	h.Sum(out[:0])
	return out
}

func (id *fastIdentity) Sign(msg []byte) []byte {
	sig := fastSign(&id.seed, msg)
	return sig[:]
}

func (id *fastIdentity) VRFProve(alpha []byte) (VRFOutput, []byte) {
	out := fastVRF(&id.seed, alpha)
	// The proof is the output itself; the verifier recomputes it from the
	// registry. Its 64-byte size stands in for the real 80-byte proof in
	// bandwidth accounting (close enough; message size constants add the
	// difference explicitly, see network wire sizes).
	return out, out[:]
}

func (f *Fast) NewIdentity(seed Seed) Identity {
	pk := fastPK(seed)
	f.mu.Lock()
	f.seeds[pk] = seed
	f.mu.Unlock()
	return &fastIdentity{seed: seed, pk: pk}
}

func (f *Fast) lookup(pk PublicKey) (Seed, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s, ok := f.seeds[pk]
	return s, ok
}

func (f *Fast) VerifySig(pk PublicKey, msg, sig []byte) bool {
	seed, ok := f.lookup(pk)
	if !ok {
		return false
	}
	want := fastSign(&seed, msg)
	return hmac.Equal(want[:], sig)
}

func (f *Fast) VRFVerify(pk PublicKey, alpha, proof []byte) (VRFOutput, bool) {
	seed, ok := f.lookup(pk)
	if !ok {
		return VRFOutput{}, false
	}
	want := fastVRF(&seed, alpha)
	if !hmac.Equal(want[:], proof) {
		return VRFOutput{}, false
	}
	return want, true
}

func (f *Fast) Costs() CostModel { return f.Cost }
