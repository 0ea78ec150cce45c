package vrf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"algorand/internal/crypto/edwards"
)

func testKey(t testing.TB, seedByte byte) *PrivateKey {
	seed := make([]byte, SeedSize)
	for i := range seed {
		seed[i] = seedByte
	}
	sk, err := GenerateKey(seed)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestProveVerifyRoundTrip(t *testing.T) {
	sk := testKey(t, 1)
	for _, alpha := range [][]byte{nil, {}, []byte("a"), []byte("hello vrf"), bytes.Repeat([]byte{0xff}, 1000)} {
		beta, pi, err := sk.Prove(alpha)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Verify(sk.Public(), alpha, pi[:])
		if err != nil {
			t.Fatalf("verify failed for alpha=%q: %v", alpha, err)
		}
		if got != beta {
			t.Fatal("verify returned different beta than prove")
		}
		h, err := ProofToHash(pi[:])
		if err != nil {
			t.Fatal(err)
		}
		if h != beta {
			t.Fatal("ProofToHash mismatch")
		}
	}
}

func TestDeterminism(t *testing.T) {
	sk := testKey(t, 2)
	alpha := []byte("round-7:committee:3")
	b1, p1, err := sk.Prove(alpha)
	if err != nil {
		t.Fatal(err)
	}
	b2, p2, err := sk.Prove(alpha)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 || p1 != p2 {
		t.Fatal("prove is not deterministic")
	}
}

func TestDistinctInputsDistinctOutputs(t *testing.T) {
	sk := testKey(t, 3)
	seen := make(map[[OutputSize]byte]bool)
	for i := 0; i < 64; i++ {
		alpha := []byte{byte(i)}
		beta, _, err := sk.Prove(alpha)
		if err != nil {
			t.Fatal(err)
		}
		if seen[beta] {
			t.Fatal("collision in VRF outputs")
		}
		seen[beta] = true
	}
}

func TestDistinctKeysDistinctOutputs(t *testing.T) {
	alpha := []byte("same input")
	seen := make(map[[OutputSize]byte]bool)
	for i := byte(0); i < 16; i++ {
		sk := testKey(t, i)
		beta, _, err := sk.Prove(alpha)
		if err != nil {
			t.Fatal(err)
		}
		if seen[beta] {
			t.Fatal("collision across keys")
		}
		seen[beta] = true
	}
}

func TestVerifyRejectsWrongAlpha(t *testing.T) {
	sk := testKey(t, 4)
	_, pi, err := sk.Prove([]byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(sk.Public(), []byte("beta"), pi[:]); err == nil {
		t.Fatal("verification should fail for a different alpha")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	sk := testKey(t, 5)
	other := testKey(t, 6)
	alpha := []byte("alpha")
	_, pi, err := sk.Prove(alpha)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(other.Public(), alpha, pi[:]); err == nil {
		t.Fatal("verification should fail for a different key")
	}
}

func TestVerifyRejectsTamperedProof(t *testing.T) {
	sk := testKey(t, 7)
	alpha := []byte("alpha")
	_, pi, err := sk.Prove(alpha)
	if err != nil {
		t.Fatal(err)
	}
	// Flip each byte in turn; every tampering must be rejected (or, if it
	// produces an undecodable point, error out).
	for i := 0; i < ProofSize; i++ {
		bad := pi
		bad[i] ^= 0x40
		if _, err := Verify(sk.Public(), alpha, bad[:]); err == nil {
			t.Fatalf("tampered proof accepted (byte %d)", i)
		}
	}
}

func TestVerifyRejectsMalformed(t *testing.T) {
	sk := testKey(t, 8)
	if _, err := Verify(sk.Public(), nil, make([]byte, ProofSize-1)); err == nil {
		t.Fatal("short proof accepted")
	}
	if _, err := Verify(make([]byte, 5), nil, make([]byte, ProofSize)); err == nil {
		t.Fatal("short public key accepted")
	}
	// All-zero public key is the identity encoding... y=0 is not a small
	// order point encoding; use the canonical identity encoding (y=1).
	ident := make([]byte, 32)
	ident[0] = 1
	_, pi, err := sk.Prove([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(ident, []byte("x"), pi[:]); err == nil {
		t.Fatal("small-order public key accepted")
	}
}

func TestUniquenessAcrossProofEncodings(t *testing.T) {
	// Uniqueness: any proof that verifies for (pk, alpha) must yield the
	// same beta. We can't enumerate proofs, but we can at least check that
	// changing the (c, s) part of the proof breaks verification rather
	// than producing a different accepted beta with the same Gamma.
	sk := testKey(t, 9)
	alpha := []byte("unique")
	beta, pi, err := sk.Prove(alpha)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		bad := pi
		// Random tweak of c||s only; Gamma (hence candidate beta) fixed.
		bad[32+rng.Intn(48)] ^= byte(1 + rng.Intn(255))
		got, err := Verify(sk.Public(), alpha, bad[:])
		if err == nil && got != beta {
			t.Fatal("uniqueness violated: different beta accepted")
		}
	}
}

func TestEd25519KeyCompatibility(t *testing.T) {
	seed := bytes.Repeat([]byte{0xab}, SeedSize)
	sk, err := GenerateKey(seed)
	if err != nil {
		t.Fatal(err)
	}
	if !Ed25519PublicKeyMatches(seed, sk.Public()) {
		t.Fatal("VRF public key does not match Ed25519 derivation")
	}
	if !bytes.Equal(sk.Seed(), seed) {
		t.Fatal("seed round trip failed")
	}
}

func TestGenerateKeyRejectsBadSeed(t *testing.T) {
	if _, err := GenerateKey(make([]byte, 31)); err == nil {
		t.Fatal("short seed accepted")
	}
}

// Property: for random seeds and inputs, Prove/Verify round-trips.
func TestProveVerifyQuick(t *testing.T) {
	f := func(seed [32]byte, alpha []byte) bool {
		sk, err := GenerateKey(seed[:])
		if err != nil {
			return false
		}
		beta, pi, err := sk.Prove(alpha)
		if err != nil {
			return false
		}
		got, err := Verify(sk.Public(), alpha, pi[:])
		return err == nil && got == beta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
		t.Fatal(err)
	}
}

// TestOutputBitUniformity sanity-checks that the low bits of beta look
// unbiased, which the common-coin construction (Algorithm 9) relies on.
func TestOutputBitUniformity(t *testing.T) {
	sk := testKey(t, 10)
	n := 400
	ones := 0
	for i := 0; i < n; i++ {
		beta, _, err := sk.Prove([]byte{byte(i), byte(i >> 8)})
		if err != nil {
			t.Fatal(err)
		}
		ones += int(beta[0] & 1)
	}
	// Loose 5-sigma style bound around n/2 for a fair coin.
	if ones < n/2-50 || ones > n/2+50 {
		t.Fatalf("low bit looks biased: %d/%d ones", ones, n)
	}
}

// TestAllocBudgetVRF: Verify allocates nothing — group arithmetic, the
// scalar range check and the hashes all work on the stack — and Prove
// only what its math/big scalar arithmetic does (the nonce's reduction of
// 64 bytes mod l, and s = c*x + k mod l): 14 allocations where there were
// 24, none of them in the group or hash code.
func TestAllocBudgetVRF(t *testing.T) {
	sk := testKey(t, 13)
	alpha := []byte("round-7:committee:3, a sortition-sized input of some sixty bytes")
	_, pi, err := sk.Prove(alpha)
	if err != nil {
		t.Fatal(err)
	}
	pk := sk.Public()
	if n := testing.AllocsPerRun(50, func() {
		if _, err := Verify(pk, alpha, pi[:]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Verify allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := ProofToHash(pi[:]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ProofToHash allocates %v times, want 0", n)
	}
	var hBytes [32]byte
	var c, k, s edwards.Scalar
	bigOnly := testing.AllocsPerRun(50, func() {
		sk.generateNonce(&k, &hBytes)
		s.MultiplyAdd(setChallenge(&c, pi[32:48]), &sk.x, &k)
	})
	if n := testing.AllocsPerRun(50, func() {
		if _, _, err := sk.Prove(alpha); err != nil {
			t.Fatal(err)
		}
	}); n > bigOnly+1 || n > 15 {
		t.Errorf("Prove allocates %v times; its math/big scalar arithmetic alone %v, budget 15", n, bigOnly)
	}
}

func BenchmarkProve(b *testing.B) {
	sk := testKey(b, 11)
	alpha := []byte("benchmark-input")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sk.Prove(alpha); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	sk := testKey(b, 12)
	alpha := []byte("benchmark-input")
	_, pi, err := sk.Prove(alpha)
	if err != nil {
		b.Fatal(err)
	}
	pk := sk.Public()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Verify(pk, alpha, pi[:]); err != nil {
			b.Fatal(err)
		}
	}
}
