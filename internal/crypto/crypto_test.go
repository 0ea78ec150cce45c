package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/sha512"
	"math/rand"
	"testing"
	"testing/quick"
)

func providers() []Provider {
	return []Provider{NewReal(), NewFast()}
}

func TestSignVerifyAllProviders(t *testing.T) {
	for _, p := range providers() {
		t.Run(p.Name(), func(t *testing.T) {
			id := p.NewIdentity(SeedFromUint64(1))
			msg := []byte("vote: round 3 step 1")
			sig := id.Sign(msg)
			if !p.VerifySig(id.PublicKey(), msg, sig) {
				t.Fatal("valid signature rejected")
			}
			if p.VerifySig(id.PublicKey(), []byte("other"), sig) {
				t.Fatal("signature accepted for wrong message")
			}
			other := p.NewIdentity(SeedFromUint64(2))
			if p.VerifySig(other.PublicKey(), msg, sig) {
				t.Fatal("signature accepted for wrong key")
			}
			bad := append([]byte(nil), sig...)
			bad[0] ^= 1
			if p.VerifySig(id.PublicKey(), msg, bad) {
				t.Fatal("tampered signature accepted")
			}
		})
	}
}

func TestVRFAllProviders(t *testing.T) {
	for _, p := range providers() {
		t.Run(p.Name(), func(t *testing.T) {
			id := p.NewIdentity(SeedFromUint64(3))
			alpha := []byte("seed||role")
			out, proof := id.VRFProve(alpha)
			got, ok := p.VRFVerify(id.PublicKey(), alpha, proof)
			if !ok {
				t.Fatal("valid VRF proof rejected")
			}
			if got != out {
				t.Fatal("VRF verify output differs from prove output")
			}
			if _, ok := p.VRFVerify(id.PublicKey(), []byte("different"), proof); ok {
				t.Fatal("VRF proof accepted for wrong alpha")
			}
			other := p.NewIdentity(SeedFromUint64(4))
			if _, ok := p.VRFVerify(other.PublicKey(), alpha, proof); ok {
				t.Fatal("VRF proof accepted for wrong key")
			}
			// Determinism.
			out2, _ := id.VRFProve(alpha)
			if out != out2 {
				t.Fatal("VRF not deterministic")
			}
		})
	}
}

func TestIdentityDeterministic(t *testing.T) {
	for _, p := range providers() {
		a := p.NewIdentity(SeedFromUint64(7))
		b := p.NewIdentity(SeedFromUint64(7))
		if a.PublicKey() != b.PublicKey() {
			t.Fatalf("%s: same seed produced different keys", p.Name())
		}
	}
}

func TestFastUnknownKey(t *testing.T) {
	f := NewFast()
	var pk PublicKey
	pk[0] = 9
	if f.VerifySig(pk, []byte("m"), []byte("s")) {
		t.Fatal("unknown key verified")
	}
	if _, ok := f.VRFVerify(pk, []byte("a"), []byte("p")); ok {
		t.Fatal("unknown key VRF verified")
	}
}

func TestHashBytesDomainSeparation(t *testing.T) {
	a := HashBytes("domA", []byte("x"))
	b := HashBytes("domB", []byte("x"))
	if a == b {
		t.Fatal("domains not separated")
	}
	// Length-prefixing must prevent concatenation ambiguity:
	// ("ab","c") != ("a","bc").
	x := HashBytes("d", []byte("ab"), []byte("c"))
	y := HashBytes("d", []byte("a"), []byte("bc"))
	if x == y {
		t.Fatal("concatenation ambiguity")
	}
}

func TestHashUint64(t *testing.T) {
	if HashUint64("d", 1) == HashUint64("d", 2) {
		t.Fatal("different ints collide")
	}
	if HashUint64("d", 1, []byte("x")) == HashUint64("d", 1, []byte("y")) {
		t.Fatal("different parts collide")
	}
}

func TestDigestHelpers(t *testing.T) {
	var d Digest
	if !d.IsZero() {
		t.Fatal("zero digest not zero")
	}
	d[0] = 1
	if d.IsZero() {
		t.Fatal("nonzero digest is zero")
	}
	if len(d.Hex()) != 64 || len(d.String()) != 8 {
		t.Fatal("unexpected hex lengths")
	}
}

// Property: across random seeds, providers agree that each identity's
// own signatures and proofs verify.
func TestProvidersQuick(t *testing.T) {
	for _, p := range providers() {
		f := func(seedWord uint64, msg []byte) bool {
			id := p.NewIdentity(SeedFromUint64(seedWord))
			sig := id.Sign(msg)
			out, proof := id.VRFProve(msg)
			got, ok := p.VRFVerify(id.PublicKey(), msg, proof)
			return p.VerifySig(id.PublicKey(), msg, sig) && ok && got == out
		}
		cfg := &quick.Config{MaxCount: 8}
		if p.Name() == "fast" {
			cfg.MaxCount = 64
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}

func TestCostModels(t *testing.T) {
	f := NewFast()
	if f.Costs().VRFVerify <= 0 {
		t.Fatal("fast provider must model VRF verification cost")
	}
	r := NewReal()
	if r.Costs() != (CostModel{}) {
		t.Fatal("real provider should default to zero modeled cost")
	}
	r.CostOverride = &CostModel{VerifySig: 1}
	if r.Costs().VerifySig != 1 {
		t.Fatal("cost override ignored")
	}
}

func TestSeedFromUint64Distinct(t *testing.T) {
	seen := make(map[Seed]bool)
	for i := uint64(0); i < 100; i++ {
		s := SeedFromUint64(i)
		if seen[s] {
			t.Fatal("seed collision")
		}
		seen[s] = true
	}
}

func BenchmarkRealSign(b *testing.B) {
	p := NewReal()
	id := p.NewIdentity(SeedFromUint64(1))
	msg := bytes.Repeat([]byte{1}, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id.Sign(msg)
	}
}

func BenchmarkRealVerifySig(b *testing.B) {
	p := NewReal()
	id := p.NewIdentity(SeedFromUint64(1))
	msg := bytes.Repeat([]byte{1}, 200)
	sig := id.Sign(msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.VerifySig(id.PublicKey(), msg, sig)
	}
}

func BenchmarkRealVRFProve(b *testing.B) {
	p := NewReal()
	id := p.NewIdentity(SeedFromUint64(1))
	alpha := []byte("alpha")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id.VRFProve(alpha)
	}
}

func BenchmarkRealVRFVerify(b *testing.B) {
	p := NewReal()
	id := p.NewIdentity(SeedFromUint64(1))
	alpha := []byte("alpha")
	_, proof := id.VRFProve(alpha)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.VRFVerify(id.PublicKey(), alpha, proof)
	}
}

func BenchmarkFastVRFVerify(b *testing.B) {
	p := NewFast()
	id := p.NewIdentity(SeedFromUint64(1))
	alpha := []byte("alpha")
	_, proof := id.VRFProve(alpha)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.VRFVerify(id.PublicKey(), alpha, proof)
	}
}

// TestCanonicalOrdering pins Digest/PublicKey ordering to lexicographic
// byte order (bytes.Compare semantics): the protocol's deterministic
// tie-breaks (common-coin min-hash, fork-tip ordering, sender sorting)
// all rely on this one definition.
func TestCanonicalOrdering(t *testing.T) {
	cases := []struct {
		a, b [32]byte
		want int // sign of Compare(a, b)
	}{
		{[32]byte{}, [32]byte{}, 0},
		{[32]byte{0x01}, [32]byte{0x02}, -1},
		{[32]byte{0x02}, [32]byte{0x01}, 1},
		// Differ only in the last byte: the whole array matters.
		{[32]byte{31: 0x01}, [32]byte{31: 0x02}, -1},
		// Unsigned comparison: 0x80 > 0x7f.
		{[32]byte{0x80}, [32]byte{0x7f}, 1},
		// Earlier byte dominates later ones.
		{[32]byte{0, 0xff, 0xff}, [32]byte{1, 0, 0}, -1},
	}
	sign := func(x int) int {
		switch {
		case x < 0:
			return -1
		case x > 0:
			return 1
		}
		return 0
	}
	for i, c := range cases {
		if got := sign(Digest(c.a).Compare(Digest(c.b))); got != c.want {
			t.Errorf("case %d: Digest.Compare = %d, want %d", i, got, c.want)
		}
		if got := Digest(c.a).Less(Digest(c.b)); got != (c.want < 0) {
			t.Errorf("case %d: Digest.Less = %v, want %v", i, got, c.want < 0)
		}
		if got := sign(PublicKey(c.a).Compare(PublicKey(c.b))); got != c.want {
			t.Errorf("case %d: PublicKey.Compare = %d, want %d", i, got, c.want)
		}
		if got := PublicKey(c.a).Less(PublicKey(c.b)); got != (c.want < 0) {
			t.Errorf("case %d: PublicKey.Less = %v, want %v", i, got, c.want < 0)
		}
	}
	// Agreement with the stdlib on random inputs.
	for i := 0; i < 200; i++ {
		a := HashUint64("order-test-a", uint64(i))
		b := HashUint64("order-test-b", uint64(i))
		if got, want := a.Compare(b), bytes.Compare(a[:], b[:]); got != want {
			t.Fatalf("iter %d: Compare = %d, bytes.Compare = %d", i, got, want)
		}
	}
}

// TestFastMatchesHMAC pins the Fast provider's bytes to RFC 2104 as
// crypto/hmac computes it: the provider builds the two digests in its
// own frame, and a single differing byte would change every sortition
// outcome of every simulated run.
func TestFastMatchesHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewFast()
	for i := 0; i < 1000; i++ {
		var seed Seed
		rng.Read(seed[:])
		// Lengths on both sides of one hash block (64 and 128 bytes) and
		// of the key block's padding, and the empty message.
		msg := make([]byte, rng.Intn(400))
		if i < 8 {
			msg = make([]byte, []int{0, 1, 63, 64, 65, 127, 128, 129}[i])
		}
		rng.Read(msg)
		id := p.NewIdentity(seed)

		mac := hmac.New(sha256.New, append([]byte("fastcrypto.sig"), seed[:]...))
		mac.Write(msg)
		sig := id.Sign(msg)
		if want := mac.Sum(nil); !bytes.Equal(sig, want) {
			t.Fatalf("pair %d (%d-byte message): signature %x, crypto/hmac %x", i, len(msg), sig, want)
		}
		if !p.VerifySig(id.PublicKey(), msg, sig) {
			t.Fatalf("pair %d: own signature rejected", i)
		}

		mac = hmac.New(sha512.New, append([]byte("fastcrypto.vrf"), seed[:]...))
		mac.Write(msg)
		out, proof := id.VRFProve(msg)
		if want := mac.Sum(nil); !bytes.Equal(out[:], want) || !bytes.Equal(proof, want) {
			t.Fatalf("pair %d (%d-byte message): VRF output %x, crypto/hmac %x", i, len(msg), out, want)
		}
		if got, ok := p.VRFVerify(id.PublicKey(), msg, proof); !ok || got != out {
			t.Fatalf("pair %d: own VRF proof rejected", i)
		}
	}
}

// TestAllocBudgetFastVerify guards the simulator's most frequent calls:
// every vote and transaction a node hears of is one VerifySig and most
// are one VRFVerify, and neither may allocate — nor may the helper that
// lets callers keep their signing bytes on the stack.
func TestAllocBudgetFastVerify(t *testing.T) {
	p := NewFast()
	id := p.NewIdentity(SeedFromUint64(1))
	pk := id.PublicKey()
	msg := make([]byte, 200)
	sig := id.Sign(msg)
	_, proof := id.VRFProve(msg)
	var iface Provider = p
	for name, fn := range map[string]func() bool{
		"Fast.VerifySig": func() bool { return p.VerifySig(pk, msg, sig) },
		"Fast.VRFVerify": func() bool { _, ok := p.VRFVerify(pk, msg, proof); return ok },
		"VerifySig on a stack buffer": func() bool {
			var buf [200]byte
			return VerifySig(iface, pk, buf[:], sig)
		},
	} {
		if !fn() {
			t.Fatalf("%s rejected a valid input", name)
		}
		if n := testing.AllocsPerRun(200, func() { fn() }); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
}
