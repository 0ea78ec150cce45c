package vrf

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// TestRFC9381Vectors pins Prove, Verify and ProofToHash to the three
// known answers of RFC 9381 Appendix B.3 (ECVRF-EDWARDS25519-SHA512-TAI;
// the secret keys, and so the public keys, are RFC 8032's).
func TestRFC9381Vectors(t *testing.T) {
	for i, v := range []struct{ sk, pk, alpha, pi, beta string }{
		{
			sk:    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
			pk:    "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
			alpha: "",
			pi:    "8657106690b5526245a92b003bb079ccd1a92130477671f6fc01ad16f26f723f26f8a57ccaed74ee1b190bed1f479d9727d2d0f9b005a6e456a35d4fb0daab1268a1b0db10836d9826a528ca76567805",
			beta:  "90cf1df3b703cce59e2a35b925d411164068269d7b2d29f3301c03dd757876ff66b71dda49d2de59d03450451af026798e8f81cd2e333de5cdf4f3e140fdd8ae",
		},
		{
			sk:    "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
			pk:    "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
			alpha: "72",
			pi:    "f3141cd382dc42909d19ec5110469e4feae18300e94f304590abdced48aed5933bf0864a62558b3ed7f2fea45c92a465301b3bbf5e3e54ddf2d935be3b67926da3ef39226bbc355bdc9850112c8f4b02",
			beta:  "eb4440665d3891d668e7e0fcaf587f1b4bd7fbfe99d0eb2211ccec90496310eb5e33821bc613efb94db5e5b54c70a848a0bef4553a41befc57663b56373a5031",
		},
		{
			sk:    "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
			pk:    "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
			alpha: "af82",
			pi:    "9bc0f79119cc5604bf02d23b4caede71393cedfbb191434dd016d30177ccbf8096bb474e53895c362d8628ee9f9ea3c0e52c7a5c691b6c18c9979866568add7a2d41b00b05081ed0f58ee5e31b3a970e",
			beta:  "645427e5d00c62a23fb703732fa5d892940935942101e456ecca7bb217c61c452118fec1219202a0edcf038bb6373241578be7217ba85a2687f7a0310b2df19f",
		},
	} {
		unhex := func(s string) []byte {
			b, err := hex.DecodeString(s)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		sk, err := GenerateKey(unhex(v.sk))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sk.Public(), unhex(v.pk)) {
			t.Fatalf("vector %d: public key %x, want %s", i, sk.Public(), v.pk)
		}
		alpha, wantPi, wantBeta := unhex(v.alpha), unhex(v.pi), unhex(v.beta)
		beta, pi, err := sk.Prove(alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pi[:], wantPi) {
			t.Errorf("vector %d: pi   %x\nwant %s", i, pi, v.pi)
		}
		if !bytes.Equal(beta[:], wantBeta) {
			t.Errorf("vector %d: beta %x\nwant %s", i, beta, v.beta)
		}
		if got, err := Verify(sk.Public(), alpha, wantPi); err != nil || !bytes.Equal(got[:], wantBeta) {
			t.Errorf("vector %d: Verify: beta %x, err %v", i, got, err)
		}
		if got, err := ProofToHash(wantPi); err != nil || !bytes.Equal(got[:], wantBeta) {
			t.Errorf("vector %d: ProofToHash: beta %x, err %v", i, got, err)
		}
	}
}
