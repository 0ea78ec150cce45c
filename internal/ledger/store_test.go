package ledger

import (
	"testing"
	"time"

	"algorand/internal/crypto"
)

// storeBlock builds a distinct block for a round; vary pad to get
// distinct hashes (and wire sizes) for the same round.
func storeBlock(round uint64, pad int) *Block {
	return &Block{
		Round:          round,
		PrevHash:       crypto.HashBytes("store-test", []byte{byte(round)}),
		Timestamp:      time.Duration(round),
		PayloadPadding: pad,
	}
}

func storeCert(b *Block, final bool) *Certificate {
	return &Certificate{
		Round: b.Round,
		Step:  1,
		Value: b.Hash(),
		Final: final,
		Votes: []Vote{{Round: b.Round, Step: 1, Value: b.Hash()}},
	}
}

// put writes b under its own hash, as the node does.
func put(s *Store, b *Block, c *Certificate) { s.Put(b, b.Hash(), c) }

// TestReconcileReplacesAbandonedFork is the §8.2 path: after fork
// recovery the archived block for a round may belong to an abandoned
// branch; Put of the canonical block must swap it in and drop the
// stale certificate.
func TestReconcileReplacesAbandonedFork(t *testing.T) {
	s := NewStore()
	forked := storeBlock(1, 64)
	put(s, forked, storeCert(forked, false))

	canonical := storeBlock(1, 256)
	cert := storeCert(canonical, true)
	put(s, canonical, cert)

	got, ok := s.Block(1)
	if !ok || got.Hash() != canonical.Hash() {
		t.Fatal("canonical block did not replace the fork's")
	}
	c, ok := s.Cert(1)
	if !ok || c.Value != canonical.Hash() || !c.Final {
		t.Fatal("canonical certificate not stored")
	}
}

// TestReconcileNilCertErases: recovery adoptions carry no certificate
// of their own, so putting another block with nil must erase the stale
// cert (it certifies a block no longer in the archive).
func TestReconcileNilCertErases(t *testing.T) {
	s := NewStore()
	forked := storeBlock(2, 64)
	put(s, forked, storeCert(forked, false))

	adopted := storeBlock(2, 0)
	put(s, adopted, nil)
	if _, ok := s.Cert(2); ok {
		t.Fatal("stale certificate survived a nil-cert replacement")
	}
	if got, ok := s.Block(2); !ok || got.Hash() != adopted.Hash() {
		t.Fatal("adopted block not stored")
	}
}

// TestReconcileSameBlockUpgradesCert: when the archived block already
// is the canonical one, a tentative cert upgrades to final, a nil cert
// is a pure no-op, and a downgrade back to tentative is refused.
func TestReconcileSameBlockUpgradesCert(t *testing.T) {
	s := NewStore()
	b := storeBlock(3, 64)
	tent := storeCert(b, false)
	put(s, b, tent)

	put(s, b, nil) // same block, no cert: nothing changes
	if c, _ := s.Cert(3); c != tent {
		t.Fatal("no-op put changed the certificate")
	}

	final := storeCert(b, true)
	final.Votes = append(final.Votes, Vote{Round: 3, Step: 1, Value: b.Hash()})
	put(s, b, final)
	if c, _ := s.Cert(3); !c.Final {
		t.Fatal("tentative certificate not upgraded to final")
	}

	put(s, b, tent) // downgrade attempt
	if c, _ := s.Cert(3); !c.Final {
		t.Fatal("final certificate downgraded to tentative")
	}
}

// TestPutKeepsTheHeadChainsBlock covers the rest of Put's rule: the
// same block gains a certificate when the round has none, and a copy of
// the held block leaves the held one in place.
func TestPutKeepsTheHeadChainsBlock(t *testing.T) {
	canonical := storeBlock(1, 256)
	copied := *canonical // the same block, decoded twice
	tent := storeCert(canonical, false)
	type step struct {
		b *Block
		c *Certificate
	}
	for _, tc := range []struct {
		name  string
		puts  []step
		block *Block
		cert  *Certificate
	}{
		{"the same block gains a first certificate",
			[]step{{canonical, nil}, {canonical, tent}}, canonical, tent},
		{"a copy of the held block leaves the held one in place",
			[]step{{canonical, nil}, {&copied, tent}}, canonical, tent},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore()
			for _, p := range tc.puts {
				s.Put(p.b, p.b.Hash(), p.c)
			}
			if got, ok := s.Block(1); !ok || got != tc.block || s.Rounds() != 1 {
				t.Fatalf("round 1 holds the wrong block (%d rounds)", s.Rounds())
			}
			if got, ok := s.Cert(1); got != tc.cert || ok != (tc.cert != nil) {
				t.Fatalf("round 1's certificate is %v, want %v", got, tc.cert)
			}
		})
	}
}

// TestCertifiedChainStopsAtFirstGap: the archive a crashed user's ledger
// gives is its head chain from round 1 through the last round before
// one without a certificate, each round with the certificate the ledger
// holds — what RestoreFromArchive can replay, and no more.
func TestCertifiedChainStopsAtFirstGap(t *testing.T) {
	l := newPopulation(1, 100).ledger()
	var certs []*Certificate
	for r := 1; r <= 4; r++ {
		b := l.NextEmptyBlock()
		c := storeCert(b, r == 2)
		if r == 3 {
			c = nil // a §8.2 recovery adoption carries no certificate
		}
		if err := l.Commit(b, c); err != nil {
			t.Fatal(err)
		}
		certs = append(certs, c)
	}
	s := CertifiedChain(l)
	if s.Rounds() != 2 {
		t.Fatalf("certified chain holds %d rounds, want 2", s.Rounds())
	}
	for r := uint64(1); r <= 2; r++ {
		b, _ := l.BlockAt(r)
		if got, ok := s.Block(r); !ok || got != b {
			t.Fatalf("round %d: block not the ledger's", r)
		}
		if got, ok := s.Cert(r); !ok || got != certs[r-1] {
			t.Fatalf("round %d: certificate not the ledger's", r)
		}
	}
	if CertifiedChain(newPopulation(1, 100).ledger()).Rounds() != 0 {
		t.Fatal("a ledger at genesis yields rounds")
	}
}
