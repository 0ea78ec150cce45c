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

// auditBytes recomputes the store's Bytes from scratch and demands the
// running total matches — every mutation path must keep the §10.3
// storage accounting exact.
func auditBytes(t *testing.T, s *Store, rounds ...uint64) {
	t.Helper()
	var want int64
	for _, r := range rounds {
		if b, ok := s.Block(r); ok {
			want += int64(b.WireSize())
		}
		if c, ok := s.Cert(r); ok {
			want += int64(c.WireSize())
		}
	}
	if s.Bytes != want {
		t.Fatalf("Bytes = %d, recomputed %d", s.Bytes, want)
	}
}

// TestReconcileReplacesAbandonedFork is the §8.2 path: after fork
// recovery the archived block for a round may belong to an abandoned
// branch; Reconcile must swap in the canonical block, drop the stale
// certificate, and keep the byte accounting exact.
func TestReconcileReplacesAbandonedFork(t *testing.T) {
	s := NewStore(0, 1)
	forked := storeBlock(1, 64)
	s.Put(forked, storeCert(forked, false))
	auditBytes(t, s, 1)

	canonical := storeBlock(1, 256)
	cert := storeCert(canonical, true)
	s.Reconcile(canonical, cert)

	got, ok := s.Block(1)
	if !ok || got.Hash() != canonical.Hash() {
		t.Fatal("canonical block did not replace the fork's")
	}
	c, ok := s.Cert(1)
	if !ok || c.Value != canonical.Hash() || !c.Final {
		t.Fatal("canonical certificate not stored")
	}
	auditBytes(t, s, 1)
}

// TestReconcileNilCertErases: recovery adoptions carry no certificate
// of their own, so reconciling with nil must erase the stale cert (it
// certifies a block no longer in the archive) and refund its bytes.
func TestReconcileNilCertErases(t *testing.T) {
	s := NewStore(0, 1)
	forked := storeBlock(2, 64)
	s.Put(forked, storeCert(forked, false))

	adopted := storeBlock(2, 0)
	s.Reconcile(adopted, nil)
	if _, ok := s.Cert(2); ok {
		t.Fatal("stale certificate survived a nil-cert reconcile")
	}
	if got, ok := s.Block(2); !ok || got.Hash() != adopted.Hash() {
		t.Fatal("adopted block not stored")
	}
	auditBytes(t, s, 2)
}

// TestReconcileSameBlockUpgradesCert: when the archived block already
// is the canonical one, Reconcile degrades to Put — a tentative cert
// upgrades to final (accounting for the size delta), a nil cert is a
// pure no-op, and a downgrade back to tentative is refused.
func TestReconcileSameBlockUpgradesCert(t *testing.T) {
	s := NewStore(0, 1)
	b := storeBlock(3, 64)
	tent := storeCert(b, false)
	s.Put(b, tent)

	before := s.Bytes
	s.Reconcile(b, nil) // same block, no cert: nothing changes
	if s.Bytes != before {
		t.Fatalf("no-op reconcile moved Bytes %d → %d", before, s.Bytes)
	}
	if c, _ := s.Cert(3); c.Final {
		t.Fatal("no-op reconcile changed the certificate")
	}

	final := storeCert(b, true)
	final.Votes = append(final.Votes, Vote{Round: 3, Step: 1, Value: b.Hash()})
	s.Reconcile(b, final)
	if c, _ := s.Cert(3); !c.Final {
		t.Fatal("tentative certificate not upgraded to final")
	}
	auditBytes(t, s, 3)

	s.Reconcile(b, tent) // downgrade attempt
	if c, _ := s.Cert(3); !c.Final {
		t.Fatal("final certificate downgraded to tentative")
	}
	auditBytes(t, s, 3)
}

// TestReconcileRespectsShard: a round outside this shard's residue
// class is ignored entirely (§8.3 sharding).
func TestReconcileRespectsShard(t *testing.T) {
	s := NewStore(1, 3) // responsible for rounds ≡ 1 (mod 3)
	b := storeBlock(2, 0)
	s.Reconcile(b, storeCert(b, true))
	if s.Rounds() != 0 || s.Bytes != 0 {
		t.Fatalf("shard 1/3 stored round 2 (rounds=%d bytes=%d)", s.Rounds(), s.Bytes)
	}

	mine := storeBlock(4, 0)
	s.Reconcile(mine, nil)
	if _, ok := s.Block(4); !ok {
		t.Fatal("shard 1/3 refused its own round 4")
	}
	auditBytes(t, s, 4)
}
