package ledger

import "algorand/internal/crypto"

// Store is a user's block/certificate archive (§8.3). A running node's
// one Store is its durable archive's image (diskstore.Store.Recovered).
type Store struct {
	rounds map[uint64]stored
}

// stored is what a Store holds for one round: the block, its hash and
// the best certificate of it seen (nil when it has none).
type stored struct {
	block *Block
	hash  crypto.Digest
	cert  *Certificate
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{rounds: make(map[uint64]stored)}
}

// CertifiedChain returns l's head chain from round 1 up to the first
// round without a block or a certificate, as an archive: what a crashed
// user's memory gives a replacement to replay (node.RestoreFromArchive
// stops at that round too).
func CertifiedChain(l *Ledger) *Store {
	s := NewStore()
	for r := uint64(1); ; r++ {
		b, ok := l.BlockAt(r)
		if !ok {
			return s
		}
		c, ok := l.CertificateAt(r)
		if !ok {
			return s
		}
		h, _ := l.HashAt(r)
		s.Put(b, h, c)
	}
}

// Put archives b, whose hash is h, as its round's block: the head chain's
// block is the one to keep and serve, so a different block held for the
// round is replaced and its certificate dropped (§8.2 fork repair and
// fork adoption write through here). c is recorded when the round holds
// no certificate yet, or when it is final and the one held is tentative;
// a nil c adds nothing. Nothing is verified: an archive is trusted no
// more than a peer (node.RestoreFromArchive checks every pair).
func (s *Store) Put(b *Block, h crypto.Digest, c *Certificate) {
	e, ok := s.rounds[b.Round]
	if !ok || e.hash != h {
		e = stored{block: b, hash: h}
	}
	if betterCert(e.cert, c) {
		e.cert = c
	}
	s.rounds[b.Round] = e
}

// Block returns the stored block for a round.
func (s *Store) Block(round uint64) (*Block, bool) {
	e, ok := s.rounds[round]
	return e.block, ok
}

// Cert returns the stored certificate for a round.
func (s *Store) Cert(round uint64) (*Certificate, bool) {
	c := s.rounds[round].cert
	return c, c != nil
}

// Rounds returns how many rounds are archived.
func (s *Store) Rounds() int { return len(s.rounds) }
