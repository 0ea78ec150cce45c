package ledger

// Store is a user's block/certificate archive (§8.3). A running node's
// one Store is its durable archive's image (diskstore.Store.Recovered).
type Store struct {
	blocks map[uint64]*Block
	certs  map[uint64]*Certificate
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{
		blocks: make(map[uint64]*Block),
		certs:  make(map[uint64]*Certificate),
	}
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
		s.Put(b, c)
	}
}

// Put archives a block and its certificate.
func (s *Store) Put(b *Block, c *Certificate) {
	if _, dup := s.blocks[b.Round]; !dup {
		s.blocks[b.Round] = b
	}
	if c != nil {
		if prev, dup := s.certs[b.Round]; !dup || (c.Final && !prev.Final) {
			// A final certificate replaces a tentative one for a round, as
			// when a §8.2 adoption reconciles a block the node held.
			s.certs[b.Round] = c
		}
	}
}

// Reconcile forces the archive to the canonical block for a round,
// replacing whatever was stored — used after §8.2 fork recovery, when
// the block this node originally archived for a round may belong to an
// abandoned fork. A nil certificate erases any stored one (recovery
// adoptions have no certificate of their own).
func (s *Store) Reconcile(b *Block, c *Certificate) {
	if prev, ok := s.blocks[b.Round]; ok && prev.Hash() == b.Hash() {
		if c != nil {
			s.Put(b, c)
		}
		return
	}
	s.blocks[b.Round] = b
	delete(s.certs, b.Round)
	if c != nil {
		s.certs[b.Round] = c
	}
}

// Block returns the stored block for a round.
func (s *Store) Block(round uint64) (*Block, bool) {
	b, ok := s.blocks[round]
	return b, ok
}

// Cert returns the stored certificate for a round.
func (s *Store) Cert(round uint64) (*Certificate, bool) {
	c, ok := s.certs[round]
	return c, ok
}

// Rounds returns how many rounds are archived.
func (s *Store) Rounds() int { return len(s.blocks) }
