package ledger

// Store is a user's block/certificate archive with §8.3 sharding: for a
// shard count N, the user persists blocks and certificates whose round
// number is congruent to their shard index mod N. A running node's one
// Store is its durable archive's image (diskstore.Store.Recovered).
type Store struct {
	ShardIndex uint64
	ShardCount uint64

	blocks map[uint64]*Block
	certs  map[uint64]*Certificate
}

// NewStore creates a store. shardCount == 1 keeps everything.
func NewStore(shardIndex, shardCount uint64) *Store {
	if shardCount == 0 {
		shardCount = 1
	}
	return &Store{
		ShardIndex: shardIndex % shardCount,
		ShardCount: shardCount,
		blocks:     make(map[uint64]*Block),
		certs:      make(map[uint64]*Certificate),
	}
}

// CertifiedChain returns l's head chain from round 1 up to the first
// round without a block or a certificate, as an archive: what a crashed
// user's memory gives a replacement to replay (node.RestoreFromArchive
// stops at that round too).
func CertifiedChain(l *Ledger) *Store {
	s := NewStore(0, 1)
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

// responsible reports whether this store shards the given round.
func (s *Store) responsible(round uint64) bool {
	return round%s.ShardCount == s.ShardIndex
}

// Put archives a block and its certificate if this shard covers the
// round, returning whether it was stored.
func (s *Store) Put(b *Block, c *Certificate) bool {
	if !s.responsible(b.Round) {
		return false
	}
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
	return true
}

// Reconcile forces the archive to the canonical block for a round,
// replacing whatever was stored — used after §8.2 fork recovery, when
// the block this node originally archived for a round may belong to an
// abandoned fork. A nil certificate erases any stored one (recovery
// adoptions have no certificate of their own).
func (s *Store) Reconcile(b *Block, c *Certificate) {
	if !s.responsible(b.Round) {
		return
	}
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
