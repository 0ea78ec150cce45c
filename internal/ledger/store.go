package ledger

import (
	"sort"

	"algorand/internal/wire"
)

// Store is a user's block/certificate archive with §8.3 sharding: for a
// shard count N, the user persists blocks and certificates whose round
// number is congruent to their shard index mod N. Bytes tracks storage
// cost for the §10.3 accounting.
type Store struct {
	ShardIndex uint64
	ShardCount uint64

	blocks map[uint64]*Block
	certs  map[uint64]*Certificate
	// Bytes is the total wire size of everything persisted.
	Bytes int64
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
		s.Bytes += int64(b.WireSize())
	}
	if c != nil {
		prev, dup := s.certs[b.Round]
		if !dup {
			s.certs[b.Round] = c
			s.Bytes += int64(c.WireSize())
		} else if c.Final && !prev.Final {
			// Pipelined finality upgrade: replace the tentative cert.
			s.Bytes += int64(c.WireSize()) - int64(prev.WireSize())
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
	if prev, ok := s.blocks[b.Round]; ok {
		if prev.Hash() == b.Hash() {
			if c != nil {
				s.Put(b, c)
			}
			return
		}
		s.Bytes -= int64(prev.WireSize())
	}
	s.blocks[b.Round] = b
	s.Bytes += int64(b.WireSize())
	if prev, ok := s.certs[b.Round]; ok {
		s.Bytes -= int64(prev.WireSize())
		delete(s.certs, b.Round)
	}
	if c != nil {
		s.certs[b.Round] = c
		s.Bytes += int64(c.WireSize())
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

// EncodeTo implements wire.Marshaler: a deterministic snapshot of the
// archive (shard configuration plus every stored round in ascending
// order), suitable for persisting a shard to disk or shipping it to a
// bootstrapping peer.
func (s *Store) EncodeTo(e *wire.Encoder) {
	e.Uint64(s.ShardIndex)
	e.Uint64(s.ShardCount)
	rounds := make([]uint64, 0, len(s.blocks))
	for r := range s.blocks {
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	e.Int(len(rounds))
	for _, r := range rounds {
		e.Uint64(r)
		s.blocks[r].EncodeTo(e)
		c, ok := s.certs[r]
		e.Bool(ok)
		if ok {
			c.EncodeTo(e)
		}
	}
}

// DecodeFrom implements wire.Unmarshaler, rebuilding the archive and
// its storage accounting from a snapshot.
func (s *Store) DecodeFrom(d *wire.Decoder) {
	s.ShardIndex = d.Uint64()
	s.ShardCount = d.Uint64()
	if s.ShardCount == 0 {
		s.ShardCount = 1
	}
	n := d.Count(8 + blockFixedSize + 1)
	s.blocks = make(map[uint64]*Block, n)
	s.certs = make(map[uint64]*Certificate, n)
	s.Bytes = 0
	for i := 0; i < n; i++ {
		r := d.Uint64()
		b := new(Block)
		b.DecodeFrom(d)
		if d.Err() != nil {
			return
		}
		s.blocks[r] = b
		s.Bytes += int64(b.WireSize())
		if d.Bool() {
			c := new(Certificate)
			c.DecodeFrom(d)
			if d.Err() != nil {
				return
			}
			s.certs[r] = c
			s.Bytes += int64(c.WireSize())
		}
	}
}
