package ledger

import (
	"errors"
	"fmt"
	"maps"
	"time"

	"algorand/internal/crypto"
)

// Config tunes the ledger's consensus-facing behavior.
type Config struct {
	// SeedRefreshInterval is R from §5.2: sortition at round r uses the
	// seed recorded at round r-1-(r mod R).
	SeedRefreshInterval uint64
	// LookbackRounds realizes the §5.3 look-back b in rounds: sortition
	// weights for round r come from the balances as of
	// seedRound - LookbackRounds. (The paper expresses b in wall time;
	// with ~minute-long rounds the two are interchangeable, and rounds
	// are what a deterministic simulation can count exactly.)
	LookbackRounds uint64
	// MinOfCurrentAndLookback enables the §5.3 "nothing at stake"
	// mitigation the paper sketches but does not explore: a user's
	// sortition weight is min(current balance, look-back balance), so
	// users who have since spent their money cannot leverage old
	// balances against the system.
	MinOfCurrentAndLookback bool
	// MaxTimestampSkew bounds how far a block timestamp may be ahead of
	// the validator's clock ("approximately current", §8.1).
	MaxTimestampSkew time.Duration
}

// DefaultConfig mirrors the paper's parameters at simulation scale.
func DefaultConfig() Config {
	return Config{
		SeedRefreshInterval: 1000,
		LookbackRounds:      0,
		MaxTimestampSkew:    time.Hour,
	}
}

// entry is a block we know about, with its running state.
type entry struct {
	block    *Block
	hash     crypto.Digest
	parent   *entry
	balances *Balances // state after applying block
	cert     *Certificate
	final    bool
	// weights is balances as the map sortition reads, money by account,
	// built when a round first draws its weights from this block.
	weights map[crypto.PublicKey]uint64
}

// moneyByAccount returns e's balances as a sortition weight table.
func (e *entry) moneyByAccount() map[crypto.PublicKey]uint64 {
	if e.weights == nil {
		e.weights = make(map[crypto.PublicKey]uint64, e.balances.Len())
		e.balances.Accounts(func(a AccountRecord) bool {
			e.weights[a.Key] = a.Money
			return true
		})
	}
	return e.weights
}

// Genesis is what every user knows before it hears from anyone (§8.3):
// the genesis accounts and the bootstrap seed, together with everything
// they determine — the account state, its sortition weight table and the
// genesis block — worked out once. A Genesis is immutable, so the users
// of one process can share it: a simulated user then costs what it comes
// to own, not a copy of the account table.
type Genesis struct {
	balances *Balances
	weights  map[crypto.PublicKey]uint64
	block    *Block
	hash     crypto.Digest
}

// NewGenesis derives the genesis state from its accounts and seed0.
func NewGenesis(accounts map[crypto.PublicKey]uint64, seed0 crypto.Digest) *Genesis {
	bal := NewBalances(accounts)
	g := &Genesis{
		balances: bal,
		weights:  maps.Clone(accounts),
		block:    &Block{Round: 0, Seed: seed0, StateRoot: bal.Root()},
	}
	g.hash = g.block.Hash()
	// Nothing writes the state again: every ledger clones it first.
	bal.share()
	return g
}

// Ledger is one user's view of the blockchain. It tracks the canonical
// chain (head), every fork it has heard of (for §8.2 recovery), seed
// history, and per-block balance snapshots for look-back weights.
type Ledger struct {
	cfg      Config
	provider crypto.Provider

	entries map[crypto.Digest]*entry
	byRound map[uint64][]*entry
	genesis *entry
	head    *entry
	// lastFinal is the most recent block known to have a final
	// certificate on the head chain.
	lastFinal *entry

	// pendingBlocks holds proposal pre-images by hash that are not yet
	// committed (BlockOfHash in Algorithm 3 resolves from here). It follows
	// the round: a commit drops every proposal at or below its round.
	pendingBlocks map[crypto.Digest]*Block
}

// New creates a ledger from genesis accounts and the bootstrap seed
// seed0 (§8.3: the genesis block and seed are common knowledge).
func New(p crypto.Provider, cfg Config, genesisAccounts map[crypto.PublicKey]uint64, seed0 crypto.Digest) *Ledger {
	return NewFromGenesis(p, cfg, NewGenesis(genesisAccounts, seed0))
}

// NewFromGenesis creates a ledger at g.
func NewFromGenesis(p crypto.Provider, cfg Config, g *Genesis) *Ledger {
	l := &Ledger{
		cfg:           cfg,
		provider:      p,
		entries:       make(map[crypto.Digest]*entry),
		byRound:       make(map[uint64][]*entry),
		pendingBlocks: make(map[crypto.Digest]*Block),
	}
	e := &entry{
		block:    g.block,
		hash:     g.hash,
		balances: g.balances,
		final:    true,
		weights:  g.weights,
	}
	l.entries[e.hash] = e
	l.byRound[0] = []*entry{e}
	l.genesis = e
	l.head = e
	l.lastFinal = e
	return l
}

// Head returns the last block on the canonical chain.
func (l *Ledger) Head() *Block { return l.head.block }

// HeadHash returns the canonical chain tip's hash.
func (l *Ledger) HeadHash() crypto.Digest { return l.head.hash }

// NextRound returns the round the user should run BA⋆ for next.
func (l *Ledger) NextRound() uint64 { return l.head.block.Round + 1 }

// GenesisHash returns the genesis block's hash.
func (l *Ledger) GenesisHash() crypto.Digest { return l.genesis.hash }

// LastFinal returns the most recent final block on the head chain.
func (l *Ledger) LastFinal() *Block { return l.lastFinal.block }

// LastFinalHash returns LastFinal's hash.
func (l *Ledger) LastFinalHash() crypto.Digest { return l.lastFinal.hash }

// Balances returns the state after the head block. Callers must not
// mutate it.
func (l *Ledger) Balances() *Balances { return l.head.balances }

// TotalMoney returns the money supply W.
func (l *Ledger) TotalMoney() uint64 { return l.head.balances.Total }

// ancestorAt walks from e back to the entry at the given round.
func ancestorAt(e *entry, round uint64) *entry {
	for e != nil && e.block.Round > round {
		e = e.parent
	}
	if e == nil || e.block.Round != round {
		return nil
	}
	return e
}

// seedRound returns the round whose block supplies the sortition seed
// for round r: r-1-(r mod R), clamped at genesis (§5.2).
func (l *Ledger) seedRound(r uint64) uint64 {
	if r == 0 {
		return 0
	}
	R := l.cfg.SeedRefreshInterval
	if R == 0 {
		R = 1
	}
	back := 1 + (r % R)
	if back > r {
		return 0
	}
	return r - back
}

// SortitionSeed returns the seed to use for sortition at round r, read
// from the head chain.
func (l *Ledger) SortitionSeed(r uint64) crypto.Digest {
	e := ancestorAt(l.head, l.seedRound(r))
	if e == nil {
		return l.genesis.block.Seed
	}
	return e.block.Seed
}

// SortitionWeights returns the balance snapshot used to weigh sortition
// at round r, applying the look-back rule (§5.3), along with the total.
// With MinOfCurrentAndLookback it instead returns, per user, the
// smaller of the look-back and current balances (the paper's suggested
// "nothing at stake" mitigation).
func (l *Ledger) SortitionWeights(r uint64) (map[crypto.PublicKey]uint64, uint64) {
	wr := l.seedRound(r)
	if wr >= l.cfg.LookbackRounds {
		wr -= l.cfg.LookbackRounds
	} else {
		wr = 0
	}
	e := ancestorAt(l.head, wr)
	if e == nil {
		e = l.genesis
	}
	if !l.cfg.MinOfCurrentAndLookback {
		return e.moneyByAccount(), e.balances.Total
	}
	cur := l.head.balances
	min := make(map[crypto.PublicKey]uint64, e.balances.Len())
	var total uint64
	e.balances.Accounts(func(a AccountRecord) bool {
		w := a.Money
		if c := cur.MoneyOf(a.Key); c < w {
			w = c
		}
		if w > 0 {
			min[a.Key] = w
			total += w
		}
		return true
	})
	return min, total
}

// WeightsAt returns the account balances after the block with the given
// hash as a sortition weight table, with their total: the stake a §8.2
// recovery attempt based on that block draws its committees from.
func (l *Ledger) WeightsAt(h crypto.Digest) (map[crypto.PublicKey]uint64, uint64, bool) {
	e, ok := l.entries[h]
	if !ok {
		return nil, 0, false
	}
	return e.moneyByAccount(), e.balances.Total, true
}

// PrevSeed returns the seed of the head block (seed_{r-1} needed to
// derive or check the seed of the next proposed block).
func (l *Ledger) PrevSeed() crypto.Digest { return l.head.block.Seed }

// RegisterProposal remembers a proposed block under its hash h so that
// a later BA⋆ agreement on that hash can be resolved to block contents.
// h comes from whoever checked the body against it — the verifier of the
// proposal's signed announce, or a caller that hashed b itself — so a
// megabyte block is not encoded again to file it.
func (l *Ledger) RegisterProposal(b *Block, h crypto.Digest) {
	l.pendingBlocks[h] = b
}

// BlockOfHash resolves a hash to a block: a committed entry, a pending
// proposal, or the canonical empty block for the next round.
func (l *Ledger) BlockOfHash(h crypto.Digest) (*Block, bool) {
	if e, ok := l.entries[h]; ok {
		return e.block, true
	}
	if b, ok := l.pendingBlocks[h]; ok {
		return b, true
	}
	return nil, false
}

// NextEmptyBlock returns the canonical empty block extending the head.
func (l *Ledger) NextEmptyBlock() *Block {
	return EmptyBlock(l.NextRound(), l.HeadHash(), l.PrevSeed(), l.head.block.StateRoot)
}

// ValidateBlock performs the §8.1 checks on a proposed block extending
// the head: round and previous-hash linkage, transaction validity
// against the head state, seed validity, and timestamp sanity. now is
// the validator's current (virtual) clock.
func (l *Ledger) ValidateBlock(b *Block, now time.Duration) error {
	if b.Round != l.NextRound() {
		return fmt.Errorf("ledger: block round %d, want %d", b.Round, l.NextRound())
	}
	if b.PrevHash != l.HeadHash() {
		return errors.New("ledger: block does not extend head")
	}
	if b.IsEmpty() {
		if b.Hash() != l.NextEmptyBlock().Hash() {
			return errors.New("ledger: non-canonical empty block")
		}
		return nil
	}
	// Timestamp: greater than predecessor's and approximately current.
	if b.Timestamp <= l.head.block.Timestamp && l.head != l.genesis {
		return errors.New("ledger: timestamp not increasing")
	}
	if b.Timestamp > now+l.cfg.MaxTimestampSkew {
		return errors.New("ledger: timestamp too far in the future")
	}
	// Seed: VRF_proposer(seed_{r-1} || r) hashed into the block seed.
	out, ok := l.provider.VRFVerify(b.Proposer, SeedAlpha(l.PrevSeed(), b.Round), b.SeedProof)
	if !ok || SeedFromVRF(out) != b.Seed {
		return errors.New("ledger: invalid block seed")
	}
	// Transactions must apply cleanly to a copy of the head state, and
	// the header's state root must commit exactly the resulting state.
	tmp := l.head.balances.Clone()
	for i := range b.Txns {
		tx := &b.Txns[i]
		if !tx.VerifySig(l.provider) {
			return fmt.Errorf("ledger: bad signature on tx %d", i)
		}
		if err := tmp.ApplyTx(tx); err != nil {
			return fmt.Errorf("ledger: tx %d: %w", i, err)
		}
	}
	if got := tmp.Root(); b.StateRoot != got {
		return fmt.Errorf("ledger: block state root %s, post-apply state is %s", b.StateRoot, got)
	}
	return nil
}

// Commit appends a block to the chain with its certificate. The block
// must extend a known entry (normally the head). If it extends a
// non-head entry, a fork is recorded; the head moves only if the block
// extends the current head.
func (l *Ledger) Commit(b *Block, cert *Certificate) error {
	return l.CommitHashed(b, b.Hash(), cert)
}

// CommitHashed is Commit for a caller that holds b's hash h from where
// b was resolved or verified: BlockOfHash's own index, or the agreed
// value a verified proposal was registered under.
func (l *Ledger) CommitHashed(b *Block, h crypto.Digest, cert *Certificate) error {
	if _, dup := l.entries[h]; dup {
		// Already known; attach a certificate the entry lacks (e.g. a
		// §8.2 recovery certificate for a block first seen uncertified)
		// or upgrade certificate finality.
		e := l.entries[h]
		if cert != nil && e.cert == nil {
			e.cert = cert
		}
		if cert != nil && cert.Final && !e.final {
			e.final = true
			e.cert = cert
			l.updateLastFinal()
		}
		return nil
	}
	parent, ok := l.entries[b.PrevHash]
	if !ok {
		return errors.New("ledger: commit with unknown parent")
	}
	if b.Round != parent.block.Round+1 {
		return fmt.Errorf("ledger: commit round %d after parent round %d", b.Round, parent.block.Round)
	}
	bal := parent.balances.Clone()
	for i := range b.Txns {
		if err := bal.ApplyTx(&b.Txns[i]); err != nil {
			return fmt.Errorf("ledger: commit tx %d: %w", i, err)
		}
	}
	if got := bal.Root(); b.StateRoot != got {
		return fmt.Errorf("ledger: commit state root %s, post-apply state is %s", b.StateRoot, got)
	}
	// The entry's state is final: readers on any goroutine may clone it.
	bal.share()
	e := &entry{
		block:    b,
		hash:     h,
		parent:   parent,
		balances: bal,
		cert:     cert,
		final:    cert != nil && cert.Final,
	}
	l.entries[h] = e
	l.byRound[b.Round] = append(l.byRound[b.Round], e)
	// The round is decided: b is served from entries now, and the
	// proposals it beat (a proposer's own megabyte body among them) will
	// never be agreed on. A §8.2 recovery proposal extends a tip, so it
	// sits above every round committed while it waits.
	for ph, pb := range l.pendingBlocks {
		if pb.Round <= b.Round {
			delete(l.pendingBlocks, ph)
		}
	}
	if parent == l.head {
		l.head = e
	}
	if e.final {
		l.updateLastFinal()
	}
	return nil
}

// updateLastFinal advances lastFinal to the deepest final entry on the
// head chain.
func (l *Ledger) updateLastFinal() {
	for e := l.head; e != nil; e = e.parent {
		if e.final {
			l.lastFinal = e
			return
		}
	}
}

// BalancesAt returns the account state after the block with the given
// hash, if known.
func (l *Ledger) BalancesAt(h crypto.Digest) (*Balances, bool) {
	e, ok := l.entries[h]
	if !ok {
		return nil, false
	}
	return e.balances, true
}

// Knows reports whether the block with the given hash is committed.
func (l *Ledger) Knows(h crypto.Digest) bool {
	_, ok := l.entries[h]
	return ok
}

// Certificate returns the stored certificate for a block hash.
func (l *Ledger) Certificate(h crypto.Digest) (*Certificate, bool) {
	e, ok := l.entries[h]
	if !ok || e.cert == nil {
		return nil, false
	}
	return e.cert, true
}

// Tip is the last block of one known chain branch, with its hash.
type Tip struct {
	Block *Block
	Hash  crypto.Digest
}

// ForkTips returns the tip of every known chain branch, longest first.
// Used by the §8.2 recovery protocol to propose a fork to converge on.
func (l *Ledger) ForkTips() []Tip {
	hasChild := make(map[crypto.Digest]bool, len(l.entries))
	for _, e := range l.entries {
		if e.parent != nil {
			hasChild[e.parent.hash] = true
		}
	}
	var tips []Tip
	for _, e := range l.entries {
		if !hasChild[e.hash] {
			tips = append(tips, Tip{Block: e.block, Hash: e.hash})
		}
	}
	// Longest (highest round) first; break ties by hash for determinism.
	for i := 0; i < len(tips); i++ {
		for j := i + 1; j < len(tips); j++ {
			if tips[j].Block.Round > tips[i].Block.Round ||
				(tips[j].Block.Round == tips[i].Block.Round && tips[i].Hash.Less(tips[j].Hash)) {
				tips[i], tips[j] = tips[j], tips[i]
			}
		}
	}
	return tips
}

// SwitchHead re-points the canonical chain at the entry with the given
// hash (fork recovery, §8.2). The entry must be known.
func (l *Ledger) SwitchHead(h crypto.Digest) error {
	e, ok := l.entries[h]
	if !ok {
		return errors.New("ledger: switch to unknown block")
	}
	l.setHead(e)
	return nil
}

// setHead re-points the canonical chain at e.
func (l *Ledger) setHead(e *entry) {
	l.head = e
	l.updateLastFinal()
}

// ChainLength returns the head round (number of blocks after genesis).
func (l *Ledger) ChainLength() uint64 { return l.head.block.Round }

// BlockAt returns the canonical-chain block at the given round.
func (l *Ledger) BlockAt(round uint64) (*Block, bool) {
	e := ancestorAt(l.head, round)
	if e == nil {
		return nil, false
	}
	return e.block, true
}

// HashAt returns the hash of the canonical-chain block at the given
// round, as indexed when the block was committed.
func (l *Ledger) HashAt(round uint64) (crypto.Digest, bool) {
	e := ancestorAt(l.head, round)
	if e == nil {
		return crypto.Digest{}, false
	}
	return e.hash, true
}

// CertificateAt returns the stored certificate of the canonical-chain
// block at the given round.
func (l *Ledger) CertificateAt(round uint64) (*Certificate, bool) {
	e := ancestorAt(l.head, round)
	if e == nil || e.cert == nil {
		return nil, false
	}
	return e.cert, true
}

// IsFinal reports whether the block at the given hash is final, or has
// a final successor on the head chain (transactions are confirmed when
// they appear in a final block or a predecessor of one, §8.2).
func (l *Ledger) IsFinal(h crypto.Digest) bool {
	e, ok := l.entries[h]
	if !ok {
		return false
	}
	return e.block.Round <= l.lastFinal.block.Round && ancestorAt(l.lastFinal, e.block.Round) == e
}
