package gateway

import (
	"sync"
	"time"

	"algorand/internal/cache"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
)

// ReadModel is the gateway's lag-tolerant view of the committed
// chain, fed exclusively by CommitAnnounce gossip plus the
// block+certificate runs fetched in response — it never calls into a
// consensus node's ledger lock. Queries answer from whatever round
// the model has reached and report that round (`as_of_round`), so a
// client always knows how stale an answer may be.
//
// Integrity model: the model owns a full ledger replica and moves its
// head only through ledger.ApplyRun, the same §8.3 rule a catching-up
// consensus node runs, so a quorum of lying consensus peers cannot feed
// the access tier a fake suffix — the only way to move this head is a
// certificate the configured committee actually signed.
type ReadModel struct {
	mu sync.RWMutex

	// l is the model's own chain replica: verification context
	// (seeds, look-back weight snapshots) plus balances. It grows with
	// the chain exactly like a consensus node's ledger does.
	l *ledger.Ledger

	committee ledger.CommitteeParams

	// recent is a ring of the last RecentBlocks applied blocks,
	// indexed by round % len.
	recent []*ledger.Block

	// committed maps tx id → commit round for status queries; pending
	// marks ids admitted at this gateway and not yet seen committed.
	// Both are TTL'd two-generation caches, so the status index stays
	// bounded no matter how long the gateway runs.
	committed *cache.TwoGen[crypto.Digest, uint64]
	pending   *cache.TwoGen[crypto.Digest, struct{}]

	now func() time.Duration
}

// FetchKind tells the gateway what the read model needs next.
type FetchKind int

const (
	// FetchNone: nothing to do.
	FetchNone FetchKind = iota
	// FetchChain: the announced round is past the head; request the
	// chain (blocks and their certificates) from FromRound.
	FetchChain
)

// FetchAction is the read model's reaction to an announce.
type FetchAction struct {
	Kind      FetchKind
	FromRound uint64
}

// NewReadModel builds the model at genesis. genesis, seed0, lcfg and
// committee must match the consensus cluster's configuration: the
// genesis entry is derived exactly the way ledger.New derives it, and
// certificates are verified under the cluster's committee parameters.
func NewReadModel(provider crypto.Provider, lcfg ledger.Config, committee ledger.CommitteeParams,
	genesis map[crypto.PublicKey]uint64, seed0 crypto.Digest,
	recentBlocks int, statusTTL time.Duration, now func() time.Duration) *ReadModel {
	if recentBlocks <= 0 {
		recentBlocks = 64
	}
	if statusTTL <= 0 {
		statusTTL = 5 * time.Minute
	}
	if now == nil {
		panic("gateway: ReadModel needs a clock")
	}
	return &ReadModel{
		l:         ledger.New(provider, lcfg, genesis, seed0),
		committee: committee,
		recent:    make([]*ledger.Block, recentBlocks),
		committed: cache.New[crypto.Digest, uint64](statusTTL),
		pending:   cache.New[crypto.Digest, struct{}](statusTTL),
		now:       now,
	}
}

// Observe records one commit announcement and returns the fetch the
// gateway should issue, if any. One announcer suffices: announces are
// only a liveness signal telling the model its head is behind — the
// fetched blocks prove themselves through their certificates, so
// counting distinct announcers would add lag without adding trust.
func (rm *ReadModel) Observe(round uint64) FetchAction {
	rm.mu.RLock()
	head := rm.l.ChainLength()
	rm.mu.RUnlock()
	if round <= head {
		return FetchAction{Kind: FetchNone}
	}
	return FetchAction{Kind: FetchChain, FromRound: head + 1}
}

// ApplyRun advances the head through a run of blocks and their
// certificates (a ChainReply's payload) by the one §8.3 rule,
// ledger.ApplyRun, and indexes what committed. It returns the blocks
// actually committed and the post-run balances (for the mempool's nonce
// floors; the pointer stays owned by the model and is only safe to read
// before the next ApplyRun). A non-nil error means a peer served data
// that failed verification.
func (rm *ReadModel) ApplyRun(blocks []*ledger.Block, certs []*ledger.Certificate) ([]*ledger.Block, *ledger.Balances, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	applied, err := rm.l.ApplyRun(blocks, certs, rm.committee)
	now := rm.now()
	for _, b := range applied {
		for i := range b.Txns {
			rm.committed.Put(b.Txns[i].ID(), b.Round, now)
		}
		rm.recent[int(b.Round)%len(rm.recent)] = b
	}
	return applied, rm.l.Balances(), err
}

// NotePending marks a tx id admitted at this gateway, so status
// queries distinguish "pending here" from "unknown".
func (rm *ReadModel) NotePending(id crypto.Digest) {
	rm.pending.Put(id, struct{}{}, rm.now())
}

// Head returns the model's round and head hash.
func (rm *ReadModel) Head() (uint64, crypto.Digest) {
	rm.mu.RLock()
	defer rm.mu.RUnlock()
	return rm.l.ChainLength(), rm.l.HeadHash()
}

// Balance answers an account query: balance, next expected nonce, and
// the round the answer is current as of.
func (rm *ReadModel) Balance(pk crypto.PublicKey) (money, nonce, asOfRound uint64) {
	rm.mu.RLock()
	defer rm.mu.RUnlock()
	bal := rm.l.Balances()
	return bal.MoneyOf(pk), bal.NonceOf(pk), rm.l.ChainLength()
}

// TxStatus values.
const (
	StatusUnknown   = "unknown"
	StatusPending   = "pending"
	StatusCommitted = "committed"
)

// TxStatus answers a transaction status query. round is meaningful
// only for StatusCommitted; status ages out of the index after the
// configured TTL (an aged-out committed tx reads as unknown — clients
// needing deep history query block-by-round or an archive node).
func (rm *ReadModel) TxStatus(id crypto.Digest) (status string, round, asOfRound uint64) {
	now := rm.now()
	rm.mu.RLock()
	asOfRound = rm.l.ChainLength()
	rm.mu.RUnlock()
	// Cache lookups take their own locks; committed wins over pending
	// (a committed tx may still sit in the pending index until TTL).
	if r, ok := rm.committed.Get(id, now); ok {
		return StatusCommitted, r, asOfRound
	}
	if rm.pending.Contains(id, now) {
		return StatusPending, 0, asOfRound
	}
	return StatusUnknown, 0, asOfRound
}

// BlockAt returns a recently applied block by round, if it is still
// in the ring.
func (rm *ReadModel) BlockAt(round uint64) (*ledger.Block, bool) {
	rm.mu.RLock()
	defer rm.mu.RUnlock()
	b := rm.recent[int(round)%len(rm.recent)]
	if b == nil || b.Round != round {
		return nil, false
	}
	return b, true
}

// SnapshotBalances deep-copies the current account state (the router
// uses it to re-stage pending transactions without holding the lock).
func (rm *ReadModel) SnapshotBalances() (*ledger.Balances, uint64) {
	rm.mu.RLock()
	defer rm.mu.RUnlock()
	return rm.l.Balances().Clone(), rm.l.ChainLength()
}
