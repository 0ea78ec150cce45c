// Package txflow is the node's transaction ingestion pipeline: the
// path a payment takes from a user's submission (or a peer's gossip)
// to a proposer's block. It replaces the unsynchronized map that
// preceded it with a staged design sized for the paper's throughput
// claims (§10, Figure 8: ~750 MByte/h of committed payload):
//
//	Submit/SubmitBatch ─┐
//	                    ├─ admission (bounds, rate caps, stale-nonce
//	gossip (TxBatch) ───┘   and duplicate filters; explicit rejects)
//	                        │
//	                        ▼
//	               signature verification
//	               (worker pool over crypto.Provider,
//	                TTL'd verified-digest cache)
//	                        │
//	                        ▼
//	               sharded mempool (fee-then-nonce)
//	                        │           │
//	                        ▼           ▼
//	               DrainBatches     Assemble
//	               (batched gossip) (proposer's block)
//
// Every stage is safe for concurrent use; nothing in the pipeline ever
// blocks the caller. Admission either accepts a transaction or rejects
// it immediately with a typed reason — backpressure is explicit, so
// the scheduler goroutine and RPC handlers are never stalled by a full
// pool.
package txflow

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"algorand/internal/cache"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/metrics"
)

// Rejection reasons returned by Submit/SubmitBatch. Each maps to a
// counter in Stats.
var (
	// ErrInvalid: structurally invalid (zero amount, amount+fee
	// overflow, oversized signature).
	ErrInvalid = errors.New("txflow: invalid transaction")
	// ErrBadSig: signature verification failed.
	ErrBadSig = errors.New("txflow: bad signature")
	// ErrDuplicate: the exact transaction is already pending, or a
	// transaction with the same (sender, nonce) and an equal-or-higher
	// fee is.
	ErrDuplicate = errors.New("txflow: duplicate transaction")
	// ErrStaleNonce: the nonce is below the sender's committed nonce;
	// the transaction can never apply.
	ErrStaleNonce = errors.New("txflow: stale nonce")
	// ErrSenderLimit: the sender already has MaxPerSender transactions
	// pending.
	ErrSenderLimit = errors.New("txflow: per-sender pending limit")
	// ErrRateLimited: the sender exceeded RateLimit admissions within
	// RateWindow.
	ErrRateLimited = errors.New("txflow: sender rate limit")
	// ErrPoolFull: the pool is at its global bound and the transaction's
	// fee is too low to evict anything.
	ErrPoolFull = errors.New("txflow: pool full, fee too low")
	// ErrQueueFull: the async ingest queue is full (EnqueueBatch only).
	ErrQueueFull = errors.New("txflow: ingest queue full")
)

// Reject wraps a load-shedding rejection reason with a per-sender
// backoff hint: how long the sender should wait before resubmitting.
// errors.Is against the sentinel reasons still matches (Unwrap), so
// existing callers keep working; callers that want the hint use
// RetryAfterHint.
type Reject struct {
	Err        error
	RetryAfter time.Duration
}

func (r *Reject) Error() string {
	return fmt.Sprintf("%v (retry after %v)", r.Err, r.RetryAfter)
}

func (r *Reject) Unwrap() error { return r.Err }

// RetryAfterHint extracts the backoff hint from a rejection, reporting
// whether one was attached. Rate-limit rejects carry the exact
// remainder of the sender's window; pool-full and per-sender-cap
// rejects carry the configured ShedBackoff.
func RetryAfterHint(err error) (time.Duration, bool) {
	var rej *Reject
	if errors.As(err, &rej) {
		return rej.RetryAfter, true
	}
	return 0, false
}

// Config sizes the pipeline. The zero value gets sensible defaults.
type Config struct {
	// Shards is the number of mempool shards (senders are distributed
	// by key hash). Default 16.
	Shards int
	// MaxTxs and MaxBytes bound the pool globally; past either bound
	// admission evicts the lowest-fee pending transaction (or rejects
	// the incoming one if its own fee is lowest). Defaults 1<<16 txs,
	// 32 MiB.
	MaxTxs   int
	MaxBytes int
	// MaxPerSender caps one sender's pending transactions. Default 512.
	MaxPerSender int
	// RateLimit caps admissions per sender per RateWindow; 0 disables.
	// Default 0. RateWindow defaults to 1s.
	RateLimit  int
	RateWindow time.Duration
	// ShedBackoff is the retry-after hint attached to load-shedding
	// rejects that have no natural deadline (pool full, per-sender cap).
	// Rate-limit rejects instead carry the exact remainder of the
	// sender's window. Default 500ms.
	ShedBackoff time.Duration
	// VerifiedTTL is how long a verified transaction digest is
	// remembered, so relayed copies are never re-verified. Entries live
	// between TTL and 2×TTL. Default 2 minutes.
	VerifiedTTL time.Duration
	// QueueDepth bounds the async ingest queue consumed by the worker
	// pool. Default 4096.
	QueueDepth int
	// Now supplies the pipeline clock (TTL rotation, rate windows). The
	// simulator passes virtual time; real deployments leave it nil and
	// get wall-clock time since construction. The function must be safe
	// to call from any goroutine that calls into the Flow.
	Now func() time.Duration
	// Metrics receives the pipeline's counters and occupancy gauges
	// (algorand_txflow_*). Nil gets a private registry, so standalone
	// pipelines stay fully instrumented for Stats().
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.MaxTxs <= 0 {
		c.MaxTxs = 1 << 16
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 32 << 20
	}
	if c.MaxPerSender <= 0 {
		c.MaxPerSender = 512
	}
	if c.RateWindow <= 0 {
		c.RateWindow = time.Second
	}
	if c.ShedBackoff <= 0 {
		c.ShedBackoff = 500 * time.Millisecond
	}
	if c.VerifiedTTL <= 0 {
		c.VerifiedTTL = 2 * time.Minute
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	return c
}

// Flow is the transaction pipeline. All methods are safe for
// concurrent use from any goroutine.
type Flow struct {
	cfg      Config
	provider crypto.Provider

	shards []*shard
	// Global occupancy, maintained with atomics so shards only contend
	// on their own locks.
	count atomic.Int64
	bytes atomic.Int64

	// verified remembers recently verified transaction digests for
	// VerifiedTTL, so every relayed copy of a transaction costs at most
	// one signature verification.
	verified *cache.TwoGen[crypto.Digest, struct{}]

	rateMu    sync.Mutex
	rates     map[crypto.PublicKey]rateSlot
	rateSweep time.Duration

	// outbox holds freshly admitted transactions awaiting batched
	// gossip (drained by the node's flush process).
	outMu  sync.Mutex
	outbox []*ledger.Transaction

	// epoch anchors the default wall clock.
	epoch time.Time

	c counters
	// cacheHits aliases the verified cache's instrumented hit counter
	// for the Stats() view.
	cacheHits *metrics.Counter

	// Worker pool (Start/Close). queue carries gossip batches whose
	// verification is offloaded from the scheduler goroutine.
	queue   chan []ledger.Transaction
	done    chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool
}

type rateSlot struct {
	window time.Duration
	n      int
}

// New builds a pipeline verifying signatures against provider.
func New(provider crypto.Provider, cfg Config) *Flow {
	cfg = cfg.withDefaults()
	f := &Flow{
		cfg:      cfg,
		provider: provider,
		shards:   make([]*shard, cfg.Shards),
		rates:    make(map[crypto.PublicKey]rateSlot),
		epoch:    time.Now(),
	}
	if f.cfg.Now == nil {
		f.cfg.Now = func() time.Duration { return time.Since(f.epoch) }
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	f.c = newCounters(reg)
	f.verified = cache.New[crypto.Digest, struct{}](cfg.VerifiedTTL)
	f.verified.Instrument(reg, "algorand_txflow_verified_cache")
	// Instrument registered the hit counter; registration is idempotent,
	// so this fetches the same instance.
	f.cacheHits = reg.Counter("algorand_txflow_verified_cache_hits_total", "")
	reg.GaugeFunc("algorand_txflow_pending", "pending transactions in the mempool",
		func() float64 { return float64(f.Len()) })
	reg.GaugeFunc("algorand_txflow_pending_bytes", "encoded size of pending transactions",
		func() float64 { return float64(f.PendingBytes()) })
	for i := range f.shards {
		f.shards[i] = newShard()
	}
	return f
}

// Start launches workers verification goroutines consuming the async
// ingest queue (EnqueueBatch). With workers <= 0 it is a no-op: the
// pipeline stays fully synchronous, which the deterministic simulator
// relies on.
func (f *Flow) Start(workers int) {
	if workers <= 0 || !f.started.CompareAndSwap(false, true) {
		return
	}
	f.queue = make(chan []ledger.Transaction, f.cfg.QueueDepth)
	f.done = make(chan struct{})
	for i := 0; i < workers; i++ {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for {
				select {
				case batch := <-f.queue:
					for i := range batch {
						f.ingest(&batch[i])
					}
				case <-f.done:
					return
				}
			}
		}()
	}
}

// Close stops the worker pool. The pipeline remains usable
// synchronously.
func (f *Flow) Close() {
	if !f.started.CompareAndSwap(true, false) {
		return
	}
	close(f.done)
	f.wg.Wait()
}

// Submit runs one transaction through the full pipeline synchronously:
// admission, signature verification, mempool insertion, and gossip
// staging. It returns nil on admission or a typed rejection reason.
func (f *Flow) Submit(tx *ledger.Transaction) error {
	res := f.ingest(tx)
	return res.err
}

// SubmitBatch admits a batch, returning one result per transaction in
// order (nil entries get ErrInvalid). When the worker pool is running,
// signature verification for the batch is fanned out first; admission
// and insertion stay ordered.
func (f *Flow) SubmitBatch(txs []*ledger.Transaction) []error {
	errs := make([]error, len(txs))
	if f.started.Load() && len(txs) > 1 {
		f.verifyParallel(txs)
	}
	for i, tx := range txs {
		if tx == nil {
			errs[i] = ErrInvalid
			continue
		}
		errs[i] = f.Submit(tx)
	}
	return errs
}

// verifyParallel pre-warms the verified-digest cache for a batch by
// checking signatures concurrently on the calling goroutine plus the
// batch's own span of goroutines. Invalid signatures are left out of
// the cache and fail again (cheaply, by then cached as nothing) in the
// ordered pass.
func (f *Flow) verifyParallel(txs []*ledger.Transaction) {
	type job struct{ tx *ledger.Transaction }
	jobs := make(chan job, len(txs))
	for _, tx := range txs {
		if tx != nil {
			jobs <- job{tx}
		}
	}
	close(jobs)
	workers := 4
	if len(txs) < workers {
		workers = len(txs)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				key := verifiedKey(j.tx)
				if f.verified.Contains(key, f.cfg.Now()) {
					continue
				}
				if j.tx.VerifySig(f.provider) {
					f.c.verified.Inc()
					f.verified.Put(key, struct{}{}, f.cfg.Now())
				}
			}
		}()
	}
	wg.Wait()
}

// IngestGossip runs one relayed transaction through the pipeline
// synchronously and reports whether it was freshly admitted (so the
// caller can decide to propagate it) and whether a signature was
// actually verified (so the simulator can charge CPU for it).
func (f *Flow) IngestGossip(tx *ledger.Transaction) (fresh, sigChecked bool) {
	res := f.ingest(tx)
	return res.err == nil, res.sigChecked
}

// EnqueueBatch hands a gossip batch to the worker pool without
// blocking. It must only be used after Start; when the queue is full
// the batch is dropped and counted, never blocked on — upstream gossip
// redundancy re-delivers.
func (f *Flow) EnqueueBatch(txs []ledger.Transaction) error {
	if !f.started.Load() {
		for i := range txs {
			f.ingest(&txs[i])
		}
		return nil
	}
	select {
	case f.queue <- txs:
		return nil
	default:
		f.c.queueFull.Inc()
		return ErrQueueFull
	}
}

type ingestResult struct {
	err        error
	sigChecked bool
}

// ingest is the single admission path shared by every entry point.
// verifiedKey is the digest-cache key for a verified transaction. It
// binds the signature bytes to the signed core: tx.ID() covers only
// the signed prefix, so two transactions with the same core but
// different signature bytes must not share a cache entry.
func verifiedKey(tx *ledger.Transaction) crypto.Digest {
	id := tx.ID()
	return crypto.HashBytes("txflow.verified", id[:], tx.Sig)
}

func (f *Flow) ingest(tx *ledger.Transaction) ingestResult {
	now := f.cfg.Now()

	// Structural checks: reject garbage before touching crypto.
	if tx.Amount == 0 || tx.Amount+tx.Fee < tx.Amount || len(tx.Sig) > 128 {
		f.c.invalid.Inc()
		return ingestResult{err: ErrInvalid}
	}

	sh := f.shardFor(tx.From)

	// Cheap stateful pre-checks under the shard lock: stale nonce,
	// duplicate, per-sender cap. All of these reject without a
	// signature verification.
	if err := sh.precheck(f, tx); err != nil {
		f.c.count(err)
		if errors.Is(err, ErrSenderLimit) {
			err = &Reject{Err: err, RetryAfter: f.cfg.ShedBackoff}
		}
		return ingestResult{err: err}
	}

	if f.cfg.RateLimit > 0 {
		if ok, retry := f.admitRate(tx.From, now); !ok {
			f.c.rateLimited.Inc()
			f.c.shed.Inc()
			return ingestResult{err: &Reject{Err: ErrRateLimited, RetryAfter: retry}}
		}
	}

	// Signature verification, skipped when the TTL'd cache has already
	// seen this exact transaction (relayed copies of a tx we verified).
	// The cache key covers the signature bytes, not just the signed
	// core: tx.ID() alone would let a same-core copy with a corrupted
	// signature ride a previous verification into the pool.
	id := tx.ID()
	key := verifiedKey(tx)
	sigChecked := false
	// Contains counts the hit/miss in the cache's instrumented counters.
	if !f.verified.Contains(key, now) {
		sigChecked = true
		if !tx.VerifySig(f.provider) {
			f.c.badSig.Inc()
			return ingestResult{err: ErrBadSig, sigChecked: true}
		}
		f.c.verified.Inc()
		f.verified.Put(key, struct{}{}, now)
	}

	// Insert, evicting the lowest-fee pending transaction if the pool
	// is over its global bounds.
	tx, err := f.insert(sh, tx, id)
	if err != nil {
		f.c.count(err)
		if errors.Is(err, ErrPoolFull) {
			err = &Reject{Err: err, RetryAfter: f.cfg.ShedBackoff}
		}
		return ingestResult{err: err, sigChecked: sigChecked}
	}
	f.c.admitted.Inc()

	// Stage for batched gossip.
	f.outMu.Lock()
	if len(f.outbox) < f.cfg.MaxTxs {
		f.outbox = append(f.outbox, tx)
	} else {
		f.c.outboxDrop.Inc()
	}
	f.outMu.Unlock()
	return ingestResult{sigChecked: sigChecked}
}

// admitRate charges one admission against the sender's rate window. On
// refusal it returns how long until the sender's window rolls over —
// the exact moment a resubmission can succeed.
func (f *Flow) admitRate(from crypto.PublicKey, now time.Duration) (bool, time.Duration) {
	f.rateMu.Lock()
	defer f.rateMu.Unlock()
	// Periodically drop senders whose window has passed, bounding the
	// map.
	if now-f.rateSweep >= f.cfg.RateWindow {
		for pk, s := range f.rates {
			if now-s.window >= f.cfg.RateWindow {
				delete(f.rates, pk)
			}
		}
		f.rateSweep = now
	}
	s := f.rates[from]
	if now-s.window >= f.cfg.RateWindow {
		s = rateSlot{window: now}
	}
	if s.n >= f.cfg.RateLimit {
		return false, s.window + f.cfg.RateWindow - now
	}
	s.n++
	f.rates[from] = s
	return true, 0
}

// DrainOutbox returns the staged transactions packed into batches of
// at most maxBatchBytes of encoded payload each, clearing the stage.
// The node's flush process gossips each batch as one TxBatch message;
// the batches are cut from one array sized by what was staged.
func (f *Flow) DrainOutbox(maxBatchBytes int) [][]ledger.Transaction {
	f.outMu.Lock()
	staged := f.outbox
	f.outbox = nil
	f.outMu.Unlock()
	if len(staged) == 0 {
		return nil
	}
	all := make([]ledger.Transaction, len(staged))
	var batches [][]ledger.Transaction
	start, size := 0, 0
	for i, tx := range staged {
		w := tx.WireSize()
		if size+w > maxBatchBytes && i > start {
			batches = append(batches, all[start:i:i])
			start, size = i, 0
		}
		all[i] = *tx
		size += w
	}
	return append(batches, all[start:])
}

// Len returns the number of pending transactions.
func (f *Flow) Len() int { return int(f.count.Load()) }

// PendingBytes returns the encoded size of all pending transactions.
func (f *Flow) PendingBytes() int { return int(f.bytes.Load()) }
