// Package txflow is the node's transaction ingestion pipeline: the
// path a payment takes from a user's submission (or a peer's gossip)
// to a proposer's block. It replaces the unsynchronized map that
// preceded it with a staged design sized for the paper's throughput
// claims (§10, Figure 8: ~750 MByte/h of committed payload):
//
//	Submit/SubmitBatch ─┐
//	                    ├─ admission (bounds, rate caps, stale-nonce,
//	gossip (TxBatch) ───┘   duplicate and evicted filters; explicit
//	                        rejects)
//	                        │
//	                        ▼
//	               signature verification
//	               (on the admitting goroutine, or on
//	               the node's gossip workers)
//	                        │
//	                        ▼
//	               mempool (fee-then-nonce, one lock)
//	                        │           │
//	                        ▼           ▼
//	               DrainOutbox      Assemble
//	               (batched gossip) (proposer's block)
//
// A gossiped payment is one object from the decoder to the next hop: the
// pool adopts the pointer, the outbox stages it, DrainOutbox's batches are
// the staged slice, and nobody writes it again. A re-delivery never reaches
// a signature check: it is pending or stale, and rejected before crypto.
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
	// fee is too low to evict anything, or the pool evicted this very
	// transaction since the last commit.
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
// rejects carry shedBackoff.
func RetryAfterHint(err error) (time.Duration, bool) {
	var rej *Reject
	if errors.As(err, &rej) {
		return rej.RetryAfter, true
	}
	return 0, false
}

// Config sizes the pipeline. The zero value gets sensible defaults.
type Config struct {
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
	// Now supplies the pipeline clock (rate windows). The
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
	return c
}

const (
	// shedBackoff is the retry-after hint attached to load-shedding
	// rejects that have no natural deadline (pool full, per-sender cap).
	// Rate-limit rejects instead carry the exact remainder of the
	// sender's window.
	shedBackoff = 500 * time.Millisecond
	// queueDepth bounds the async ingest queue consumed by the node's
	// gossip workers, in batches.
	queueDepth = 4096
)

// Flow is the transaction pipeline. All methods are safe for
// concurrent use from any goroutine.
type Flow struct {
	cfg      Config
	provider crypto.Provider

	// mu guards the pool: the sender queues, the nonce floors and the
	// occupancy.
	mu      sync.Mutex
	senders map[crypto.PublicKey]*senderQueue
	// floor[s] is s's account nonce as of the last committed block that
	// contained one of s's transactions; anything below it can never
	// apply and is rejected at admission. Maintained by Committed so
	// admission never reads the (scheduler-owned) ledger state.
	floor map[crypto.PublicKey]uint64
	count int
	bytes int
	// evicted is what the pool gave up since the last commit. A payment
	// a full pool evicted comes back from a neighbour that admitted it
	// afresh; admitting it again would evict another payment and flood
	// it once more, and the neighbours answer in kind: a circulation that
	// never settles while the chain stands still.
	evicted evictions

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

	// Gossip workers (Start/Close). queue carries gossip batches whose
	// verification is offloaded from the node's scheduler goroutine.
	queue   chan []*ledger.Transaction
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
		senders:  make(map[crypto.PublicKey]*senderQueue),
		floor:    make(map[crypto.PublicKey]uint64),
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
	reg.GaugeFunc("algorand_txflow_pending", "pending transactions in the mempool",
		func() float64 { return float64(f.Len()) })
	reg.GaugeFunc("algorand_txflow_pending_bytes", "encoded size of pending transactions",
		func() float64 { return float64(f.PendingBytes()) })
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
	f.queue = make(chan []*ledger.Transaction, queueDepth)
	f.done = make(chan struct{})
	for i := 0; i < workers; i++ {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for {
				select {
				case batch := <-f.queue:
					for _, tx := range batch {
						f.ingest(tx, adopt)
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

// What the pool may do with the *ledger.Transaction it admits: gossip's is
// written by nobody again; a submitter may reuse its buffer.
const (
	adopt  = true
	copyIn = false
)

// Submit runs one transaction through the full pipeline synchronously:
// admission, signature verification, mempool insertion, and gossip
// staging. It returns nil on admission or a typed rejection reason; tx
// stays the caller's.
func (f *Flow) Submit(tx *ledger.Transaction) error {
	return f.ingest(tx, copyIn).err
}

// SubmitBatch admits a batch in order on the caller's goroutine,
// returning one result per transaction (nil entries get ErrInvalid).
func (f *Flow) SubmitBatch(txs []*ledger.Transaction) []error {
	errs := make([]error, len(txs))
	for i, tx := range txs {
		if tx == nil {
			errs[i] = ErrInvalid
			continue
		}
		errs[i] = f.ingest(tx, copyIn).err
	}
	return errs
}

// IngestGossip runs one relayed transaction through the pipeline
// synchronously and reports whether it was freshly admitted (so the
// caller can decide to propagate it) and whether a signature was
// actually verified (so the simulator can charge CPU for it). The pool
// takes ownership of tx: the caller must not write it again.
func (f *Flow) IngestGossip(tx *ledger.Transaction) (fresh, sigChecked bool) {
	res := f.ingest(tx, adopt)
	return res.err == nil, res.sigChecked
}

// EnqueueBatch hands a gossip batch, and ownership of it, to the worker
// pool without blocking. It must only be used after Start; when the queue
// is full the batch is dropped and counted, never blocked on — upstream
// gossip redundancy re-delivers.
func (f *Flow) EnqueueBatch(txs []*ledger.Transaction) error {
	if !f.started.Load() {
		for _, tx := range txs {
			f.ingest(tx, adopt)
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

// ingest is the single admission path shared by every entry point: own
// is adopt or copyIn.
func (f *Flow) ingest(tx *ledger.Transaction, own bool) ingestResult {
	now := f.cfg.Now()

	// Structural checks: reject garbage before touching crypto.
	if tx.Amount == 0 || tx.Amount+tx.Fee < tx.Amount || len(tx.Sig) > 128 {
		f.c.invalid.Inc()
		return ingestResult{err: ErrInvalid}
	}

	// Cheap stateful pre-checks under the pool lock: stale nonce,
	// duplicate, per-sender cap. All of these reject without a
	// signature verification: every re-delivery ends here.
	if err := f.precheck(tx); err != nil {
		f.c.count(err)
		if errors.Is(err, ErrSenderLimit) || errors.Is(err, ErrPoolFull) {
			err = &Reject{Err: err, RetryAfter: shedBackoff}
		}
		return ingestResult{err: err}
	}

	// A full rate window refuses before the signature is looked at, but is
	// charged only after it verified: until then tx.From is a claim, and a
	// forged payment must not spend its purported sender's admissions.
	if err := f.admitRate(tx.From, now, false); err != nil {
		return ingestResult{err: err}
	}

	if !tx.VerifySig(f.provider) {
		f.c.badSig.Inc()
		return ingestResult{err: ErrBadSig, sigChecked: true}
	}
	f.c.verified.Inc()

	if err := f.admitRate(tx.From, now, true); err != nil {
		return ingestResult{err: err, sigChecked: true}
	}

	// Insert, evicting the lowest-fee pending transaction if the pool
	// is over its bounds.
	tx, err := f.insert(tx, own)
	if err != nil {
		f.c.count(err)
		if errors.Is(err, ErrPoolFull) {
			err = &Reject{Err: err, RetryAfter: shedBackoff}
		}
		return ingestResult{err: err, sigChecked: true}
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
	return ingestResult{sigChecked: true}
}

// admitRate checks that the sender's rate window has room and, with
// charge, takes one admission from it. Its refusal is counted and carries
// how long until the window rolls over — the exact moment a resubmission
// can succeed.
func (f *Flow) admitRate(from crypto.PublicKey, now time.Duration, charge bool) error {
	if f.cfg.RateLimit <= 0 {
		return nil
	}
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
		f.c.rateLimited.Inc()
		f.c.shed.Inc()
		return &Reject{Err: ErrRateLimited, RetryAfter: s.window + f.cfg.RateWindow - now}
	}
	if charge {
		s.n++
		f.rates[from] = s
	}
	return nil
}

// DrainOutbox returns the staged transactions packed into batches of
// at most maxBatchBytes of encoded payload each, clearing the stage.
// The node's flush process gossips each batch as one TxBatch message; the
// batches are the staged slice itself (see Batches).
func (f *Flow) DrainOutbox(maxBatchBytes int) [][]*ledger.Transaction {
	f.outMu.Lock()
	staged := f.outbox
	f.outbox = nil
	f.outMu.Unlock()
	return Batches(staged, maxBatchBytes)
}

// Batches cuts txs into consecutive sub-slices of at most maxBatchBytes
// of encoded payload each (a larger transaction alone in its own), each
// clipped to its length so that an append cannot run into the next.
func Batches(txs []*ledger.Transaction, maxBatchBytes int) [][]*ledger.Transaction {
	if len(txs) == 0 {
		return nil
	}
	var batches [][]*ledger.Transaction
	start, size := 0, 0
	for i, tx := range txs {
		w := tx.WireSize()
		if size+w > maxBatchBytes && i > start {
			batches = append(batches, txs[start:i:i])
			start, size = i, 0
		}
		size += w
	}
	return append(batches, txs[start:len(txs):len(txs)])
}

// Len returns the number of pending transactions.
func (f *Flow) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.count
}

// PendingBytes returns the encoded size of all pending transactions.
func (f *Flow) PendingBytes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bytes
}
