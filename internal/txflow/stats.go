package txflow

import (
	"errors"
	"fmt"

	"algorand/internal/metrics"
)

// counters is the pipeline's instrumentation, registered under
// algorand_txflow_* in the node's metrics registry. Rejection reasons
// share one family, split by a reason label, so an operator's first
// query ("why is admission failing?") is one family wide.
type counters struct {
	admitted    *metrics.Counter
	invalid     *metrics.Counter
	badSig      *metrics.Counter
	duplicate   *metrics.Counter
	stale       *metrics.Counter
	senderLimit *metrics.Counter
	rateLimited *metrics.Counter
	poolFull    *metrics.Counter
	queueFull   *metrics.Counter
	shed        *metrics.Counter
	outboxDrop  *metrics.Counter
	evicted     *metrics.Counter
	replaced    *metrics.Counter
	verified    *metrics.Counter
}

func newCounters(r *metrics.Registry) counters {
	reject := func(reason string) *metrics.Counter {
		return r.Counter(metrics.Name("algorand_txflow_rejected_total", "reason", reason),
			"transactions rejected at admission by reason")
	}
	return counters{
		admitted:    r.Counter("algorand_txflow_admitted_total", "transactions admitted to the mempool"),
		invalid:     reject("invalid"),
		badSig:      reject("bad_sig"),
		duplicate:   reject("duplicate"),
		stale:       reject("stale_nonce"),
		senderLimit: reject("sender_limit"),
		rateLimited: reject("rate_limited"),
		poolFull:    reject("pool_full"),
		queueFull:   r.Counter("algorand_txflow_queue_full_total", "gossip batches dropped because the async ingest queue was full"),
		shed:        r.Counter("algorand_txflow_shed_total", "load-shedding rejects (rate limit, sender cap, pool full) carrying retry-after hints"),
		outboxDrop:  r.Counter("algorand_txflow_outbox_drop_total", "admitted transactions dropped from the gossip outbox"),
		evicted:     r.Counter("algorand_txflow_evicted_total", "pending transactions evicted to admit higher-fee ones"),
		replaced:    r.Counter("algorand_txflow_replaced_total", "pending transactions replaced by same-nonce higher-fee ones"),
		verified:    r.Counter("algorand_txflow_verified_total", "signatures actually verified"),
	}
}

// count attributes a rejection to its counter. errors.Is, not ==:
// load-shedding reasons may arrive wrapped in a Reject backoff hint.
func (c *counters) count(err error) {
	switch {
	case errors.Is(err, ErrDuplicate):
		c.duplicate.Inc()
	case errors.Is(err, ErrStaleNonce):
		c.stale.Inc()
	case errors.Is(err, ErrSenderLimit):
		c.senderLimit.Inc()
		c.shed.Inc()
	case errors.Is(err, ErrPoolFull):
		c.poolFull.Inc()
		c.shed.Inc()
	}
}

// Stats is a point-in-time snapshot of the pipeline — a typed view
// over the registry-backed counters, kept for programmatic consumers
// (tests, experiments) that want fields rather than metric names.
type Stats struct {
	// Pending occupancy.
	Pending      int
	PendingBytes int

	// Admission outcomes.
	Admitted    uint64
	Invalid     uint64
	BadSig      uint64
	Duplicate   uint64
	StaleNonce  uint64
	SenderLimit uint64
	RateLimited uint64
	PoolFull    uint64
	QueueFull   uint64
	// Shed sums the load-shedding subset of rejects (sender limit, rate
	// limit, pool full) — the ones that carry retry-after hints.
	Shed uint64

	// Pool churn.
	Evicted  uint64
	Replaced uint64

	// Verified counts signatures actually checked: one per fresh
	// payment, none for a re-delivery.
	Verified uint64
}

// Rejected sums every rejection reason.
func (s Stats) Rejected() uint64 {
	return s.Invalid + s.BadSig + s.Duplicate + s.StaleNonce +
		s.SenderLimit + s.RateLimited + s.PoolFull
}

// String renders a one-line operator summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"txflow: pending %d (%d B) | admitted %d rejected %d (dup %d stale %d badsig %d rate %d full %d) | evicted %d replaced %d | verified %d",
		s.Pending, s.PendingBytes, s.Admitted, s.Rejected(),
		s.Duplicate, s.StaleNonce, s.BadSig, s.RateLimited, s.PoolFull,
		s.Evicted, s.Replaced, s.Verified)
}

// Stats snapshots the pipeline counters. Safe to call from any
// goroutine.
func (f *Flow) Stats() Stats {
	return Stats{
		Pending:      f.Len(),
		PendingBytes: f.PendingBytes(),
		Admitted:     f.c.admitted.Load(),
		Invalid:      f.c.invalid.Load(),
		BadSig:       f.c.badSig.Load(),
		Duplicate:    f.c.duplicate.Load(),
		StaleNonce:   f.c.stale.Load(),
		SenderLimit:  f.c.senderLimit.Load(),
		RateLimited:  f.c.rateLimited.Load(),
		PoolFull:     f.c.poolFull.Load(),
		QueueFull:    f.c.queueFull.Load(),
		Shed:         f.c.shed.Load(),
		Evicted:      f.c.evicted.Load(),
		Replaced:     f.c.replaced.Load(),
		Verified:     f.c.verified.Load(),
	}
}
