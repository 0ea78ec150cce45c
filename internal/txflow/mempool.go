package txflow

import (
	"bytes"
	"container/heap"
	"slices"
	"sort"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
)

// senderQueue holds one sender's pending transactions in ascending
// nonce order. Nonces are unique within a queue; a strictly
// higher-fee transaction for the same nonce displaces the incumbent.
type senderQueue struct {
	txs []*ledger.Transaction
}

// find locates the queue index holding nonce, or its insertion point.
func (q *senderQueue) find(nonce uint64) (int, bool) {
	i := sort.Search(len(q.txs), func(i int) bool { return q.txs[i].Nonce >= nonce })
	return i, i < len(q.txs) && q.txs[i].Nonce == nonce
}

// checkLocked implements the stateful admission rules. Caller holds
// f.mu.
func (f *Flow) checkLocked(tx *ledger.Transaction) error {
	if tx.Nonce < f.floor[tx.From] {
		return ErrStaleNonce
	}
	if f.evicted.holds(tx) {
		// It lost its place to better-paying payments, and only a commit
		// makes room again.
		return ErrPoolFull
	}
	q := f.senders[tx.From]
	if q == nil {
		return nil
	}
	if i, ok := q.find(tx.Nonce); ok {
		// Same (sender, nonce) already pending: an identical or
		// lower/equal-fee copy is a duplicate; a strictly higher fee is
		// a replacement and takes the incumbent's slot (so the cap
		// below does not apply).
		if q.txs[i].Fee >= tx.Fee {
			return ErrDuplicate
		}
		return nil
	}
	if len(q.txs) >= f.cfg.MaxPerSender {
		return ErrSenderLimit
	}
	return nil
}

// precheck rejects transactions that cannot be admitted, before the
// caller spends a signature verification on them. It is advisory —
// insert re-runs the same checks authoritatively.
func (f *Flow) precheck(tx *ledger.Transaction) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.checkLocked(tx)
}

// insert places a verified transaction into the pool, then enforces the
// byte/count bounds by evicting the lowest-fee tail of the whole pool
// (possibly the incoming transaction itself, in which case the caller
// gets ErrPoolFull). What the pool keeps, and returns, is tx itself
// when the caller gave it away (own: gossip, each payment an allocation of
// its own) and otherwise a copy: a submitter may reuse its buffer.
func (f *Flow) insert(tx *ledger.Transaction, own bool) (*ledger.Transaction, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkLocked(tx); err != nil {
		return nil, err
	}
	if !own {
		cp := *tx
		cp.Sig = bytes.Clone(tx.Sig)
		tx = &cp
	}
	q := f.senders[tx.From]
	if q == nil {
		q = &senderQueue{}
		f.senders[tx.From] = q
	}
	i, replace := q.find(tx.Nonce)
	if replace {
		f.bytes += tx.WireSize() - q.txs[i].WireSize()
		q.txs[i] = tx
		f.c.replaced.Inc()
	} else {
		q.txs = append(q.txs, nil)
		copy(q.txs[i+1:], q.txs[i:])
		q.txs[i] = tx
		f.count++
		f.bytes += tx.WireSize()
	}

	// Enforce the bounds. The victim is the lowest-fee *tail*
	// transaction (each sender's highest pending nonce — the least
	// immediately usable) in the pool. The pool is not empty here, since
	// it holds tx.
	for f.count > f.cfg.MaxTxs || f.bytes > f.cfg.MaxBytes {
		victim, vq := f.lowestFeeTailLocked()
		ve := vq.txs[len(vq.txs)-1]
		vq.txs = vq.txs[:len(vq.txs)-1]
		if len(vq.txs) == 0 {
			delete(f.senders, victim)
		}
		f.count--
		f.bytes -= ve.WireSize()
		if ve == tx {
			// The incoming transaction was itself the cheapest: the
			// pool is full and its fee too low.
			return nil, ErrPoolFull
		}
		f.c.evicted.Inc()
		f.evicted.add(ve, f.cfg.MaxTxs)
	}
	return tx, nil
}

// lowestFeeTailLocked returns the sender owning the lowest-fee tail
// entry in the pool (ties broken by key order for determinism).
func (f *Flow) lowestFeeTailLocked() (crypto.PublicKey, *senderQueue) {
	var (
		bestPK crypto.PublicKey
		bestQ  *senderQueue
	)
	for pk, q := range f.senders {
		tail := q.txs[len(q.txs)-1]
		if bestQ == nil {
			bestPK, bestQ = pk, q
			continue
		}
		btail := bestQ.txs[len(bestQ.txs)-1]
		if tail.Fee < btail.Fee || (tail.Fee == btail.Fee && bestPK.Less(pk)) {
			bestPK, bestQ = pk, q
		}
	}
	return bestPK, bestQ
}

// Committed removes a committed block's transactions from the pool and
// garbage-collects anything each affected sender can no longer apply.
// Cost is O(committed senders), not a scan of the pool. balances must
// reflect the state after the commit; it is read on the calling goroutine.
func (f *Flow) Committed(b *ledger.Block, balances *ledger.Balances) {
	// The set of senders, so each queue is visited once.
	bySender := make(map[crypto.PublicKey]struct{})
	for i := range b.Txns {
		bySender[b.Txns[i].From] = struct{}{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.evicted.reset()
	for from := range bySender {
		floor := balances.NonceOf(from)
		if f.floor[from] < floor {
			f.floor[from] = floor
		}
		if q := f.senders[from]; q != nil {
			// Everything below the committed nonce is spent or stale.
			cut, _ := q.find(floor)
			for _, tx := range q.txs[:cut] {
				f.count--
				f.bytes -= tx.WireSize()
			}
			q.txs = slices.Delete(q.txs, 0, cut)
			if len(q.txs) == 0 {
				delete(f.senders, from)
			}
		}
	}
}

// evictions remembers the payments the pool evicted since the last commit,
// at most max of them (the oldest forgotten first), by ID and signature:
// only the very payment that was evicted is refused, and a corrupted
// signature over its core is verified like any other.
type evictions struct {
	sigs map[crypto.Digest][]byte
	ring []crypto.Digest
	next int
}

func (e *evictions) holds(tx *ledger.Transaction) bool {
	if len(e.sigs) == 0 {
		return false
	}
	sig, ok := e.sigs[tx.ID()]
	return ok && bytes.Equal(sig, tx.Sig)
}

func (e *evictions) add(tx *ledger.Transaction, max int) {
	if e.sigs == nil {
		e.sigs = make(map[crypto.Digest][]byte)
	}
	id := tx.ID()
	if len(e.ring) < max {
		e.ring = append(e.ring, id)
	} else {
		delete(e.sigs, e.ring[e.next])
		e.ring[e.next] = id
		e.next = (e.next + 1) % max
	}
	e.sigs[id] = tx.Sig
}

func (e *evictions) reset() {
	clear(e.sigs)
	e.ring, e.next = e.ring[:0], 0
}

// --- Block assembly ---------------------------------------------------------

// feeHeap orders sender queues by their head transaction's fee,
// highest first; ties break on sender key so assembly is deterministic
// across nodes and runs.
type feeHeap []assemblyRun

type assemblyRun struct {
	sender crypto.PublicKey
	txs    []*ledger.Transaction // pending run, ascending nonce
	pos    int                   // next index to consider
}

func (h feeHeap) Len() int { return len(h) }
func (h feeHeap) Less(i, j int) bool {
	fi, fj := h[i].txs[h[i].pos].Fee, h[j].txs[h[j].pos].Fee
	if fi != fj {
		return fi > fj
	}
	return h[i].sender.Less(h[j].sender)
}
func (h feeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *feeHeap) Push(x interface{}) { *h = append(*h, x.(assemblyRun)) }
func (h *feeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// overlay tracks the balance deltas of transactions tentatively placed
// in the block, reading through to the base table — assembly never
// clones the full balance map.
type overlay struct {
	base  *ledger.Balances
	money map[crypto.PublicKey]uint64
	nonce map[crypto.PublicKey]uint64
}

func newOverlay(base *ledger.Balances) *overlay {
	return &overlay{
		base:  base,
		money: make(map[crypto.PublicKey]uint64),
		nonce: make(map[crypto.PublicKey]uint64),
	}
}

func (o *overlay) moneyOf(pk crypto.PublicKey) uint64 {
	if m, ok := o.money[pk]; ok {
		return m
	}
	return o.base.MoneyOf(pk)
}

func (o *overlay) nonceOf(pk crypto.PublicKey) uint64 {
	if n, ok := o.nonce[pk]; ok {
		return n
	}
	return o.base.NonceOf(pk)
}

// apply validates tx against the overlaid state and applies it,
// mirroring ledger.Balances.ApplyTx (fee burned).
func (o *overlay) apply(tx *ledger.Transaction) bool {
	if tx.Amount == 0 || tx.Amount+tx.Fee < tx.Amount {
		return false
	}
	if o.moneyOf(tx.From) < tx.Amount+tx.Fee {
		return false
	}
	if tx.Nonce != o.nonceOf(tx.From) {
		return false
	}
	o.money[tx.From] = o.moneyOf(tx.From) - tx.Amount - tx.Fee
	o.money[tx.To] = o.moneyOf(tx.To) + tx.Amount
	o.nonce[tx.From] = tx.Nonce + 1
	return true
}

// Assemble drains the pool by priority into a block's transaction
// list: senders are merged highest-head-fee first, each sender's run
// applied in nonce order against an overlay of balances, stopping at
// maxBytes of encoded transactions. balances is only read (on the
// calling goroutine); pool state is not mutated — commit-time cleanup
// happens in Committed.
func (f *Flow) Assemble(balances *ledger.Balances, maxBytes int) []ledger.Transaction {
	// Snapshot the queues. A pending payment is never written; only the
	// slices need copying.
	f.mu.Lock()
	h := make(feeHeap, 0, len(f.senders))
	for pk, q := range f.senders {
		h = append(h, assemblyRun{sender: pk, txs: slices.Clone(q.txs)})
	}
	// Room for what is pending, or for the share of it that fits.
	room := f.count
	if f.bytes > maxBytes {
		room = room*maxBytes/f.bytes + 1
	}
	f.mu.Unlock()
	heap.Init(&h)

	ov := newOverlay(balances)
	out := make([]ledger.Transaction, 0, room)
	size := 0
	for h.Len() > 0 && size < maxBytes {
		run := h[0]
		tx := run.txs[run.pos]
		w := tx.WireSize()
		if size+w > maxBytes {
			// This sender's head does not fit; with uniform transaction
			// sizes nothing else will either.
			break
		}
		if ov.apply(tx) {
			out = append(out, *tx)
			size += w
			run.pos++
			if run.pos < len(run.txs) {
				h[0] = run
				heap.Fix(&h, 0)
			} else {
				heap.Pop(&h)
			}
		} else {
			// Head not applicable (nonce gap, stale, or insufficient
			// funds): the rest of the run is nonce-blocked behind it.
			heap.Pop(&h)
		}
	}
	return out
}
