package txflow

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/wire"
)

// harness builds a Flow over the Fast provider with a controllable
// clock and a set of funded identities.
type harness struct {
	provider crypto.Provider
	flow     *Flow
	ids      []crypto.Identity
	balances *ledger.Balances
	now      time.Duration
	mu       sync.Mutex
}

func newHarness(t testing.TB, users int, cfg Config) *harness {
	t.Helper()
	h := &harness{provider: crypto.NewFast()}
	cfg.Now = func() time.Duration {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.now
	}
	h.flow = New(h.provider, cfg)
	initial := make(map[crypto.PublicKey]uint64)
	for i := 0; i < users; i++ {
		id := h.provider.NewIdentity(crypto.SeedFromUint64(uint64(i)))
		h.ids = append(h.ids, id)
		initial[id.PublicKey()] = 1_000_000
	}
	h.balances = ledger.NewBalances(initial)
	return h
}

func (h *harness) advance(d time.Duration) {
	h.mu.Lock()
	h.now += d
	h.mu.Unlock()
}

// tx builds a signed payment from user i to user j.
func (h *harness) tx(i, j int, amount, fee, nonce uint64) *ledger.Transaction {
	tx := &ledger.Transaction{
		From:   h.ids[i].PublicKey(),
		To:     h.ids[j].PublicKey(),
		Amount: amount,
		Fee:    fee,
		Nonce:  nonce,
	}
	tx.Sign(h.ids[i])
	return tx
}

func TestSubmitAdmitsAndStages(t *testing.T) {
	h := newHarness(t, 4, Config{})
	tx := h.tx(0, 1, 5, 0, 0)
	if err := h.flow.Submit(tx); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if got := h.flow.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	if got := h.flow.PendingBytes(); got != tx.WireSize() {
		t.Fatalf("PendingBytes = %d, want %d", got, tx.WireSize())
	}
	batches := h.flow.DrainOutbox(1 << 20)
	if len(batches) != 1 || len(batches[0]) != 1 {
		t.Fatalf("outbox batches = %v, want one batch of one tx", batches)
	}
	if again := h.flow.DrainOutbox(1 << 20); again != nil {
		t.Fatal("outbox not cleared by drain")
	}
	s := h.flow.Stats()
	if s.Admitted != 1 || s.Verified != 1 || s.Rejected() != 0 {
		t.Fatalf("stats after one admit: %+v", s)
	}
}

func TestRejectionReasons(t *testing.T) {
	h := newHarness(t, 4, Config{MaxPerSender: 2})
	f := h.flow

	// Structurally invalid: zero amount.
	if err := f.Submit(h.tx(0, 1, 0, 0, 0)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("zero amount: %v, want ErrInvalid", err)
	}
	// Bad signature.
	bad := h.tx(0, 1, 5, 0, 0)
	bad.Sig[0] ^= 1
	if err := f.Submit(bad); !errors.Is(err, ErrBadSig) {
		t.Fatalf("tampered sig: %v, want ErrBadSig", err)
	}
	// Admit, then duplicate.
	tx := h.tx(0, 1, 5, 1, 0)
	if err := f.Submit(tx); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := f.Submit(tx); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: %v, want ErrDuplicate", err)
	}
	// Same nonce, lower fee: still duplicate.
	if err := f.Submit(h.tx(0, 1, 5, 0, 0)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("lower-fee same-nonce: %v, want ErrDuplicate", err)
	}
	// Same nonce, higher fee: replacement.
	if err := f.Submit(h.tx(0, 1, 5, 9, 0)); err != nil {
		t.Fatalf("replacement: %v", err)
	}
	if got := f.Len(); got != 1 {
		t.Fatalf("Len after replacement = %d, want 1", got)
	}
	// Per-sender cap: nonce 1 fits (2 pending), nonce 2 does not.
	if err := f.Submit(h.tx(0, 1, 5, 0, 1)); err != nil {
		t.Fatalf("nonce 1: %v", err)
	}
	if err := f.Submit(h.tx(0, 1, 5, 0, 2)); !errors.Is(err, ErrSenderLimit) {
		t.Fatalf("over sender cap: %v, want ErrSenderLimit", err)
	}
	s := f.Stats()
	if s.Invalid != 1 || s.BadSig != 1 || s.Duplicate != 2 || s.SenderLimit != 1 || s.Replaced != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestRelayedCopyIsNeverReverified: a payment's signature is checked once
// per node. Every later delivery finds it pending (duplicate) or below
// its sender's committed nonce (stale), and both are decided before a
// signature is looked at.
func TestRelayedCopyIsNeverReverified(t *testing.T) {
	h := newHarness(t, 2, Config{})
	tx := h.tx(0, 1, 5, 0, 0)
	if fresh, sig := h.flow.IngestGossip(tx); !fresh || !sig {
		t.Fatalf("first ingest: fresh=%v sigChecked=%v", fresh, sig)
	}
	// A relayed copy: rejected as duplicate without a verification.
	if fresh, sig := h.flow.IngestGossip(tx); fresh || sig {
		t.Fatalf("relayed copy: fresh=%v sigChecked=%v, want false/false", fresh, sig)
	}
	if s := h.flow.Stats(); s.Verified != 1 || s.Duplicate != 1 {
		t.Fatalf("after a relay: verified %d duplicate %d, want 1 and 1", s.Verified, s.Duplicate)
	}
	// Commit it, then replay: stale, still no re-verification.
	blk := &ledger.Block{Round: 1, Txns: []ledger.Transaction{*tx}}
	h.balances.ApplyTx(tx)
	h.flow.Committed(blk, h.balances)
	if fresh, sig := h.flow.IngestGossip(tx); fresh || sig {
		t.Fatalf("replayed after commit: fresh=%v sigChecked=%v", fresh, sig)
	}
	if s := h.flow.Stats(); s.Verified != 1 || s.StaleNonce != 1 {
		t.Fatalf("after a post-commit replay: verified %d stale %d, want 1 and 1", s.Verified, s.StaleNonce)
	}
}

// TestEvictedCoreWithCorruptSigIsBadSig: a payment that was verified and
// then evicted from the pool leaves nothing behind that vouches for its
// signed core. The same core under a corrupted signature is verified
// like any fresh payment, and rejected.
func TestEvictedCoreWithCorruptSigIsBadSig(t *testing.T) {
	h := newHarness(t, 4, Config{Shards: 1, MaxTxs: 2})
	victim := h.tx(0, 1, 1, 0, 0) // fee 0: first eviction victim
	if err := h.flow.Submit(victim); err != nil {
		t.Fatalf("victim submit: %v", err)
	}
	// Two higher-fee transactions from other senders evict it.
	for i := 1; i <= 2; i++ {
		if err := h.flow.Submit(h.tx(i, 3, 1, 10, 0)); err != nil {
			t.Fatalf("filler %d: %v", i, err)
		}
	}
	if got := h.flow.Stats().Evicted; got == 0 {
		t.Fatal("setup failed: victim was not evicted")
	}
	corrupt := *victim
	corrupt.Sig = append([]byte{}, victim.Sig...)
	corrupt.Sig[0] ^= 0xff
	if err := h.flow.Submit(&corrupt); err != ErrBadSig {
		t.Fatalf("corrupt-sig copy: err=%v, want ErrBadSig", err)
	}
}

func TestStaleNonceAfterCommit(t *testing.T) {
	h := newHarness(t, 2, Config{})
	tx0 := h.tx(0, 1, 5, 0, 0)
	tx1 := h.tx(0, 1, 5, 0, 1)
	for _, tx := range []*ledger.Transaction{tx0, tx1} {
		if err := h.flow.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	// Commit a block containing only nonce 0; nonce 1 stays pending.
	blk := &ledger.Block{Round: 1, Txns: []ledger.Transaction{*tx0}}
	h.balances.ApplyTx(tx0)
	h.flow.Committed(blk, h.balances)
	if got := h.flow.Len(); got != 1 {
		t.Fatalf("Len after commit = %d, want 1 (nonce 1 pending)", got)
	}
	// Nonce 0 from anyone is now stale at admission.
	if err := h.flow.Submit(h.tx(0, 1, 7, 3, 0)); !errors.Is(err, ErrStaleNonce) {
		t.Fatalf("stale resubmit: %v, want ErrStaleNonce", err)
	}
}

func TestRateLimiting(t *testing.T) {
	h := newHarness(t, 2, Config{RateLimit: 3, RateWindow: time.Second})
	for n := uint64(0); n < 3; n++ {
		if err := h.flow.Submit(h.tx(0, 1, 1, 0, n)); err != nil {
			t.Fatalf("within budget (nonce %d): %v", n, err)
		}
	}
	if err := h.flow.Submit(h.tx(0, 1, 1, 0, 3)); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over budget: %v, want ErrRateLimited", err)
	}
	// A different sender is unaffected.
	if err := h.flow.Submit(h.tx(1, 0, 1, 0, 0)); err != nil {
		t.Fatalf("other sender: %v", err)
	}
	// The window rolls over.
	h.advance(time.Second)
	if err := h.flow.Submit(h.tx(0, 1, 1, 0, 3)); err != nil {
		t.Fatalf("next window: %v", err)
	}
}

// TestForgedPaymentsDoNotSpendTheSendersRate: From is a claim until the
// signature verifies, so the rate window is charged only then. Anyone
// could otherwise lock a victim out of a rate-limited gateway with
// forged payments in the victim's name.
func TestForgedPaymentsDoNotSpendTheSendersRate(t *testing.T) {
	const limit, forged = 3, 10
	h := newHarness(t, 2, Config{RateLimit: limit, RateWindow: time.Second})
	for n := uint64(0); n < forged; n++ {
		bad := h.tx(0, 1, 1, 0, n)
		bad.Sig[0] ^= 1
		if err := h.flow.Submit(bad); !errors.Is(err, ErrBadSig) {
			t.Fatalf("forged payment %d: %v, want ErrBadSig", n, err)
		}
	}
	for n := uint64(0); n < limit; n++ {
		if err := h.flow.Submit(h.tx(0, 1, 1, 0, n)); err != nil {
			t.Fatalf("the sender's own payment %d after %d forged ones: %v", n, forged, err)
		}
	}
	// The sender's real excess is refused, and refused before a signature
	// check: a full window costs a forger's target nothing either.
	for n := uint64(limit); n < limit+2; n++ {
		err := h.flow.Submit(h.tx(0, 1, 1, 0, n))
		if !errors.Is(err, ErrRateLimited) {
			t.Fatalf("over budget (nonce %d): %v, want ErrRateLimited", n, err)
		}
		if retry, ok := RetryAfterHint(err); !ok || retry != time.Second {
			t.Fatalf("over budget (nonce %d): retry hint %v %v, want 1s", n, retry, ok)
		}
	}
	s := h.flow.Stats()
	if s.RateLimited != 2 || s.BadSig != forged || s.Admitted != limit || s.Verified != limit {
		t.Fatalf("rate-limited %d bad-sig %d admitted %d verified %d, want 2, %d, %d, %d",
			s.RateLimited, s.BadSig, s.Admitted, s.Verified, forged, limit, limit)
	}
}

func TestLowestFeeEviction(t *testing.T) {
	// Pool bounded to 8 txs, one shard so eviction pressure is exact.
	h := newHarness(t, 12, Config{Shards: 1, MaxTxs: 8})
	for i := 0; i < 8; i++ {
		if err := h.flow.Submit(h.tx(i, 11, 1, uint64(10+i), 0)); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	// A higher-fee tx evicts the cheapest (fee 10, sender 0).
	if err := h.flow.Submit(h.tx(8, 11, 1, 100, 0)); err != nil {
		t.Fatalf("evicting submit: %v", err)
	}
	if got := h.flow.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8 (bound held)", got)
	}
	txs := h.flow.Assemble(h.balances, 1<<20)
	for _, tx := range txs {
		if tx.Fee == 10 {
			t.Fatal("lowest-fee tx still pending after eviction")
		}
	}
	// A fee below everything pending is rejected outright.
	if err := h.flow.Submit(h.tx(9, 11, 1, 0, 0)); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("lowest-fee submit to full pool: %v, want ErrPoolFull", err)
	}
	s := h.flow.Stats()
	if s.Evicted != 1 || s.PoolFull != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestAssemblePriorityAndValidity(t *testing.T) {
	h := newHarness(t, 6, Config{})
	// Sender 0: a nonce run 0,1,2 at fee 5.
	for n := uint64(0); n < 3; n++ {
		if err := h.flow.Submit(h.tx(0, 5, 10, 5, n)); err != nil {
			t.Fatal(err)
		}
	}
	// Sender 1: fee 50 (should lead the block).
	if err := h.flow.Submit(h.tx(1, 5, 10, 50, 0)); err != nil {
		t.Fatal(err)
	}
	// Sender 2: a nonce gap — nonce 1 without nonce 0: must be skipped.
	if err := h.flow.Submit(h.tx(2, 5, 10, 80, 1)); err != nil {
		t.Fatal(err)
	}
	// Sender 3: insufficient funds for the amount.
	over := h.tx(3, 5, 2_000_000, 90, 0)
	if err := h.flow.Submit(over); err != nil {
		t.Fatal(err)
	}

	txs := h.flow.Assemble(h.balances, 1<<20)
	if len(txs) != 4 {
		t.Fatalf("assembled %d txs, want 4 (run of 3 + fee 50)", len(txs))
	}
	if txs[0].Fee != 50 {
		t.Fatalf("first tx fee %d, want 50 (highest fee first)", txs[0].Fee)
	}
	// The run must be in nonce order.
	var got []uint64
	for _, tx := range txs[1:] {
		if tx.From == h.ids[0].PublicKey() {
			got = append(got, tx.Nonce)
		}
	}
	if fmt.Sprint(got) != "[0 1 2]" {
		t.Fatalf("sender 0 nonces in block: %v, want [0 1 2]", got)
	}
	// Every assembled tx applies cleanly in order.
	check := h.balances.Clone()
	for i := range txs {
		if err := check.ApplyTx(&txs[i]); err != nil {
			t.Fatalf("assembled tx %d does not apply: %v", i, err)
		}
	}

	// Byte bound: with room for two transactions, exactly two come out.
	txs = h.flow.Assemble(h.balances, 2*ledger.TxWireSize+10)
	if len(txs) != 2 {
		t.Fatalf("assembled %d txs under 2-tx byte bound, want 2", len(txs))
	}
}

func TestAssembleDeterministic(t *testing.T) {
	build := func() []ledger.Transaction {
		h := newHarness(t, 8, Config{Shards: 4})
		for i := 0; i < 8; i++ {
			for n := uint64(0); n < 3; n++ {
				h.flow.Submit(h.tx(i, (i+1)%8, 1, uint64(i%3), n))
			}
		}
		return h.flow.Assemble(h.balances, 1<<20)
	}
	a, b := build(), build()
	if len(a) != len(b) || len(a) != 24 {
		t.Fatalf("assembled %d vs %d txs, want 24 both", len(a), len(b))
	}
	for i := range a {
		if a[i].ID() != b[i].ID() {
			t.Fatalf("assembly order diverges at %d", i)
		}
	}
}

func TestDrainOutboxBatchCap(t *testing.T) {
	h := newHarness(t, 10, Config{})
	for i := 0; i < 10; i++ {
		if err := h.flow.Submit(h.tx(i, (i+1)%10, 1, 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Cap of 3 transactions' worth: ceil(10/3) = 4 batches.
	batches := h.flow.DrainOutbox(3 * ledger.TxWireSize)
	if len(batches) != 4 {
		t.Fatalf("%d batches, want 4", len(batches))
	}
	total := 0
	for _, b := range batches {
		size := 0
		for i := range b {
			size += b[i].WireSize()
		}
		if size > 3*ledger.TxWireSize {
			t.Fatalf("batch of %d bytes exceeds cap", size)
		}
		total += len(b)
	}
	if total != 10 {
		t.Fatalf("%d txs drained, want 10", total)
	}
}

// TestConcurrentIngest is the race test the old pool could never pass:
// submitters, gossip ingest, assembly, commits, drains, and stats all
// run concurrently. Run under -race; correctness here is "no race, no
// panic, bounds hold".
func TestConcurrentIngest(t *testing.T) {
	h := newHarness(t, 16, Config{Shards: 4, MaxTxs: 256, RateLimit: 0})
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// 8 submitters, each its own sender.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := uint64(0); n < 200; n++ {
				h.flow.Submit(h.tx(w, 15, 1, n%7, n))
			}
		}(w)
	}
	// Gossip ingest of overlapping traffic (duplicates on purpose).
	for w := 8; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := uint64(0); n < 200; n++ {
				h.flow.IngestGossip(h.tx(w%10, 14, 1, 0, n))
			}
		}(w)
	}
	// Readers: assembly, drains, stats, commits.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			txs := h.flow.Assemble(h.balances, 64<<10)
			if len(txs) > 0 {
				blk := &ledger.Block{Round: 1, Txns: txs[:1]}
				bal := h.balances.Clone()
				bal.ApplyTx(&txs[0])
				h.flow.Committed(blk, bal)
			}
			h.flow.DrainOutbox(8 << 10)
			_ = h.flow.Stats().String()
		}
	}()

	wg.Wait()
	close(stop)
	<-readerDone

	if got := h.flow.Len(); got > 256 {
		t.Fatalf("pool bound violated: %d pending > 256", got)
	}
	if h.flow.Len() < 0 || h.flow.PendingBytes() < 0 {
		t.Fatalf("negative occupancy: %d txs %d bytes", h.flow.Len(), h.flow.PendingBytes())
	}
}

// TestWorkerPoolIngest drives batches through the async queue.
func TestWorkerPoolIngest(t *testing.T) {
	h := newHarness(t, 8, Config{})
	h.flow.Start(4)
	defer h.flow.Close()

	var batch []*ledger.Transaction
	for i := 0; i < 8; i++ {
		for n := uint64(0); n < 4; n++ {
			batch = append(batch, h.tx(i, (i+1)%8, 1, 0, n))
		}
	}
	if err := h.flow.EnqueueBatch(batch); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.flow.Len() < 32 {
		if time.Now().After(deadline) {
			t.Fatalf("worker pool admitted %d/32 txs", h.flow.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitBatchMixedResults(t *testing.T) {
	h := newHarness(t, 4, Config{})
	h.flow.Start(2)
	defer h.flow.Close()
	good := h.tx(0, 1, 5, 0, 0)
	bad := h.tx(1, 2, 5, 0, 0)
	bad.Sig[3] ^= 0xFF
	errs := h.flow.SubmitBatch([]*ledger.Transaction{good, bad, nil, good})
	if errs[0] != nil {
		t.Fatalf("good tx rejected: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrBadSig) {
		t.Fatalf("bad sig: %v", errs[1])
	}
	if !errors.Is(errs[2], ErrInvalid) {
		t.Fatalf("nil tx: %v", errs[2])
	}
	if !errors.Is(errs[3], ErrDuplicate) {
		t.Fatalf("duplicate: %v", errs[3])
	}
}

// TestSubmitBatchVerifiesEachSignatureOnce: under a running worker pool
// the batch's signatures are checked in parallel first, and the ordered
// pass reads those verdicts: a signature that passed is not checked
// again, one that failed is checked again and rejected in its place.
func TestSubmitBatchVerifiesEachSignatureOnce(t *testing.T) {
	const n, badAt = 24, 7
	h := newHarness(t, n, Config{})
	h.flow.Start(4)
	defer h.flow.Close()
	txs := make([]*ledger.Transaction, n)
	for i := range txs {
		txs[i] = h.tx(i, (i+1)%n, 1, 0, 0)
	}
	txs[badAt].Sig[5] ^= 0xff
	for i, err := range h.flow.SubmitBatch(txs) {
		switch {
		case i == badAt && !errors.Is(err, ErrBadSig):
			t.Errorf("payment %d (bad signature): %v, want ErrBadSig", i, err)
		case i != badAt && err != nil:
			t.Errorf("payment %d: %v", i, err)
		}
	}
	s := h.flow.Stats()
	if s.Verified != n-1 || s.Admitted != n-1 || s.BadSig != 1 {
		t.Fatalf("verified %d admitted %d bad-sig %d, want %d, %d, 1", s.Verified, s.Admitted, s.BadSig, n-1, n-1)
	}
	// Admission stayed ordered: the outbox holds the good ones in batch order.
	i := 0
	for _, b := range h.flow.DrainOutbox(1 << 20) {
		for _, tx := range b {
			if i == badAt {
				i++
			}
			if tx.From != txs[i].From {
				t.Fatalf("staged payment out of batch order at %d", i)
			}
			i++
		}
	}
}

// encodings maps the wire bytes of each payment to true.
func encodings(txs ...[]*ledger.Transaction) map[string]bool {
	set := make(map[string]bool)
	for _, b := range txs {
		for _, tx := range b {
			set[string(wire.Encode(tx))] = true
		}
	}
	return set
}

// TestPoolOwnsItsTransactions: what a submitter hands to Submit or
// SubmitBatch stays the submitter's. It may scribble over the fields and
// the signature bytes as soon as the call returns; the pool and the
// gossip stage hold the bytes that were admitted.
func TestPoolOwnsItsTransactions(t *testing.T) {
	h := newHarness(t, 6, Config{})
	txs := []*ledger.Transaction{h.tx(0, 1, 5, 1, 0), h.tx(2, 3, 7, 2, 0), h.tx(0, 1, 6, 1, 1), h.tx(4, 5, 9, 3, 0)}
	want := make([][]byte, len(txs))
	for i, tx := range txs {
		want[i] = wire.Encode(tx)
	}
	if err := h.flow.Submit(txs[0]); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i, err := range h.flow.SubmitBatch(txs[1:]) {
		if err != nil {
			t.Fatalf("SubmitBatch, payment %d: %v", i+1, err)
		}
	}
	for _, tx := range txs {
		tx.Amount, tx.Nonce, tx.To = 999, 77, crypto.PublicKey{1}
		for j := range tx.Sig {
			tx.Sig[j] ^= 0xff
		}
	}
	assembled := h.flow.Assemble(h.balances, 1<<20)
	ptrs := make([]*ledger.Transaction, len(assembled))
	for i := range assembled {
		ptrs[i] = &assembled[i]
	}
	pooled := encodings(ptrs)
	staged := encodings(h.flow.DrainOutbox(1 << 20)...)
	for i, enc := range want {
		if !pooled[string(enc)] {
			t.Errorf("payment %d: Assemble does not return the bytes that were admitted", i)
		}
		if !staged[string(enc)] {
			t.Errorf("payment %d: the gossip stage does not hold the bytes that were admitted", i)
		}
	}
	if len(pooled) != len(want) || len(staged) != len(want) {
		t.Fatalf("assembled %d and staged %d payments, admitted %d", len(pooled), len(staged), len(want))
	}
}

// TestGossipIsAdopted: a payment that arrives by gossip is one object
// from the decoder to the next hop. The pointer IngestGossip was given
// is the pointer DrainOutbox hands on, and a second pool fed that batch
// stages the same pointer again.
func TestGossipIsAdopted(t *testing.T) {
	h := newHarness(t, 4, Config{})
	txs := []*ledger.Transaction{h.tx(0, 1, 5, 1, 0), h.tx(2, 3, 7, 2, 0), h.tx(0, 1, 6, 1, 1)}
	for i, tx := range txs {
		if fresh, _ := h.flow.IngestGossip(tx); !fresh {
			t.Fatalf("payment %d not admitted", i)
		}
	}
	hop1 := h.flow.DrainOutbox(1 << 20)
	if len(hop1) != 1 || len(hop1[0]) != len(txs) {
		t.Fatalf("drained %v, want one batch of %d", hop1, len(txs))
	}
	next := New(h.provider, Config{})
	if err := next.EnqueueBatch(hop1[0]); err != nil {
		t.Fatal(err)
	}
	hop2 := next.DrainOutbox(1 << 20)
	if len(hop2) != 1 || len(hop2[0]) != len(txs) {
		t.Fatalf("second hop drained %v, want one batch of %d", hop2, len(txs))
	}
	for i, tx := range txs {
		if hop1[0][i] != tx || hop2[0][i] != tx {
			t.Errorf("payment %d: ingested %p, first hop hands on %p, second %p", i, tx, hop1[0][i], hop2[0][i])
		}
	}
}

// TestAllocBudgetVerifySig guards the signing bytes of a transaction:
// they are built on the verifier's stack, so checking a signature under
// the modeled provider allocates nothing.
func TestAllocBudgetVerifySig(t *testing.T) {
	h := newHarness(t, 2, Config{})
	tx := h.tx(0, 1, 5, 1, 0)
	if !tx.VerifySig(h.provider) {
		t.Fatal("valid signature rejected")
	}
	if n := testing.AllocsPerRun(200, func() { tx.VerifySig(h.provider) }); n != 0 {
		t.Errorf("Transaction.VerifySig: %v allocations, want 0", n)
	}
}

// TestAllocBudgetGossipIngest guards what a node pays to admit a payment
// it hears: the pool keeps the pointer it was given, so what is allocated
// is the sender's queue and the outbox growing by doubling — a few words
// a payment, amortised — and a duplicate allocates nothing.
func TestAllocBudgetGossipIngest(t *testing.T) {
	const users, each = 40, 25
	h := newHarness(t, users, Config{})
	txs := make([]*ledger.Transaction, 0, users*each)
	for nonce := uint64(0); nonce < each; nonce++ {
		for i := 0; i < users; i++ {
			txs = append(txs, h.tx(i, (i+1)%users, 1, 0, nonce))
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tx := range txs {
		h.flow.IngestGossip(tx)
	}
	runtime.ReadMemStats(&after)
	if got := h.flow.Len(); got != len(txs) {
		t.Fatalf("admitted %d of %d", got, len(txs))
	}
	if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(txs)); per > 64 {
		t.Errorf("a fresh gossiped payment: %.0f bytes allocated in the pool, want at most 64", per)
	}
	if n := testing.AllocsPerRun(200, func() { h.flow.IngestGossip(txs[0]) }); n != 0 {
		t.Errorf("a duplicate gossiped payment: %v allocations, want 0", n)
	}
}

// TestAllocBudgetDrainAndAssemble guards a payment's way out of the pool.
// DrainOutbox copies nothing: its batches are the staged slice, cut at
// the cap and each clipped to its length, and all a drain allocates is
// the list of them. Assemble makes the one copy, into a list sized by
// what is pending (or by the share of it the block has room for).
func TestAllocBudgetDrainAndAssemble(t *testing.T) {
	const users, each = 40, 25
	h := newHarness(t, users, Config{})
	for nonce := uint64(0); nonce < each; nonce++ {
		for i := 0; i < users; i++ {
			if err := h.flow.Submit(h.tx(i, (i+1)%users, 1, 0, nonce)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const k = users * each
	w := h.tx(0, 1, 1, 0, 0).WireSize()

	if txs := h.flow.Assemble(h.balances, 1<<20); len(txs) != k || cap(txs) != k {
		t.Errorf("all %d pending fit: assembled len %d cap %d", k, len(txs), cap(txs))
	}
	if txs := h.flow.Assemble(h.balances, k/4*w); len(txs) != k/4 || cap(txs) > k/4+1 {
		t.Errorf("room for %d of %d pending: assembled len %d cap %d", k/4, k, len(txs), cap(txs))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	batches := h.flow.DrainOutbox(k / 8 * w)
	runtime.ReadMemStats(&after)
	if len(batches) != 8 {
		t.Fatalf("%d batches, want 8", len(batches))
	}
	// The list of batches growing 1, 2, 4, 8: 15 slice headers.
	if n, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n > 4 || bytes > 15*24 {
		t.Errorf("DrainOutbox of %d payments in 8 batches: %d allocations of %d bytes, want the batch headers only", k, n, bytes)
	}
	for i, b := range batches {
		if len(b) != k/8 || cap(b) != len(b) {
			t.Errorf("batch %d: len %d cap %d; an append to it would write into the next", i, len(b), cap(b))
		}
	}
}
