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

func TestVerifiedCacheSkipsReverification(t *testing.T) {
	h := newHarness(t, 2, Config{VerifiedTTL: time.Minute})
	tx := h.tx(0, 1, 5, 0, 0)
	if fresh, sig := h.flow.IngestGossip(tx); !fresh || !sig {
		t.Fatalf("first ingest: fresh=%v sigChecked=%v", fresh, sig)
	}
	// A relayed copy: rejected as duplicate without a verification.
	if fresh, sig := h.flow.IngestGossip(tx); fresh || sig {
		t.Fatalf("relayed copy: fresh=%v sigChecked=%v, want false/false", fresh, sig)
	}
	// Commit it, then replay: stale, still no re-verification.
	blk := &ledger.Block{Round: 1, Txns: []ledger.Transaction{*tx}}
	h.balances.ApplyTx(tx)
	h.flow.Committed(blk, h.balances)
	if fresh, sig := h.flow.IngestGossip(tx); fresh || sig {
		t.Fatalf("replayed after commit: fresh=%v sigChecked=%v", fresh, sig)
	}
	s := h.flow.Stats()
	if s.Verified != 1 {
		t.Fatalf("verified %d signatures, want exactly 1", s.Verified)
	}
	// After 2×TTL the cache forgets; a replay (still stale) is rejected
	// before verification anyway.
	h.advance(3 * time.Minute)
	if fresh, sig := h.flow.IngestGossip(tx); fresh || sig {
		t.Fatalf("stale replay after TTL: fresh=%v sigChecked=%v", fresh, sig)
	}
}

// TestCorruptSigCannotRideCache pins the cache key down to the
// signature bytes: a transaction whose signed core was verified
// earlier (and then evicted from the pool) must not smuggle a
// corrupted signature past verification via the digest cache —
// tx.ID() covers only the signed prefix.
func TestCorruptSigCannotRideCache(t *testing.T) {
	h := newHarness(t, 4, Config{Shards: 1, MaxTxs: 2, VerifiedTTL: time.Minute})
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
	// Same signed core, corrupted signature. The verified cache still
	// remembers the core's digest — admission must re-verify and reject.
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

	var batch []ledger.Transaction
	for i := 0; i < 8; i++ {
		for n := uint64(0); n < 4; n++ {
			batch = append(batch, *h.tx(i, (i+1)%8, 1, 0, n))
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

// TestPoolOwnsItsTransactions: what the pool admits it copies. A gossip
// batch is one array the network layer decoded, and a pending payment
// that pointed into it kept the whole array alive — and showed whatever
// the array's owner wrote there next.
func TestPoolOwnsItsTransactions(t *testing.T) {
	h := newHarness(t, 4, Config{})
	batch := []ledger.Transaction{*h.tx(0, 1, 5, 1, 0), *h.tx(2, 3, 7, 2, 0), *h.tx(0, 1, 6, 1, 1)}
	want := make([][]byte, len(batch))
	for i := range batch {
		want[i] = wire.Encode(&batch[i])
		if fresh, _ := h.flow.IngestGossip(&batch[i]); !fresh {
			t.Fatalf("payment %d not admitted", i)
		}
	}
	// The batch's owner reuses its memory: fields and signature bytes.
	for i := range batch {
		batch[i].Amount, batch[i].Nonce, batch[i].To = 999, 77, crypto.PublicKey{1}
		for j := range batch[i].Sig {
			batch[i].Sig[j] ^= 0xff
		}
	}
	pooled := make(map[string]bool)
	for _, tx := range h.flow.Assemble(h.balances, 1<<20) {
		tx := tx
		pooled[string(wire.Encode(&tx))] = true
	}
	staged := make(map[string]bool)
	for _, b := range h.flow.DrainOutbox(1 << 20) {
		for i := range b {
			staged[string(wire.Encode(&b[i]))] = true
		}
	}
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

// TestAllocBudgetDrainAndAssemble guards the one copy a payment gets on
// its way out of the pool: DrainOutbox cuts its batches out of one array
// sized by what was staged, and Assemble sizes its list by what is
// pending (or by the share of it the block has room for). Both used to
// grow their output from nil, a payment at a time.
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
	// The array, and the list of batches growing 1, 2, 4, 8.
	if n := after.Mallocs - before.Mallocs; n > 5 {
		t.Errorf("DrainOutbox of %d payments in 8 batches: %d allocations, want at most 5", k, n)
	}
	for i, b := range batches {
		if len(b) != k/8 || cap(b) != len(b) {
			t.Errorf("batch %d: len %d cap %d; an append to it would write into the next", i, len(b), cap(b))
		}
	}
}
