package txflow

import (
	"fmt"
	"testing"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
)

// benchTxs pre-signs n transactions from distinct senders with the
// given provider.
func benchTxs(b *testing.B, provider crypto.Provider, senders, perSender int) []*ledger.Transaction {
	b.Helper()
	txs := make([]*ledger.Transaction, 0, senders*perSender)
	for s := 0; s < senders; s++ {
		id := provider.NewIdentity(crypto.SeedFromUint64(uint64(s)))
		for n := 0; n < perSender; n++ {
			tx := &ledger.Transaction{
				From:   id.PublicKey(),
				To:     crypto.PublicKey{1},
				Amount: 1,
				Fee:    uint64(s % 17),
				Nonce:  uint64(n),
			}
			tx.Sign(id)
			txs = append(txs, tx)
		}
	}
	return txs
}

// BenchmarkSubmitVerify measures the full admission path — admission
// checks, one real Ed25519 verification, sharded insert — per
// transaction, single-goroutine.
func BenchmarkSubmitVerify(b *testing.B) {
	provider := crypto.NewReal()
	txs := benchTxs(b, provider, 64, (b.N+63)/64+1)
	f := New(provider, Config{MaxTxs: b.N + 64, MaxPerSender: b.N + 1})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := f.Submit(txs[i]); err != nil {
			b.Fatalf("submit %d: %v", i, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tx/s")
}

// BenchmarkSubmitVerifyParallel is the same path with GOMAXPROCS
// submitters — the number the RPC front door sees under concurrent
// clients.
func BenchmarkSubmitVerifyParallel(b *testing.B) {
	provider := crypto.NewReal()
	f := New(provider, Config{MaxTxs: b.N + 1024, MaxPerSender: b.N + 1})
	var workerSeq atomic32
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		w := workerSeq.next()
		id := provider.NewIdentity(crypto.SeedFromUint64(uint64(1000 + w)))
		nonce := uint64(0)
		for pb.Next() {
			tx := &ledger.Transaction{
				From: id.PublicKey(), To: crypto.PublicKey{1},
				Amount: 1, Nonce: nonce,
			}
			tx.Sign(id)
			if err := f.Submit(tx); err != nil {
				b.Fatalf("submit: %v", err)
			}
			nonce++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tx/s")
}

type atomic32 struct{ v chan int }

func (a *atomic32) next() int {
	if a.v == nil {
		a.v = make(chan int, 1)
		a.v <- 0
	}
	n := <-a.v
	a.v <- n + 1
	return n
}

// BenchmarkDuplicateRedelivery measures re-delivery of a pending
// transaction: it ends in precheck, far cheaper than a verification.
func BenchmarkDuplicateRedelivery(b *testing.B) {
	provider := crypto.NewReal()
	f := New(provider, Config{})
	txs := benchTxs(b, provider, 1, 1)
	f.Submit(txs[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.IngestGossip(txs[0]) // duplicate: rejected pre-verification
	}
}

// BenchmarkAssemble measures block assembly from a loaded pool at
// paper scale: pools of 2k/8k/32k pending transactions drained into a
// 1 MB block (Params.Default().BlockSize).
func BenchmarkAssemble(b *testing.B) {
	for _, pending := range []int{2048, 8192, 32768} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			provider := crypto.NewFast()
			senders := 256
			txs := benchTxs(b, provider, senders, pending/senders)
			f := New(provider, Config{MaxTxs: pending * 2, MaxPerSender: pending})
			initial := make(map[crypto.PublicKey]uint64)
			for _, tx := range txs {
				initial[tx.From] = 1 << 30
			}
			for _, tx := range txs {
				if err := f.Submit(tx); err != nil {
					b.Fatal(err)
				}
			}
			balances := ledger.NewBalances(initial)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := f.Assemble(balances, 1<<20)
				if len(out) == 0 {
					b.Fatal("assembled empty block from loaded pool")
				}
			}
		})
	}
}
