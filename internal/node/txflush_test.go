package node

import (
	"runtime"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/params"
	"algorand/internal/vtime"
	"algorand/internal/wire"
)

func TestTxFlushPeriodFollowsLambdaPriority(t *testing.T) {
	for _, c := range []struct{ lambdaPriority, want time.Duration }{
		{5 * time.Second, 250 * time.Millisecond}, // the paper's, and every simulated workload's
		{time.Second, 250 * time.Millisecond},     // chaos, churn and the node tests
		{150 * time.Millisecond, 37500 * time.Microsecond},
		{0, time.Millisecond}, // never a zero sleep in a loop
	} {
		if got := txFlushPeriod(params.Params{LambdaPriority: c.lambdaPriority}); got != c.want {
			t.Errorf("λ_priority %v: flush period %v, want %v", c.lambdaPriority, got, c.want)
		}
	}
}

// gossipLog is a Transport that notes when each TxBatch left the node.
type gossipLog struct {
	Transport
	sim     *vtime.Sim
	batches []time.Duration
	txns    int
}

func (g *gossipLog) Gossip(origin int, m network.Message) {
	if b, ok := m.(*TxBatch); ok {
		g.batches = append(g.batches, g.sim.Now())
		g.txns += len(b.Txns)
	}
	g.Transport.Gossip(origin, m)
}

// TestPaymentGossipedWithinQuarterLambdaPriority: at λ_priority = 100 ms a
// payment admitted at any moment is on its way to the neighbours 25 ms
// later at most. With the period fixed at 250 ms it waited for a timer
// longer than the whole proposal phase of the round it arrived in.
func TestPaymentGossipedWithinQuarterLambdaPriority(t *testing.T) {
	sim := vtime.New()
	provider := crypto.NewFast()
	ids := []crypto.Identity{provider.NewIdentity(crypto.SeedFromUint64(1)), provider.NewIdentity(crypto.SeedFromUint64(2))}
	genesis := map[crypto.PublicKey]uint64{ids[0].PublicKey(): 100, ids[1].PublicKey(): 100}
	prm := params.Default()
	prm.LambdaPriority = 100 * time.Millisecond
	log := &gossipLog{Transport: network.New(sim, network.DefaultConfig(), 2), sim: sim}
	n := New(0, sim, log, provider, ids[0], Config{Params: prm, LedgerCfg: ledger.DefaultConfig()}, genesis, crypto.HashBytes("g"))
	// Everything a running node has except rounds: the flush process is
	// what is under test.
	n.launch("idle", func(p *vtime.Proc) { p.Sleep(time.Hour) })

	admitted := []time.Duration{3 * time.Millisecond, 131 * time.Millisecond, 777 * time.Millisecond}
	for i, at := range admitted {
		tx := &ledger.Transaction{From: ids[0].PublicKey(), To: ids[1].PublicKey(), Amount: 1, Nonce: uint64(i)}
		tx.Sign(ids[0])
		sim.After(at, func() {
			if err := n.SubmitTx(tx); err != nil {
				t.Errorf("submit at %v: %v", sim.Now(), err)
			}
		})
	}
	sim.Run(time.Second)

	if len(log.batches) != len(admitted) || log.txns != len(admitted) {
		t.Fatalf("%d batches carrying %d payments left, want %d of one each", len(log.batches), log.txns, len(admitted))
	}
	for i, at := range admitted {
		if wait := log.batches[i] - at; wait < 0 || wait > prm.LambdaPriority/4 {
			t.Errorf("payment admitted at %v left at %v: waited %v, more than λ_priority/4 = %v",
				at, log.batches[i], wait, prm.LambdaPriority/4)
		}
	}
}

// TestDuplicateBatchPinsNothing: a pending payment keeps itself
// reachable, never the batch it arrived in. A peer can wrap one fresh
// payment in a near-cap batch of payments the node already holds; were
// the batch one array the pool pointed into, that one admission would
// hold ~77 KB for as long as it waits, against the 176 bytes the pool's
// MaxBytes accounts for.
func TestDuplicateBatchPinsNothing(t *testing.T) {
	const duplicates = 700
	rig := newHandlerRig(t, 3)
	held := &ledger.Transaction{From: rig.ids[1].PublicKey(), To: rig.ids[0].PublicKey(), Amount: 1}
	held.Sign(rig.ids[1])
	fresh := &ledger.Transaction{From: rig.ids[2].PublicKey(), To: rig.ids[0].PublicKey(), Amount: 1}
	fresh.Sign(rig.ids[2])
	if err := rig.node.SubmitTx(held); err != nil {
		t.Fatal(err)
	}
	hostile := &TxBatch{}
	for i := 0; i < duplicates; i++ {
		if i == duplicates/2 {
			hostile.Txns = append(hostile.Txns, fresh)
		}
		hostile.Txns = append(hostile.Txns, held)
	}
	frame := wire.Encode(hostile)
	if len(frame) > MaxTxBatchBytes {
		t.Fatalf("test batch of %d bytes is over the cap", len(frame))
	}
	hostile = nil

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	msg := new(TxBatch)
	if err := wire.Decode(frame, msg); err != nil {
		t.Fatal(err)
	}
	rig.node.handleTxBatch(msg, crypto.CostModel{})
	msg = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(frame)

	if s := rig.node.TxFlow().Stats(); s.Admitted != 2 || s.Duplicate != duplicates {
		t.Fatalf("admitted %d, duplicate %d; want 2 and %d", s.Admitted, s.Duplicate, duplicates)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 16<<10 {
		t.Errorf("one fresh payment among %d duplicates left %d bytes reachable, want under 16 KB", duplicates, grew)
	}
}
