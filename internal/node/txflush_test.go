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
		{5 * time.Second, 100 * time.Millisecond}, // the paper's, and every simulated workload's
		{time.Second, 100 * time.Millisecond},     // chaos, churn and the node tests
		{400 * time.Millisecond, 100 * time.Millisecond},
		{250 * time.Millisecond, 62500 * time.Microsecond}, // cmd/algorand-node's default
		{150 * time.Millisecond, 37500 * time.Microsecond}, // realnet-loopback's
		{0, time.Millisecond},                              // never a zero sleep in a loop
	} {
		if got := TxFlushPeriod(params.Params{LambdaPriority: c.lambdaPriority}); got != c.want {
			t.Errorf("λ_priority %v: flush period %v, want %v", c.lambdaPriority, got, c.want)
		}
	}
}

// gossipLog is a Transport that notes when each payment left the node in
// a TxBatch.
type gossipLog struct {
	Transport
	sim  *vtime.Sim
	left []time.Duration
}

func (g *gossipLog) Gossip(origin int, m network.Message) {
	if b, ok := m.(*TxBatch); ok {
		for range b.Txns {
			g.left = append(g.left, g.sim.Now())
		}
	}
	g.Transport.Gossip(origin, m)
}

// launchIdle starts a node at the given λ_priority with everything a
// running node has except rounds: its flush timer is what is under test.
// submit has the node admit one payment at a given virtual time.
func launchIdle(t *testing.T, lambdaPriority time.Duration) (sim *vtime.Sim, n *Node, log *gossipLog, prm params.Params, submit func(at time.Duration)) {
	sim = vtime.New()
	provider := crypto.NewFast()
	ids := []crypto.Identity{provider.NewIdentity(crypto.SeedFromUint64(1)), provider.NewIdentity(crypto.SeedFromUint64(2))}
	genesis := map[crypto.PublicKey]uint64{ids[0].PublicKey(): 100, ids[1].PublicKey(): 100}
	prm = params.Default()
	prm.LambdaPriority = lambdaPriority
	log = &gossipLog{Transport: network.New(sim, network.DefaultConfig(), 2), sim: sim}
	n = New(0, sim, log, provider, ids[0], Config{Params: prm, LedgerCfg: ledger.DefaultConfig()}, genesis, crypto.HashBytes("g"))
	n.launch("idle", func(p *vtime.Proc) { p.Sleep(time.Hour) })
	var nonce uint64
	submit = func(at time.Duration) {
		tx := &ledger.Transaction{From: ids[0].PublicKey(), To: ids[1].PublicKey(), Amount: 1, Nonce: nonce}
		tx.Sign(ids[0])
		nonce++
		sim.After(at, func() {
			if err := n.SubmitTx(tx); err != nil {
				t.Errorf("submit at %v: %v", sim.Now(), err)
			}
		})
	}
	return sim, n, log, prm, submit
}

// TestPaymentGossipedWithinQuarterLambdaPriority: at λ_priority = 100 ms a
// payment admitted at any moment is on its way to the neighbours 25 ms
// later at most. With the period fixed at 250 ms it waited for a timer
// longer than the whole proposal phase of the round it arrived in.
func TestPaymentGossipedWithinQuarterLambdaPriority(t *testing.T) {
	sim, _, log, prm, submit := launchIdle(t, 100*time.Millisecond)
	checkLeftWithin(t, sim, log, submit, prm.LambdaPriority/4)
}

// TestPaymentLeavesWithinOneHop: at λ_priority = 1 s, the chaos, churn and
// node tests' value, the quarter is 250 ms, but a payment admitted at any
// moment is on its way to the neighbours 100 ms later at most — about one
// wide-area hop, so a relay's timer adds no more to a hop than the wire.
// With the cap at 250 ms the payment admitted at 3 ms waited 247 ms.
func TestPaymentLeavesWithinOneHop(t *testing.T) {
	sim, _, log, _, submit := launchIdle(t, time.Second)
	checkLeftWithin(t, sim, log, submit, 100*time.Millisecond)
}

// checkLeftWithin admits a payment at 3, 131 and 777 ms and checks that
// each left in a TxBatch no later than bound after it arrived.
func checkLeftWithin(t *testing.T, sim *vtime.Sim, log *gossipLog, submit func(at time.Duration), bound time.Duration) {
	t.Helper()
	admitted := []time.Duration{3 * time.Millisecond, 131 * time.Millisecond, 777 * time.Millisecond}
	for _, at := range admitted {
		submit(at)
	}
	sim.Run(time.Second)

	if len(log.left) != len(admitted) {
		t.Fatalf("%d payments left, want %d", len(log.left), len(admitted))
	}
	for i, at := range admitted {
		if wait := log.left[i] - at; wait < 0 || wait > bound {
			t.Errorf("payment admitted at %v left at %v: waited %v, more than %v", at, log.left[i], wait, bound)
		}
	}
}

// TestHaltedNodeStopsFlushing: the flush timer winds down with the node. A
// payment admitted just before a crash is still in the outbox at the next
// tick; that tick sends nothing and arms no other.
func TestHaltedNodeStopsFlushing(t *testing.T) {
	sim, n, log, prm, submit := launchIdle(t, 100*time.Millisecond)
	period := TxFlushPeriod(prm)
	submit(period / 2)     // leaves at the first tick
	submit(3 * period / 2) // admitted, then the node halts before the second tick
	sim.After(7*period/4, n.Halt)
	var quiet uint64
	sim.After(10*period, func() { quiet = sim.EventCount })
	sim.Run(time.Second)

	if len(log.left) != 1 || log.left[0] != period {
		t.Fatalf("payments left at %v, want one at the first tick (%v) and none after the halt", log.left, period)
	}
	if sim.EventCount != quiet {
		t.Fatalf("%d events ran after the halted node's last tick", sim.EventCount-quiet)
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
