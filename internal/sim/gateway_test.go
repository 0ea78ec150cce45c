package sim

import (
	"testing"
	"time"

	"algorand/internal/gateway"
	"algorand/internal/vtime"
)

// TestGatewayTierFollowsChain is the basic access-tier scenario: a
// consensus cluster plus two gateways, all client load entering
// through the gateways. Consensus nodes see zero client submissions;
// the gateways' read models follow the committed chain via
// CommitAnnounce quorums; routed transactions commit.
func TestGatewayTierFollowsChain(t *testing.T) {
	cfg := DefaultConfig(20, 6)
	cfg.WeightEach = 1 << 16
	cfg.Gateways = 2
	cfg.GatewayCfg = gateway.Config{
		FlushInterval:  100 * time.Millisecond,
		ResendInterval: 5 * time.Second,
	}
	c := NewCluster(cfg)
	c.GatewayWorkload(40, 7)
	c.Run()

	if err := c.AgreementCheck(); err != nil {
		t.Fatalf("agreement: %v", err)
	}
	committed := c.CommittedTxCount(cfg.Rounds)
	if committed == 0 {
		t.Fatal("no gateway-routed transactions committed")
	}
	ws := c.WorkloadStats()
	if ws.Admitted == 0 {
		t.Fatal("workload admitted nothing")
	}
	t.Logf("workload: %+v, committed %d", ws, committed)
	for i := 0; i < c.NumGateways(); i++ {
		st := c.Gateway(i).Stats()
		t.Logf("gateway %d: head=%d applied=%d announces=%d routed=%d pending=%d",
			i, st.HeadRound, st.BlocksApplied, st.Announces, st.TxsRouted, st.Pending)
		if st.HeadRound+2 < cfg.Rounds {
			t.Errorf("gateway %d read model stalled at round %d of %d", i, st.HeadRound, cfg.Rounds)
		}
		if st.Announces == 0 {
			t.Errorf("gateway %d heard no commit announces", i)
		}
		if i == 0 && st.Admitted == 0 {
			t.Errorf("gateway %d admitted nothing", i)
		}
		// Bounded state: the mempool drains as blocks commit.
		if st.Pending > int(st.Admitted) {
			t.Errorf("gateway %d pending %d exceeds admitted %d", i, st.Pending, st.Admitted)
		}
	}
}

// TestGatewayPartitionRecovery isolates one gateway mid-run: clients
// keep submitting to it (admission still works), nothing routes out,
// and after the heal the gateway must gap-fill its read model and
// re-send its still-pending transactions so they commit.
func TestGatewayPartitionRecovery(t *testing.T) {
	const n = 20
	cfg := DefaultConfig(n, 10)
	cfg.WeightEach = 1 << 16
	cfg.Gateways = 2
	cfg.GatewayCfg = gateway.Config{
		FlushInterval:  100 * time.Millisecond,
		ResendInterval: 3 * time.Second,
	}
	c := NewCluster(cfg)
	c.GatewayWorkload(40, 11)

	// Cut gateway 0 (network id n) off from everyone for a window long
	// enough to span complete rounds, then heal.
	gwID := n
	c.Sim.Spawn("partitioner", func(p *vtime.Proc) {
		p.Sleep(20 * time.Second)
		c.Net.AddPartition(func(from, to int) bool {
			return from == gwID || to == gwID
		})
		p.Sleep(60 * time.Second)
		c.Net.SetPartition(nil)
	})
	c.Run()

	if err := c.AgreementCheck(); err != nil {
		t.Fatalf("agreement: %v", err)
	}
	st := c.Gateway(0).Stats()
	t.Logf("partitioned gateway: head=%d applied=%d chainFills=%d resent=%d pending=%d",
		st.HeadRound, st.BlocksApplied, st.ChainFills, st.Resent, st.Pending)
	if st.HeadRound+3 < cfg.Rounds {
		t.Errorf("partitioned gateway stalled at round %d of %d after heal", st.HeadRound, cfg.Rounds)
	}
	if st.Resent == 0 {
		t.Error("no pending transactions were re-sent after the partition")
	}
	if committed := c.CommittedTxCount(cfg.Rounds); committed == 0 {
		t.Error("nothing committed")
	}
	if err := c.AgreementCheck(); err != nil {
		t.Fatalf("agreement after heal: %v", err)
	}
}

// TestGatewayCrashDoesNotTouchConsensus halts a gateway outright; the
// consensus cluster and the surviving gateway must be unaffected.
func TestGatewayCrashDoesNotTouchConsensus(t *testing.T) {
	cfg := DefaultConfig(16, 6)
	cfg.WeightEach = 1 << 16
	cfg.Gateways = 2
	cfg.GatewayCfg = gateway.Config{FlushInterval: 100 * time.Millisecond}
	c := NewCluster(cfg)
	c.GatewayWorkload(30, 13)
	c.Sim.Spawn("gateway-killer", func(p *vtime.Proc) {
		p.Sleep(15 * time.Second)
		c.Gateway(1).Halt()
	})
	c.Run()

	if err := c.AgreementCheck(); err != nil {
		t.Fatalf("agreement: %v", err)
	}
	final, _ := c.FinalityRate()
	if final == 0 {
		t.Error("no final rounds with a crashed gateway")
	}
	st := c.Gateway(0).Stats()
	if st.HeadRound+2 < cfg.Rounds {
		t.Errorf("surviving gateway stalled at round %d of %d", st.HeadRound, cfg.Rounds)
	}
}

// TestGatewayTierCarriesAllClientTraffic pins what the access tier is
// for, on one deterministic pair of runs that differ only in whether
// clients talk to gateways or straight to consensus nodes: every
// submission the load driver made is on some gateway's books (none was
// a client session on a consensus node), the read-only population got
// its sessions at the configured rate for as long as the cluster ran,
// and putting the tier in front cost under a tenth of the committed
// transactions. cmd/experiments -run gateway is the same pair at scale.
func TestGatewayTierCarriesAllClientTraffic(t *testing.T) {
	const txRate, queryRate, gateways = 60.0, 2000.0, 2
	run := func(gws int) *Cluster {
		cfg := DefaultConfig(20, 5)
		cfg.Seed = 9
		cfg.WeightEach = 1 << 20
		cfg.Gateways = gws
		c := NewCluster(cfg)
		if gws == 0 {
			c.Workload(txRate, cfg.Seed)
		} else {
			c.GatewayWorkload(txRate, cfg.Seed)
			c.QueryWorkload(queryRate, cfg.Seed+1)
		}
		c.Run()
		if err := c.AgreementCheck(); err != nil {
			t.Fatalf("agreement with %d gateways: %v", gws, err)
		}
		return c
	}
	direct, c := run(0), run(gateways)

	var submitted, sessions, querySessions int64
	for i := 0; i < c.NumGateways(); i++ {
		st := c.Gateway(i).Stats()
		submitted += st.Submitted
		sessions += st.Sessions
		querySessions += st.Queries / 2 // a session asks for the head and one balance
	}
	ws := c.WorkloadStats()
	if ws.Submitted == 0 || submitted != ws.Submitted {
		t.Errorf("load driver made %d submissions, gateways account for %d: the rest were client sessions on consensus nodes",
			ws.Submitted, submitted)
	}
	if sessions != submitted+querySessions {
		t.Errorf("%d sessions served, want %d submissions + %d query sessions", sessions, submitted, querySessions)
	}

	// The query drivers tick every 10 ms until the last consensus node
	// finishes its rounds, so they are at most one tick short of rate ×
	// time (and one session a gateway for the fractional carry).
	var doneAt time.Duration
	for _, nd := range c.Nodes {
		if end := nd.Stats[len(nd.Stats)-1].End; end > doneAt {
			doneAt = end
		}
	}
	want := queryRate * doneAt.Seconds()
	if got := float64(querySessions); got > want || got < want-queryRate*0.010-gateways {
		t.Errorf("%d query sessions over %v, want %.0f/s × that = %.0f", querySessions, doneAt, queryRate, want)
	}

	through, base := c.CommittedTxCount(c.Cfg.Rounds), direct.CommittedTxCount(direct.Cfg.Rounds)
	if base == 0 || float64(through) < 0.9*float64(base) {
		t.Errorf("%d transactions committed through gateways, %d submitted directly: under 0.9×", through, base)
	}
	t.Logf("submissions %d, query sessions %d over %v, committed %d via gateways vs %d direct",
		submitted, querySessions, doneAt, through, base)
}
