package experiments

import (
	"fmt"
	"time"

	"algorand/internal/gateway"
	"algorand/internal/sim"
)

// GatewayReport is the access-tier scaling experiment: a sustained
// payment stream plus a large read-only query population, every byte
// of it entering through a handful of gateway nodes instead of touching
// the consensus cluster, against a direct-submission baseline in which
// the same stream goes straight to the consensus nodes. The access tier
// earns its keep if the committed throughput stays within a few percent
// of the baseline while consensus nodes serve zero client sessions.
type GatewayReport struct {
	Users      int
	Gateways   int
	Rounds     uint64
	OfferedTPS float64
	Elapsed    time.Duration // virtual

	// ClientSessions is every session the access tier served
	// (submissions and read-only queries). ConsensusClientSessions is
	// computed, not asserted: workload submissions that no gateway's
	// edge admission accounts for.
	ClientSessions          int64
	QuerySessionsPerSec     int
	ConsensusClientSessions int64

	CommittedTxs  int
	MBytesPerHour float64

	// The direct-submission baseline and the gateway run's share of it.
	BaselineMBytesPerHour float64
	ThroughputRatio       float64

	// Load-driver retry behaviour: duplicates come from deliberate
	// retries, not from a driver ignoring typed rejects.
	Workload sim.WorkloadStats
	// Per-gateway books at the end of the run. Pending/PendingBytes are
	// the bounded-memory evidence: the mempool drains as commits land.
	GatewayStats []gateway.Stats
}

// GatewayClientScale runs the access-tier experiment: scale.users(50)
// consensus nodes, offeredTPS signed payments per virtual second and
// querySessionsPerSec simulated read-only client sessions, once with
// clients talking straight to the consensus nodes (no queries: they
// have no read model to ask) and once with four gateways in front. The
// two clusters share seed and stake and differ in nothing else.
func GatewayClientScale(scale Scale, offeredTPS float64, querySessionsPerSec int) GatewayReport {
	n := scale.users(50)
	rounds := scale.Rounds + 3 // past the first rounds, so the pipeline is in steady state
	run := func(gateways int) (c *sim.Cluster, mbPerHour float64) {
		cfg := sim.DefaultConfig(n, rounds)
		cfg.Seed = 9
		cfg.WeightEach = 1 << 20 // fund the whole stream
		cfg.Gateways = gateways
		c = sim.NewCluster(cfg)
		if gateways == 0 {
			c.Workload(offeredTPS, cfg.Seed)
		} else {
			c.GatewayWorkload(offeredTPS, cfg.Seed)
			c.QueryWorkload(float64(querySessionsPerSec), cfg.Seed+1)
		}
		elapsed := c.Run()
		if err := c.AgreementCheck(); err != nil {
			panic(fmt.Sprintf("experiments: agreement violated with %d gateways: %v", gateways, err))
		}
		return c, float64(c.CommittedPayloadBytes(rounds)) / (1 << 20) / elapsed.Hours()
	}
	_, baseline := run(0)
	c, mbPerHour := run(4)

	ws := c.WorkloadStats()
	rep := GatewayReport{
		Users:                 n,
		Gateways:              c.NumGateways(),
		Rounds:                rounds,
		OfferedTPS:            offeredTPS,
		Elapsed:               c.Sim.Now(),
		QuerySessionsPerSec:   querySessionsPerSec,
		CommittedTxs:          c.CommittedTxCount(rounds),
		MBytesPerHour:         mbPerHour,
		BaselineMBytesPerHour: baseline,
		ThroughputRatio:       mbPerHour / baseline,
		Workload:              ws,
	}
	// Every workload submission must be accounted for at a gateway
	// edge; anything unaccounted for would have been a client session
	// on a consensus node.
	rep.ConsensusClientSessions = ws.Submitted
	for i := 0; i < c.NumGateways(); i++ {
		st := c.Gateway(i).Stats()
		rep.ClientSessions += st.Sessions
		rep.ConsensusClientSessions -= st.Submitted
		rep.GatewayStats = append(rep.GatewayStats, st)
	}
	return rep
}
