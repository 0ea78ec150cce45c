package realnet

import (
	"net"
	"testing"
	"time"

	"algorand/internal/realnet/netfault"
)

// waitChain polls node i's chain length (through its scheduler, so the
// read is race-free) until it reaches target or the timeout passes.
func (c *realCluster) waitChain(i int, target uint64, timeout time.Duration) uint64 {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		got := c.chainLen(i)
		if got >= target || time.Now().After(deadline) {
			return got
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// chainLen reads node i's chain length in scheduler context (or
// directly once its scheduler has stopped).
func (c *realCluster) chainLen(i int) uint64 {
	reply := make(chan uint64, 1)
	c.sims[i].Inject(func() { reply <- c.nodes[i].Ledger().ChainLength() })
	select {
	case v := <-reply:
		return v
	case <-c.done[i]:
		// Scheduler stopped: nothing else touches the ledger now.
		return c.nodes[i].Ledger().ChainLength()
	}
}

// TestRealTCPCrashRestart is internal/node/restart_test.go over real
// sockets (§8.3): one node of a 5-node TCP cluster is killed mid-round,
// restarted on the same address from its surviving archive, and must
// reconnect, catch up, and finish the run with everyone else.
func TestRealTCPCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	const n = 5
	const rounds = 6
	const victim = 4
	c := newRealCluster(t, n, rounds)
	c.startAll(240 * time.Second)

	// Crash once the victim has certified a couple of rounds.
	if got := c.waitChain(victim, 2, 120*time.Second); got < 2 {
		t.Fatalf("victim reached only %d rounds before crash window", got)
	}
	c.crash(victim)
	chainAtCrash := c.nodes[victim].Ledger().ChainLength()
	if chainAtCrash >= rounds {
		t.Fatal("crash happened after the run finished; test premise broken")
	}

	// The survivors' supervisors are now redialing a dead address.
	time.Sleep(500 * time.Millisecond)

	restartAt := time.Now()
	c.restart(victim, 120*time.Second, 240*time.Second)
	c.waitAll()
	recovered := c.nodes[victim].Ledger().ChainLength()
	t.Logf("crash at %d rounds; reconnect-to-recovery: %v to reach %d rounds",
		chainAtCrash, time.Since(restartAt).Round(time.Millisecond), recovered)

	c.checkAgreement(n)

	// Supervision is what got us here: at least one survivor must have
	// observed the outage (failed dials) and re-established (redials).
	var fails, redials uint64
	for i := 0; i < n; i++ {
		if i == victim {
			continue
		}
		for _, ps := range c.transports[i].Stats().Peers {
			if ps.Peer == victim {
				fails += ps.ConnectFails
				redials += ps.Redials
			}
		}
	}
	if fails == 0 && redials == 0 {
		t.Fatal("no survivor recorded dial failures or redials toward the crashed peer")
	}
}

// TestSelfHealingUnderFaults is the acceptance scenario: a 5-node
// realnet cluster runs with scripted connection resets, write stalls,
// and partial writes injected on both dial and accept paths, plus one
// full peer crash/restart — and still certifies >= 10 consecutive
// rounds, race-clean. Every resilience path (redial with backoff,
// requeue-on-failure, write deadlines, torn-frame reaping) is exercised
// deterministically by the netfault scripts.
func TestSelfHealingUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP fault-injection test")
	}
	const n = 5
	const rounds = 12 // >= 10 consecutive certified rounds
	const victim = 3
	c := newRealCluster(t, n, rounds)

	// Outbound: every connection a node dials gets a fault script chosen
	// by its ordinal — a reset (it ends the connection, so a script needs
	// no second one), a stall (long enough to be felt, short of the write
	// deadline) and then a reset, or a partial write that tears a frame
	// mid-stream.
	c.cfg = func(i int) settings {
		cfg := testConfig()
		cfg.Seed = int64(i + 1)
		cfg.queueCap = 512
		cfg.dial = netfault.WrapDial(nil, func(ord int) netfault.Script {
			switch ord % 3 {
			case 0:
				return netfault.Script{{After: 32 << 10, Act: netfault.Reset}}
			case 1:
				return netfault.Script{
					{After: 16 << 10, Act: netfault.Stall, Dur: 150 * time.Millisecond},
					{After: 64 << 10, Act: netfault.Reset},
				}
			default:
				return netfault.Script{{After: 24 << 10, Act: netfault.PartialWrite}}
			}
		})
		return cfg
	}
	// Inbound: every fourth accepted connection is reset after 40 KiB.
	c.wrapListener = func(i int, ln net.Listener) net.Listener {
		return netfault.WrapListener(ln, func(ord int) netfault.Script {
			if ord%4 == 3 {
				return netfault.Script{{After: 40 << 10, Act: netfault.Reset}}
			}
			return nil
		})
	}

	c.startAll(600 * time.Second)

	// Let the cluster certify a few rounds under fire, then kill and
	// resurrect one node.
	if got := c.waitChain(victim, 3, 240*time.Second); got < 3 {
		t.Fatalf("cluster reached only %d rounds under faults", got)
	}
	c.crash(victim)
	time.Sleep(500 * time.Millisecond)
	restartAt := time.Now()
	c.restart(victim, 240*time.Second, 600*time.Second)
	c.waitAll()
	t.Logf("reconnect-to-recovery under faults: %v (victim at %d rounds)",
		time.Since(restartAt).Round(time.Millisecond), c.nodes[victim].Ledger().ChainLength())

	c.checkAgreement(n)

	// The run must actually have healed through faults, not dodged them.
	var redials, drops uint64
	for i := 0; i < n; i++ {
		for _, ps := range c.transports[i].Stats().Peers {
			redials += ps.Redials
			drops += ps.QueueDrops
		}
	}
	if redials == 0 {
		t.Fatal("no redials recorded: fault injection did not bite")
	}
	t.Logf("healing stats: %d redials, %d queue drops across the cluster", redials, drops)
}
