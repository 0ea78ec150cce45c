package sim

import (
	"fmt"
	"testing"
	"time"

	"algorand/internal/ledger"
	"algorand/internal/vtime"
)

// TestRestartRecoveryTiming measures, in virtual time, how long a
// restarted node takes to rejoin the network — recovering its chain
// from the on-disk archive versus rebuilding from genesis via peer
// catch-up — at a few chain lengths. The durability table in
// EXPERIMENTS.md is this test's -v output; the assertions only pin the
// qualitative claim (disk recovery restores the chain locally, genesis
// catch-up fetches every round).
func TestRestartRecoveryTiming(t *testing.T) {
	for _, rounds := range []uint64{4, 8, 16} {
		rounds := rounds
		t.Run(fmt.Sprintf("rounds=%d", rounds), func(t *testing.T) {
			diskRestored, diskRejoin := measureRejoin(t, rounds, true)
			genRestored, genRejoin := measureRejoin(t, rounds, false)
			if diskRestored == 0 {
				t.Error("disk recovery restored nothing")
			}
			if genRestored != 0 {
				t.Errorf("genesis restart claims %d rounds restored from an empty store", genRestored)
			}
			t.Logf("chain=%d: disk restored %d rounds, rejoined in %v; genesis restored 0, rejoined in %v",
				rounds, diskRestored, diskRejoin, genRejoin)
		})
	}
}

// measureRejoin runs a durable cluster until the victim's chain reaches
// `rounds`, crashes it, restarts it two virtual seconds later — from
// its data dir or from an empty store — and returns how many rounds the
// restart restored locally plus the virtual time from restart until the
// victim caught back up to the network head observed at restart.
func measureRejoin(t *testing.T, rounds uint64, fromDisk bool) (restored uint64, rejoin time.Duration) {
	t.Helper()
	cfg := DefaultConfig(12, rounds+2)
	cfg.DataDir = t.TempDir()
	const victim = 3
	c := NewCluster(cfg)
	defer c.CloseArchives()

	var restartAt, rejoinedAt time.Duration
	c.Sim.Spawn("recovery-timing", func(p *vtime.Proc) {
		for c.Nodes[victim].Ledger().ChainLength() < rounds {
			p.Sleep(200 * time.Millisecond)
		}
		c.CrashNode(victim)
		p.Sleep(2 * time.Second)
		restartAt = c.Sim.Now()
		var err error
		if fromDisk {
			_, restored, err = c.RestartNode(victim, time.Hour)
		} else {
			_, restored, err = c.RestartNodeFromStore(victim, ledger.NewStore(), time.Hour)
		}
		if err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		target := c.Nodes[0].Ledger().ChainLength()
		for c.Nodes[victim].Ledger().ChainLength() < target {
			p.Sleep(50 * time.Millisecond)
		}
		rejoinedAt = c.Sim.Now()
	})
	c.Run()

	if rejoinedAt == 0 {
		t.Fatalf("victim never rejoined (restart at %v)", restartAt)
	}
	return restored, rejoinedAt - restartAt
}
