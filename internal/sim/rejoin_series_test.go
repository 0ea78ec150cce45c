package sim

import (
	"slices"
	"testing"
	"time"

	"algorand/internal/network"
	"algorand/internal/node"
	"algorand/internal/vtime"
)

// TestRejoinSeries restarts a node from its own disk and reads its
// bring-up off its registry alone: the stages it passed through (own
// archive, then peer chain, then live) and its chain and snapshot
// requests by outcome, which must add up to the requests its peers
// received from it.
func TestRejoinSeries(t *testing.T) {
	cfg := churnConfig(8, 14)
	cfg.DataDir = t.TempDir()
	const victim = 3
	c := NewCluster(cfg)
	defer c.CloseArchives()

	asks := 0
	for i := range c.Nodes {
		if i == victim {
			continue
		}
		peer := c.Nodes[i]
		c.Net.SetHandler(i, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
			switch m.(type) {
			case *node.ChainRequest, *node.SnapshotRequest:
				if from == victim {
					asks++
				}
			}
			return peer.HandleMessage(from, m)
		}))
	}

	var stages []float64
	c.Sim.Spawn("rejoin-series", func(p *vtime.Proc) {
		for c.Nodes[victim].Ledger().ChainLength() < 3 {
			p.Sleep(100 * time.Millisecond)
		}
		c.CrashNode(victim)
		for c.Nodes[0].Ledger().ChainLength() < 5 {
			p.Sleep(100 * time.Millisecond)
		}
		// A budget shorter than the run: with a round every few seconds
		// and a wait of two a silent peer, a rejoin with an hour would
		// sync to the last round and never go live.
		n, _, err := c.RestartNode(victim, 5*time.Second)
		if err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		for {
			s := n.Metrics().Snapshot()["algorand_node_catchup_stage"].Value
			if len(stages) == 0 || stages[len(stages)-1] != s {
				stages = append(stages, s)
			}
			if n.Done() {
				return
			}
			p.Sleep(10 * time.Millisecond)
		}
	})
	c.Run()

	const ownArchive, peerChain, live = 2, 4, 5
	if len(stages) < 3 || !slices.Equal(stages[:3], []float64{ownArchive, peerChain, live}) {
		t.Errorf("stages %v, want own archive (2), peer chain (4), live (5) first", stages)
	}
	reg := c.Registry(victim).Snapshot()
	var outcomes float64
	for _, o := range []string{"answered", "timed_out", "late"} {
		outcomes += reg[`algorand_node_catchup_requests_total{outcome="`+o+`"}`].Value
	}
	if asks == 0 || outcomes != float64(asks) {
		t.Errorf("requests by outcome add up to %v, the peers received %d", outcomes, asks)
	}
	if reg[`algorand_node_catchup_reply_bytes_total{applied="true"}`].Value == 0 {
		t.Error("no reply bytes moved the head")
	}
	if got := c.Nodes[victim].Ledger().ChainLength(); got < cfg.Rounds {
		t.Errorf("victim at round %d of %d", got, cfg.Rounds)
	}
}

// TestRejoinDoesNotFloodPeers restarts a node fourteen rounds of 1 MB
// blocks behind the network (crash-rejoin's committees, stakes and gap,
// in fewer rounds) and checks what its catch-up costs. A chain ask that
// asks for more than its wait can carry is re-sent to the next peer while
// the first is still sending, so the node is sent replies that apply
// nothing, and its peers' uplinks, which also carry their votes and block
// pieces, stall their own rounds. So: the restarted node's reply bytes
// that moved nothing are at most a tenth of those that moved its head,
// and no live node's round that overlaps the catch-up takes more than 1.5
// times the run's median.
func TestRejoinDoesNotFloodPeers(t *testing.T) {
	const n, rounds, crashAt, restartAt, victim = 16, 20, 3, 17, 3
	cfg := DefaultConfig(n, rounds)
	cfg.Params.TauProposer, cfg.Params.TauStep, cfg.Params.TauFinal = 8, 200, 400
	cfg.Params.BlockSize = 1 << 20
	cfg.Weights = make([]uint64, n)
	for i := range cfg.Weights {
		cfg.Weights[i] = 1 << 20
	}
	cfg.Weights[victim] = 1 << 10
	c := NewCluster(cfg)

	var restarted, caughtUp time.Duration
	c.Sim.Spawn("rejoin-flood", func(p *vtime.Proc) {
		for c.Nodes[victim].Ledger().ChainLength() < crashAt {
			p.Sleep(20 * time.Millisecond)
		}
		c.CrashNode(victim)
		for c.Nodes[0].Ledger().ChainLength() < restartAt {
			p.Sleep(20 * time.Millisecond)
		}
		restarted = p.Now()
		v, _, err := c.RestartNode(victim, 2*time.Minute)
		if err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		for v.Ledger().ChainLength() < restartAt && !v.Done() {
			p.Sleep(20 * time.Millisecond)
		}
		caughtUp = p.Now()
	})
	c.Run()

	reg := c.Registry(victim).Snapshot()
	used := reg[`algorand_node_catchup_reply_bytes_total{applied="true"}`].Value
	idle := reg[`algorand_node_catchup_reply_bytes_total{applied="false"}`].Value
	if used == 0 || idle > used/10 {
		t.Errorf("reply bytes: %.0f applied nothing against %.0f that moved the head, want at most a tenth", idle, used)
	}
	var took []time.Duration
	for i, nd := range c.Nodes {
		if i != victim {
			for _, st := range nd.Stats {
				took = append(took, st.End-st.Start)
			}
		}
	}
	slices.Sort(took)
	median := took[len(took)/2]
	for i, nd := range c.Nodes {
		if i == victim {
			continue
		}
		for _, st := range nd.Stats {
			if st.End > restarted && st.Start < caughtUp && st.End-st.Start > median*3/2 {
				t.Errorf("node %d's round %d took %v while node %d caught up (%v to %v), more than 1.5 × the median %v",
					i, st.Round, st.End-st.Start, victim, restarted, caughtUp, median)
			}
		}
	}
	t.Logf("catch-up %v to %v; reply bytes %.0f applied, %.0f not; median round %v", restarted, caughtUp, used, idle, median)
}
