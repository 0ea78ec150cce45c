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
