package experiments

import (
	"os"
	"time"

	"algorand/internal/metrics"
	"algorand/internal/node"
	"algorand/internal/sim"
	"algorand/internal/vtime"
)

// RejoinReading is one seed of the rejoin experiment, read off the
// restarted node's registry: its bring-up stages as they changed, its
// catch-up series when the run ended, and the rounds it ran live.
type RejoinReading struct {
	Seed      int64
	RestartAt time.Duration // when the victim came back
	Held      uint64        // rounds its own disk held
	Stages    []StageChange // every stage the victim entered, in order
	Rounds    []node.RoundStat
	Ended     time.Duration    // when the victim's process ended
	Series    metrics.Snapshot // the victim's catch-up series at the end
	Err       error
}

// StageChange is the victim entering a bring-up stage, with the
// algorand_node_catchup_stage_entered_seconds it reported.
type StageChange struct {
	Stage   int
	Entered float64
}

// rejoinVictim is the node the rejoin schedule takes down and brings back.
const rejoinVictim = 3

// Rejoin runs crash-rejoin's schedule, copied from the benchmark's
// workload of that name (bench/spec.go and bench/simwork.go): 16 users
// with 1 MB blocks, τ_proposer 8, τ_step 200 and τ_final 400, every node
// keeping an archive and a checkpoint every 8 rounds; the victim holds a
// token stake (2^10 against 2^20), is crashed once its chain reaches
// round 20, and restarts from its own disk with a two-minute budget when
// node 0's chain reaches round 34; every node stops at round 38. The
// benchmark's payment stream is left out: blocks are padded to 1 MB with
// or without it.
func Rejoin(seeds []int64) []RejoinReading {
	out := make([]RejoinReading, len(seeds))
	for i, seed := range seeds {
		out[i] = rejoinOnce(seed)
	}
	return out
}

func rejoinOnce(seed int64) RejoinReading {
	const n, rounds, crashAt, restartAt = 16, 38, 20, 34
	r := RejoinReading{Seed: seed}
	dir, err := os.MkdirTemp("", "rejoin-")
	if err != nil {
		r.Err = err
		return r
	}
	defer os.RemoveAll(dir)
	cfg := sim.DefaultConfig(n, rounds)
	cfg.Params.TauProposer, cfg.Params.TauStep, cfg.Params.TauFinal = 8, 200, 400
	cfg.Params.BlockSize = 1 << 20
	cfg.Seed = seed
	cfg.Weights = make([]uint64, n)
	for i := range cfg.Weights {
		cfg.Weights[i] = 1 << 20
	}
	cfg.Weights[rejoinVictim] = 1 << 10
	cfg.CheckpointInterval = 8
	cfg.DataDir = dir
	c := sim.NewCluster(cfg)
	defer c.CloseArchives()

	c.Sim.Spawn("rejoin-script", func(p *vtime.Proc) {
		for c.Nodes[rejoinVictim].Ledger().ChainLength() < crashAt {
			p.Sleep(20 * time.Millisecond)
		}
		c.CrashNode(rejoinVictim)
		for c.Nodes[0].Ledger().ChainLength() < restartAt {
			p.Sleep(20 * time.Millisecond)
		}
		r.RestartAt = p.Now()
		v, held, err := c.RestartNode(rejoinVictim, 2*time.Minute)
		if r.Held, r.Err = held, err; err != nil {
			return
		}
		stage := c.Registry(rejoinVictim).Gauge("algorand_node_catchup_stage", "")
		for last := int64(-1); ; p.Sleep(10 * time.Millisecond) {
			if s := stage.Load(); s != last {
				last = s
				entered := v.Metrics().Snapshot()["algorand_node_catchup_stage_entered_seconds"].Value
				r.Stages = append(r.Stages, StageChange{Stage: int(s), Entered: entered})
			}
			if v.Done() {
				r.Ended = p.Now()
				return
			}
		}
	})
	c.Run()
	v := c.Nodes[rejoinVictim]
	r.Rounds = v.Stats
	r.Series = v.CatchupSeries()
	return r
}
