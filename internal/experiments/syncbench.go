package experiments

import (
	"fmt"
	"os"
	"time"

	"algorand/internal/ledger"
	"algorand/internal/sim"
)

// SyncPoint is one chain length of the fast-sync experiment: the
// wall-clock cost of rebuilding a node's ledger from genesis replay
// versus re-basing onto the newest on-disk checkpoint and replaying
// only the delta.
type SyncPoint struct {
	ChainLength     uint64  `json:"chain_length"`
	CheckpointRound uint64  `json:"checkpoint_round"`
	DeltaRounds     uint64  `json:"delta_rounds"`
	FullReplayMs    float64 `json:"full_replay_ms"`
	SnapshotSyncMs  float64 `json:"snapshot_sync_ms"`
	// Speedup = full replay time / snapshot-sync time.
	Speedup float64 `json:"speedup"`
	// HeadsEqual pins the correctness half of the claim: both paths
	// must end on the identical head block hash.
	HeadsEqual bool `json:"heads_equal"`
}

// SyncReport is the §8.3 recovery-cost experiment behind
// BENCH_sync.json: full genesis replay is O(chain) while
// checkpoint+delta recovery is O(delta) — the snapshot-sync column
// must stay flat as the chain grows.
type SyncReport struct {
	Users              int         `json:"users"`
	CheckpointInterval uint64      `json:"checkpoint_interval"`
	Points             []SyncPoint `json:"points"`
	// SubLinear is the acceptance gate: at the longest chain measured,
	// snapshot sync must cost well under half of full replay.
	SubLinear bool `json:"sub_linear"`
}

// SyncFastRestart measures cold-restart cost at several chain lengths.
// For each length it runs a durable cluster that checkpoints on the
// configured grid, then rebuilds node 0's state twice from the cold
// archive image: once by committing every block from genesis, once by
// verifying the newest checkpoint (Merkle root against the certified
// header — the disk is trusted no more than a peer), re-basing, and
// committing only the rounds past it. Both rebuilds replay real
// certificate-checked commits; only the starting point differs, which
// is exactly the O(chain) vs O(delta) claim.
func SyncFastRestart(scale Scale, lengths []uint64, interval uint64, seed int64) SyncReport {
	n := scale.users(20)
	rep := SyncReport{Users: n, CheckpointInterval: interval}
	for _, L := range lengths {
		cfg := sim.DefaultConfig(n, L)
		cfg.Seed = seed + int64(L) + 13
		cfg.CheckpointInterval = interval
		// Fast sync verifies checkpoint certificates from genesis
		// committee context, so the whole chain must sit inside the
		// first seed epoch (see node.VerifyCheckpoint).
		cfg.LedgerCfg.SeedRefreshInterval = 4 * L
		dir, err := os.MkdirTemp("", "syncbench")
		if err != nil {
			panic(fmt.Sprintf("experiments: temp dir: %v", err))
		}
		cfg.DataDir = dir
		c := sim.NewCluster(cfg)
		c.Run()
		if err := c.AgreementCheck(); err != nil {
			panic(fmt.Sprintf("experiments: agreement violated at %d rounds: %v", L, err))
		}
		if err := c.CloseArchives(); err != nil {
			panic(fmt.Sprintf("experiments: closing archives: %v", err))
		}
		ds, err := c.OpenArchiveOffline(0)
		if err != nil {
			panic(fmt.Sprintf("experiments: cold re-open: %v", err))
		}
		img := ds.Recovered()
		chk, ok := ds.Checkpoint()
		if !ok {
			panic(fmt.Sprintf("experiments: no checkpoint on disk after %d rounds", L))
		}

		replay := func(l *ledger.Ledger, from uint64) {
			for r := from; ; r++ {
				b, okB := img.Block(r)
				if !okB {
					return
				}
				cert, _ := img.Cert(r)
				if err := l.Commit(b, cert); err != nil {
					panic(fmt.Sprintf("experiments: replaying round %d: %v", r, err))
				}
			}
		}

		start := time.Now()
		full := ledger.New(c.Provider, cfg.LedgerCfg, c.Genesis, c.Seed0)
		replay(full, 1)
		fullDur := time.Since(start)

		start = time.Now()
		if _, err := chk.VerifyState(); err != nil {
			panic(fmt.Sprintf("experiments: checkpoint failed verification: %v", err))
		}
		fast, err := ledger.NewFromCheckpoint(c.Provider, cfg.LedgerCfg, ledger.NewGenesis(c.Genesis, c.Seed0), chk)
		if err != nil {
			panic(fmt.Sprintf("experiments: re-base failed: %v", err))
		}
		replay(fast, chk.Round()+1)
		fastDur := time.Since(start)

		ds.Close()
		os.RemoveAll(dir)

		p := SyncPoint{
			ChainLength:     full.ChainLength(),
			CheckpointRound: chk.Round(),
			DeltaRounds:     full.ChainLength() - chk.Round(),
			FullReplayMs:    float64(fullDur) / float64(time.Millisecond),
			SnapshotSyncMs:  float64(fastDur) / float64(time.Millisecond),
			HeadsEqual:      fast.HeadHash() == full.HeadHash(),
		}
		if fastDur > 0 {
			p.Speedup = float64(fullDur) / float64(fastDur)
		}
		if !p.HeadsEqual {
			panic(fmt.Sprintf("experiments: snapshot sync diverged from genesis replay at %d rounds", L))
		}
		rep.Points = append(rep.Points, p)
	}
	if len(rep.Points) > 0 {
		last := rep.Points[len(rep.Points)-1]
		rep.SubLinear = last.SnapshotSyncMs < last.FullReplayMs/2
	}
	return rep
}

// DefaultSyncLengths are the chain lengths of the BENCH_sync.json
// sweep; the acceptance criterion demands the ≥64 point.
func DefaultSyncLengths() []uint64 { return []uint64{16, 64, 256} }
