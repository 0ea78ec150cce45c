package main

import (
	"fmt"
	"runtime"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/node"
	"algorand/internal/params"
	"algorand/internal/sim"
	"algorand/internal/vtime"
)

// revalidate re-checks a whole chain from genesis the way a new user
// would (§8.3): every certificate against its round's committee, every
// block against the evolving state.
func revalidate(p crypto.Provider, prm params.Params, cfg ledger.Config, genesis map[crypto.PublicKey]uint64,
	seed0 crypto.Digest, l *ledger.Ledger) error {
	var blocks []*ledger.Block
	var certs []*ledger.Certificate
	for rd := uint64(1); rd <= l.ChainLength(); rd++ {
		b, ok := l.BlockAt(rd)
		if !ok {
			return fmt.Errorf("no block at round %d", rd)
		}
		cert, ok := l.Certificate(b.Hash())
		if !ok {
			return fmt.Errorf("no certificate at round %d", rd)
		}
		blocks, certs = append(blocks, b), append(certs, cert)
	}
	fresh, err := ledger.CatchUp(p, cfg, genesis, seed0, blocks, certs, node.CommitteeParamsFor(prm))
	if err != nil {
		return err
	}
	if fresh.HeadHash() != l.HeadHash() {
		return fmt.Errorf("re-validated head %v differs from the live head %v", fresh.HeadHash(), l.HeadHash())
	}
	return nil
}

// sameChain checks that an archive's recovered image holds exactly the
// live chain's blocks.
func sameChain(img *ledger.Store, live *ledger.Ledger) error {
	for rd := uint64(1); rd <= live.ChainLength(); rd++ {
		want, _ := live.BlockAt(rd)
		got, ok := img.Block(rd)
		if !ok {
			return fmt.Errorf("round %d missing on disk", rd)
		}
		if got.Hash() != want.Hash() {
			return fmt.Errorf("round %d on disk is %v, live chain has %v", rd, got.Hash(), want.Hash())
		}
	}
	return nil
}

// gateSim is the correctness gate of a simulated run: agreement at
// every round, one head on all nodes (a rejoined victim included),
// node 0's chain re-validated from genesis, and every archive there is
// re-opened offline and compared with the live chain.
func gateSim(c *sim.Cluster) error {
	if err := c.AgreementCheck(); err != nil {
		return err
	}
	l0 := c.Nodes[0].Ledger()
	for i, n := range c.Nodes {
		if n.Ledger().HeadHash() != l0.HeadHash() {
			return fmt.Errorf("node %d head %v (round %d) differs from node 0's %v (round %d)",
				i, n.Ledger().HeadHash(), n.Ledger().ChainLength(), l0.HeadHash(), l0.ChainLength())
		}
	}
	if err := revalidate(c.Provider, c.Cfg.Params, c.Cfg.LedgerCfg, c.Genesis, c.Seed0, l0); err != nil {
		return fmt.Errorf("re-validating node 0's chain: %w", err)
	}
	for i := range c.Nodes {
		if c.Archive(i) == nil {
			continue
		}
		ds, err := c.OpenArchiveOffline(i)
		if err != nil {
			return fmt.Errorf("re-opening node %d's archive: %w", i, err)
		}
		err = sameChain(ds.Recovered(), l0)
		ds.Close()
		if err != nil {
			return fmt.Errorf("node %d's archive: %w", i, err)
		}
	}
	return nil
}

// offline is the transport of a node that only restores from disk.
type offline struct{}

func (offline) Gossip(int, network.Message)       {}
func (offline) Unicast(int, int, network.Message) {}
func (offline) SetHandler(int, network.Handler)   {}
func (offline) Neighbors(int) []int               { return nil }

// restoreReps is how many cold restores a pass makes: the timing is a
// per-layer metric, so only the traced pass repeats them; the other
// restores once, for the check that the archive leads back to the live
// head.
func restoreReps(k int, traced bool) int {
	if !traced {
		return 1
	}
	return k
}

// coldRestores times offline restores of the victim's archive through
// the program's own restart path: open (recovery scan), re-base onto the
// newest checkpoint if it verifies, replay the rest with every
// certificate re-checked. It keeps restoring for coldRestoreBudget, at
// least five and at most k times. Each restore must end on wantHead.
func coldRestores(k int, c *sim.Cluster, wantHead crypto.Digest, spans *spanLog, parent int, workload string) ([]time.Duration, error) {
	id := c.Provider.NewIdentity(crypto.SeedFromUint64(0))
	cfg := node.Config{Params: c.Cfg.Params, LedgerCfg: c.Cfg.LedgerCfg}
	var took []time.Duration
	// Start from a collected heap, so the run's garbage is not collected
	// on the restores' time.
	runtime.GC()
	begin := time.Now()
	for rep := 0; rep < k && (rep < 5 || time.Since(begin) < coldRestoreBudget); rep++ {
		sp := spans.begin(parent, "cold-restore", ref(workload, rep, 0))
		start := time.Now()
		ds, err := c.OpenArchiveOffline(victim)
		if err != nil {
			return nil, err
		}
		n := node.New(victim, vtime.New(), offline{}, c.Provider, id, cfg, c.Genesis, c.Seed0)
		if chk, ok := ds.Checkpoint(); ok {
			// A checkpoint that fails verification leaves the ledger at
			// genesis and the replay below covers the whole chain.
			_, _ = n.RestoreFromCheckpoint(chk)
		}
		_, err = n.RestoreFromArchive(ds.Recovered())
		took = append(took, time.Since(start))
		spans.end(sp)
		ds.Close()
		if err != nil {
			return nil, err
		}
		if got := n.Ledger().HeadHash(); got != wantHead {
			return nil, fmt.Errorf("restored head %v (round %d), live head %v", got, n.Ledger().ChainLength(), wantHead)
		}
	}
	return took, nil
}
