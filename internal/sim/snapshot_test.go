package sim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/node"
	"algorand/internal/vtime"
	"algorand/internal/wire"
)

// snapshotConfig is a deployment that checkpoints every `interval`
// rounds, with the seed-refresh interval pushed past the chain length
// so fast sync can verify checkpoint certificates from genesis context
// alone (see Config.CheckpointInterval).
func snapshotConfig(n int, rounds, interval uint64) Config {
	cfg := DefaultConfig(n, rounds)
	cfg.CheckpointInterval = interval
	cfg.LedgerCfg.SeedRefreshInterval = 1000
	return cfg
}

// snapshotBase returns the snapshot anchor round of a re-based ledger:
// the first round holding a block when round 1 does not (0 for a full
// genesis-rooted chain).
func snapshotBase(l *ledger.Ledger) uint64 {
	if l.ChainLength() == 0 {
		return 0
	}
	if _, ok := l.BlockAt(1); ok {
		return 0
	}
	for r := uint64(2); r <= l.ChainLength(); r++ {
		if _, ok := l.BlockAt(r); ok {
			return r
		}
	}
	return l.ChainLength()
}

// TestSnapshotFastSync is the fast-sync happy path: a node crashes
// diskless, and its replacement fetches the newest state checkpoint
// from a peer, verifies certificate and Merkle root against genesis
// committee context, re-bases, and replays only the delta — ending on
// exactly the ledger state a never-crashed node holds.
func TestSnapshotFastSync(t *testing.T) {
	const rounds = 8
	const victim = 3
	cfg := snapshotConfig(12, rounds+2, 4)
	c := NewCluster(cfg)

	var synced *node.Node
	c.Sim.Spawn("snapshot-sync-test", func(p *vtime.Proc) {
		for c.Nodes[victim].Ledger().ChainLength() < rounds {
			p.Sleep(200 * time.Millisecond)
		}
		c.CrashNode(victim)
		p.Sleep(2 * time.Second)
		synced, _, _ = c.RestartNodeFromStore(victim, nil, time.Hour) // lost its disk
		target := c.Nodes[0].Ledger().ChainLength()
		for c.Nodes[victim].Ledger().ChainLength() < target {
			p.Sleep(50 * time.Millisecond)
		}
	})
	c.Run()

	if synced == nil {
		t.Fatal("replacement never started")
	}
	if syncs(synced) != 1 {
		t.Fatalf("snapshot syncs = %d, want 1 (rejects %d)", syncs(synced), rejects(synced))
	}
	if rejects(synced) != 0 {
		t.Errorf("%d honest snapshots rejected", rejects(synced))
	}
	l := synced.Ledger()
	base := snapshotBase(l)
	if base == 0 {
		t.Fatal("replacement holds a genesis-rooted chain; the snapshot re-base never happened")
	}
	if base%cfg.CheckpointInterval != 0 {
		t.Errorf("re-based onto round %d, off the checkpoint grid", base)
	}
	// Identical chain and state versus a never-crashed node, over every
	// round both hold.
	ref := c.Nodes[0].Ledger()
	last := l.ChainLength()
	if refLen := ref.ChainLength(); refLen < last {
		last = refLen
	}
	if last < rounds {
		t.Fatalf("common chain only reaches round %d, want >= %d", last, rounds)
	}
	for r := base; r <= last; r++ {
		mine, ok1 := l.BlockAt(r)
		theirs, ok2 := ref.BlockAt(r)
		if !ok1 || !ok2 {
			t.Fatalf("round %d missing (synced %v, ref %v)", r, ok1, ok2)
		}
		if mine.Hash() != theirs.Hash() {
			t.Fatalf("round %d diverged after snapshot sync", r)
		}
	}
	b, _ := l.BlockAt(last)
	mineBal, ok1 := l.BalancesAt(b.Hash())
	refBal, ok2 := ref.BalancesAt(b.Hash())
	if !ok1 || !ok2 {
		t.Fatalf("state at round %d missing (synced %v, ref %v)", last, ok1, ok2)
	}
	if mineBal.Root() != refBal.Root() {
		t.Fatalf("state roots diverged at round %d", last)
	}
	t.Logf("snapshot sync: re-based onto round %d, chain %d, %d rounds replayed as delta",
		base, l.ChainLength(), l.ChainLength()-base)
}

// TestSnapshotPoisoningFallback pins the adversarial claim: a node
// whose every peer serves a tampered snapshot (account table inflated,
// so the Merkle commitment in the certified header no longer matches)
// rejects them all and falls back to full genesis replay — the poison
// delays the join but can neither corrupt nor wedge it.
func TestSnapshotPoisoningFallback(t *testing.T) {
	const rounds = 8
	const victim = 3
	cfg := snapshotConfig(12, rounds+2, 4)
	c := NewCluster(cfg)

	poisoned := 0
	for i := range c.Nodes {
		if i == victim {
			continue
		}
		i := i
		orig := c.Nodes[i]
		c.Net.SetHandler(i, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
			if _, ok := m.(*node.SnapshotRequest); ok {
				if chk, okC := orig.Checkpoint(); okC {
					evil := &ledger.Checkpoint{
						Block:    chk.Block,
						Cert:     chk.Cert,
						Accounts: append([]ledger.AccountRecord(nil), chk.Accounts...),
					}
					evil.Accounts[0].Money += 1 << 40
					poisoned++
					c.Net.Unicast(i, from, &node.SnapshotReply{Checkpoint: evil})
					return network.Verdict{}
				}
			}
			return orig.HandleMessage(from, m)
		}))
	}

	var synced *node.Node
	c.Sim.Spawn("snapshot-poison-test", func(p *vtime.Proc) {
		for c.Nodes[victim].Ledger().ChainLength() < rounds {
			p.Sleep(200 * time.Millisecond)
		}
		c.CrashNode(victim)
		p.Sleep(2 * time.Second)
		synced, _, _ = c.RestartNodeFromStore(victim, nil, time.Hour) // lost its disk
		target := c.Nodes[0].Ledger().ChainLength()
		for c.Nodes[victim].Ledger().ChainLength() < target {
			p.Sleep(50 * time.Millisecond)
		}
	})
	c.Run()

	if synced == nil {
		t.Fatal("replacement never started")
	}
	if poisoned == 0 {
		t.Fatal("no tampered snapshot was ever served; scenario premise broken")
	}
	if syncs(synced) != 0 {
		t.Fatalf("a tampered snapshot was adopted (%d syncs)", syncs(synced))
	}
	if rejects(synced) == 0 {
		t.Fatal("tampered snapshots were never rejected")
	}
	l := synced.Ledger()
	if base := snapshotBase(l); base != 0 {
		t.Fatalf("ledger re-based onto round %d despite poisoned snapshots", base)
	}
	// Fallback correctness: the full genesis replay converged onto the
	// honest chain.
	ref := c.Nodes[0].Ledger()
	if l.ChainLength() < rounds {
		t.Fatalf("fallback replay stuck at round %d, want >= %d", l.ChainLength(), rounds)
	}
	for r := uint64(1); r <= rounds; r++ {
		mine, ok1 := l.BlockAt(r)
		theirs, ok2 := ref.BlockAt(r)
		if !ok1 || !ok2 || mine.Hash() != theirs.Hash() {
			t.Fatalf("round %d diverged after fallback replay", r)
		}
	}
	t.Logf("poisoning: %d tampered snapshots served, %d rejected, fallback chain %d",
		poisoned, rejects(synced), l.ChainLength())
}

// TestColdRestartCheckpointByteIdentity pins the recovery equivalence
// the checkpoint design rests on: re-basing onto the on-disk
// checkpoint and replaying only the delta yields a ledger whose head
// and full account state are byte-identical (canonical checkpoint
// encoding) to replaying the whole archive from genesis.
func TestColdRestartCheckpointByteIdentity(t *testing.T) {
	const rounds = 8
	cfg := snapshotConfig(10, rounds, 4)
	cfg.DataDir = t.TempDir()
	c := NewCluster(cfg)
	c.Run()
	if got := c.Nodes[0].Ledger().ChainLength(); got < rounds {
		t.Fatalf("run only reached round %d", got)
	}
	if err := c.CloseArchives(); err != nil {
		t.Fatal(err)
	}
	ds, err := c.OpenArchiveOffline(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	chk, ok := ds.Checkpoint()
	if !ok {
		t.Fatal("cold recovery scan surfaced no checkpoint")
	}
	img := ds.Recovered()

	// Genesis replay of the full archive.
	full := ledger.New(c.Provider, cfg.LedgerCfg, c.Genesis, c.Seed0)
	replay := func(l *ledger.Ledger, from uint64) {
		t.Helper()
		for r := from; ; r++ {
			b, okB := img.Block(r)
			if !okB {
				return
			}
			cert, _ := img.Cert(r)
			if err := l.Commit(b, cert); err != nil {
				t.Fatalf("replaying round %d: %v", r, err)
			}
		}
	}
	replay(full, 1)

	// Checkpoint-first: re-base, then replay only the delta.
	fast, err := ledger.NewFromCheckpoint(c.Provider, cfg.LedgerCfg, ledger.NewGenesis(c.Genesis, c.Seed0), chk)
	if err != nil {
		t.Fatal(err)
	}
	replay(fast, chk.Round()+1)

	if fast.HeadHash() != full.HeadHash() {
		t.Fatalf("heads diverge: checkpoint path %x, genesis replay %x",
			fast.HeadHash(), full.HeadHash())
	}
	head, _ := full.BlockAt(full.ChainLength())
	cert, _ := img.Cert(full.ChainLength())
	fastState := wire.Encode(ledger.CheckpointOf(head, cert, fast.Balances()))
	fullState := wire.Encode(ledger.CheckpointOf(head, cert, full.Balances()))
	if !bytes.Equal(fastState, fullState) {
		t.Fatal("checkpoint-path state is not byte-identical to genesis replay")
	}
	t.Logf("byte-identity: checkpoint at round %d, head round %d, state %d bytes",
		chk.Round(), full.ChainLength(), len(fastState))
}

// TestColdRestartReplayBoundedByInterval is the sub-linear claim of
// checkpointed recovery on the program's own bring-up path: a durable
// node that crashes inside the first seed epoch and restarts from its
// data directory re-bases onto its newest checkpoint and replays only
// the certified rounds past it — fewer than CheckpointInterval, at a
// chain of 6 rounds as at one of 15 — and still ends on the network's
// chain. A round whose final step was still counting at the crash is on
// disk without its certificate: the replay stops before it, and peers
// serve it. (Past the first epoch the checkpoint is refused and the whole
// archive replayed: ROADMAP item 4.)
func TestColdRestartReplayBoundedByInterval(t *testing.T) {
	const interval, victim = 4, 3
	for _, crashAt := range []uint64{6, 15} {
		cfg := snapshotConfig(12, crashAt+2, interval)
		cfg.DataDir = t.TempDir()
		c := NewCluster(cfg)

		var repl *node.Node
		var atCrash, replayed uint64
		var err error
		c.Sim.Spawn("cold-restart-test", func(p *vtime.Proc) {
			for c.Nodes[victim].Ledger().ChainLength() < crashAt {
				p.Sleep(200 * time.Millisecond)
			}
			c.CrashNode(victim)
			atCrash = c.Nodes[victim].Ledger().ChainLength()
			if _, ok := c.Nodes[victim].Ledger().CertificateAt(atCrash); !ok {
				atCrash--
			}
			p.Sleep(2 * time.Second)
			repl, replayed, err = c.RestartNode(victim, time.Hour)
		})
		c.Run()
		if cerr := c.CloseArchives(); cerr != nil {
			t.Fatal(cerr)
		}

		if err != nil || repl == nil {
			t.Fatalf("crash at %d: restart: %v", crashAt, err)
		}
		if rejects(repl) != 0 {
			t.Fatalf("crash at %d: the node refused its own checkpoint", crashAt)
		}
		base := snapshotBase(repl.Ledger())
		if base == 0 || base%interval != 0 || base+interval <= atCrash {
			t.Fatalf("crash at %d: re-based onto round %d, want the newest point of the %d-round grid", atCrash, base, interval)
		}
		if replayed != atCrash-base || replayed >= interval {
			t.Fatalf("crash at %d: replayed %d rounds past checkpoint %d, want %d (fewer than the interval %d)",
				atCrash, replayed, base, atCrash-base, interval)
		}
		if err := c.AgreementCheck(); err != nil {
			t.Fatalf("crash at %d: %v", atCrash, err)
		}
		if got, want := repl.Ledger().ChainLength(), c.Nodes[0].Ledger().ChainLength(); got != want {
			t.Fatalf("crash at %d: replacement ended at round %d, the network at %d", atCrash, got, want)
		}
		t.Logf("chain %d: re-based onto %d, %d rounds replayed from disk", atCrash, base, replayed)
	}
}

// TestTentativeRoundIsNoCheckpoint pins that a checkpoint is only ever
// of a final round. With τ_final at 200 the final step needs more than
// 148 votes of W = 100, so no round of the run is final: no node may
// checkpoint one, and a replacement handed a checkpoint of a tentative
// round refuses it, counts the refusal and keeps its ledger as it was.
func TestTentativeRoundIsNoCheckpoint(t *testing.T) {
	cfg := snapshotConfig(10, 4, 2)
	cfg.Params.TauFinal = 200
	c := NewCluster(cfg)
	c.Run()

	l := c.Nodes[0].Ledger()
	if l.ChainLength() < 2 {
		t.Fatalf("run only reached round %d", l.ChainLength())
	}
	for i, n := range c.Nodes {
		if chk, ok := n.Checkpoint(); ok {
			t.Fatalf("node %d checkpointed round %d on a tentative certificate", i, chk.Round())
		}
	}
	b, _ := l.BlockAt(2)
	cert, _ := l.CertificateAt(2)
	bal, _ := l.BalancesAt(b.Hash())
	if cert == nil || cert.Final {
		t.Fatal("round 2 holds no tentative certificate; scenario premise broken")
	}

	repl, _, err := c.RestartNodeFromStore(5, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	head := repl.Ledger().HeadHash()
	adopted, err := repl.RestoreFromCheckpoint(ledger.CheckpointOf(b, cert, bal))
	if adopted || !errors.Is(err, node.ErrTentativeCheckpoint) {
		t.Fatalf("a tentative checkpoint was adopted (adopted %v, err %v)", adopted, err)
	}
	if got := rejects(repl); got != 1 {
		t.Errorf("refusal counted %d times, want 1", got)
	}
	if repl.Ledger().HeadHash() != head {
		t.Error("the refused checkpoint moved the ledger")
	}
}

// syncs and rejects read a node's fast-sync and refused-checkpoint counts.
func syncs(n *node.Node) int {
	return int(n.Metrics().Snapshot()["algorand_node_snapshot_syncs_total"].Value)
}

func rejects(n *node.Node) int {
	return int(n.Metrics().Snapshot()["algorand_node_snapshot_rejects_total"].Value)
}
