package realnet

import (
	"testing"
	"time"

	"algorand/internal/ledger/diskstore"
)

// TestRealTCPColdJoinViaPeerSnapshot is the bring-up cmd/algorand-node
// performs for a late node with an empty -data-dir, over real sockets:
// four nodes that write checkpoints run past one, a fifth with an empty
// archive comes up through Rejoin, and must fast-sync — re-base onto a
// peer's verified checkpoint, replay only the delta, end on the common
// head.
func TestRealTCPColdJoinViaPeerSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	const n = 5
	const rounds = 6
	const interval = 2
	const joiner = 4
	c := newRealCluster(t, n, rounds)
	c.nodeCfg.CheckpointInterval = interval
	c.joinLater(joiner)
	c.startAll(240 * time.Second)
	if got := c.waitChain(0, interval+1, 120*time.Second); got < interval+1 {
		t.Fatalf("network reached only %d rounds, no checkpoint to serve", got)
	}

	ds, err := diskstore.Open(t.TempDir(), diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	c.nodeCfg.Archive = ds
	c.restartFrom(joiner, ds.Recovered(), time.Minute, 240*time.Second)
	c.waitAll()

	nd := c.nodes[joiner]
	if nd.SnapshotSyncs != 1 || nd.SnapshotRejects != 0 {
		t.Fatalf("SnapshotSyncs = %d, SnapshotRejects = %d, want 1 and 0", nd.SnapshotSyncs, nd.SnapshotRejects)
	}
	l, ref := nd.Ledger(), c.nodes[0].Ledger()
	base := uint64(1)
	for ; base <= l.ChainLength(); base++ {
		if _, ok := l.BlockAt(base); ok {
			break
		}
	}
	if base == 1 || base%interval != 0 {
		t.Fatalf("joiner's chain starts at round %d: not re-based onto a checkpoint of the grid", base)
	}
	for i := 0; i < n; i++ {
		if got := c.nodes[i].Ledger().ChainLength(); got < rounds {
			t.Fatalf("node %d stopped at round %d of %d", i, got, rounds)
		}
	}
	for r := base; r <= rounds; r++ {
		mine, _ := l.BlockAt(r)
		theirs, _ := ref.BlockAt(r)
		if mine.Hash() != theirs.Hash() {
			t.Fatalf("round %d diverged after the snapshot join", r)
		}
	}
	if l.HeadHash() != ref.HeadHash() {
		t.Fatal("joiner's head differs from the network's")
	}
	t.Logf("cold join: re-based onto round %d, %d rounds replayed as delta", base, l.ChainLength()-base)
}

// TestRealTCPDoubleRejoinDoesNotStall pins request-nonce uniqueness
// across incarnations: a node that comes up twice at the same height
// within the peers' SeenTTL must not repeat its first ChainRequest
// byte for byte, or the peer's duplicate suppression drops it and the
// sync sits out a reply timeout before asking the next peer.
func TestRealTCPDoubleRejoinDoesNotStall(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	const n = 5
	const rounds = 3
	const victim = 4
	c := newRealCluster(t, n, rounds)
	c.joinLater(victim)
	c.startAll(240 * time.Second)
	for i := 0; i < n; i++ {
		if i == victim {
			continue
		}
		if got := c.waitChain(i, rounds, 120*time.Second); got < rounds {
			t.Fatalf("node %d reached only %d rounds", i, got)
		}
	}
	dupDrops := func() (total uint64) {
		for i := 0; i < n; i++ {
			if i != victim {
				total += c.transports[i].dupDropped.Load()
			}
		}
		return total
	}

	// Twice over, a replacement that lost its disk: everything comes from
	// peers, starting with the same request for round 1.
	// The first runs without a watcher: it must not count as done, or the
	// others would stop instead of idling on to serve the second.
	c.build(victim, c.rebind(victim))
	c.transports[victim].Start()
	if _, err := c.nodes[victim].Rejoin(nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	c.runAsync(victim, 240*time.Second)
	if got := c.waitChain(victim, rounds, 60*time.Second); got < rounds {
		t.Fatalf("first incarnation synced only %d rounds", got)
	}
	c.crash(victim)
	dropsBefore := dupDrops()
	start := time.Now()
	c.restartFrom(victim, nil, time.Minute, 240*time.Second)
	for c.chainLen(victim) < rounds && time.Since(start) < 60*time.Second {
		time.Sleep(5 * time.Millisecond)
	}
	took := time.Since(start)
	c.waitAll()

	if got := c.nodes[victim].Ledger().ChainLength(); got < rounds {
		t.Fatalf("second incarnation synced only %d rounds", got)
	}
	if d := dupDrops() - dropsBefore; d != 0 {
		t.Errorf("peers dropped %d of the second incarnation's requests as duplicates", d)
	}
	// The sync waits 2 s for a reply before it moves on to the next peer.
	if took >= 2*time.Second {
		t.Errorf("second incarnation took %v to sync: a reply timeout expired before the first reply", took)
	}
	t.Logf("second incarnation synced %d rounds in %v", rounds, took.Round(time.Millisecond))
}
