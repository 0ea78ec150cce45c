package realnet

import (
	"sync"
	"testing"
	"time"

	"algorand/internal/blockprop"
	"algorand/internal/crypto"
	"algorand/internal/network"
	nodepkg "algorand/internal/node"
	"algorand/internal/sim"
)

// newSwarmCluster is newRealCluster with 2 MB proposals, eight pieces
// each, and a proposal wait that leaves a race-instrumented loopback time
// to move them.
func newSwarmCluster(t *testing.T, n int, rounds uint64) *realCluster {
	c := newRealCluster(t, n, rounds)
	c.prm.BlockSize = 2 << 20
	c.prm.LambdaPriority = 400 * time.Millisecond
	c.prm.LambdaBlock = 4 * time.Second
	c.nodeCfg.Params = c.prm
	return c
}

// pieceLog records, per receiving node and body, how many pieces came
// from which peer. Handlers of different nodes run on different
// schedulers, hence the lock.
type pieceLog struct {
	mu   sync.Mutex
	from map[int]map[crypto.Digest]map[int]int
}

func (l *pieceLog) observe(i int, nd *nodepkg.Node) network.Handler {
	return network.HandlerFunc(func(from int, m network.Message) network.Verdict {
		if bp, ok := m.(*nodepkg.BlockPiece); ok {
			l.mu.Lock()
			if l.from == nil {
				l.from = make(map[int]map[crypto.Digest]map[int]int)
			}
			if l.from[i] == nil {
				l.from[i] = make(map[crypto.Digest]map[int]int)
			}
			if l.from[i][bp.P.BlockHash()] == nil {
				l.from[i][bp.P.BlockHash()] = make(map[int]int)
			}
			l.from[i][bp.P.BlockHash()][from]++
			l.mu.Unlock()
		}
		return nd.HandleMessage(from, m)
	})
}

// TestRealTCPSwarmedBlocks runs four nodes over loopback TCP with 2 MB
// proposals: every body travels as eight pieces through the wire codec
// (padding materialized), and every committed body was assembled from
// more than one source — the proposer's stripes reach a node through the
// other neighbours before the proposer has sent it everything. (Not
// every node every time: one that enters the round well ahead of the
// others finds the proposer the only holder there is.)
func TestRealTCPSwarmedBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	const n, rounds = 4, 3
	c := newSwarmCluster(t, n, rounds)
	var log pieceLog
	c.wrapHandler = log.observe
	c.run(90 * time.Second)
	c.checkAgreement(n)

	proposed := 0
	for r := uint64(1); r <= rounds; r++ {
		b, ok := c.nodes[0].Ledger().BlockAt(r)
		if !ok || b.IsEmpty() {
			continue
		}
		proposed++
		if want := c.prm.BlockSize / blockprop.PieceSize; b.WireSize() != c.prm.BlockSize {
			t.Fatalf("round %d: block of %d bytes, want %d (%d pieces)", r, b.WireSize(), c.prm.BlockSize, want)
		}
		h := b.Hash()
		multiSource := 0
		for i := 0; i < n; i++ {
			if c.nodes[i].PublicKey() == b.Proposer {
				continue
			}
			pieces := 0
			for _, k := range log.from[i][h] {
				pieces += k
			}
			if pieces < 8 {
				t.Errorf("round %d: node %d got the committed body as %d pieces: %v", r, i, pieces, log.from[i][h])
			}
			if len(log.from[i][h]) > 1 {
				multiSource++
			}
		}
		if multiSource == 0 {
			t.Errorf("round %d: every node pulled the whole body from its proposer: %v", r, log.from)
		}
		t.Logf("round %d: %d of %d receivers assembled the body from more than one source", r, multiSource, n-1)
	}
	if proposed == 0 {
		t.Fatal("every round committed the empty block; no body was disseminated")
	}
	for i := 0; i < n; i++ {
		if rej := c.nodes[i].Metrics().Snapshot()["algorand_blockprop_pieces_rejected_total"].Value; rej != 0 {
			t.Errorf("node %d rejected %v pieces in an honest run", i, rej)
		}
	}
}

// TestRealTCPForgedPiecesScored adds a fifth, token-stake node that
// follows the protocol except that it answers every piece request with
// a piece of its own making. Each forged piece fails the manifest check
// at the requester, is reported through node.MisbehaviorReporter and
// scores the forger on the requester's transport; the real pieces come
// from the others and the chains agree.
func TestRealTCPForgedPiecesScored(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	const n, rounds, forger = 5, 3, 4
	c := newSwarmCluster(t, n, rounds)
	c.genesis[c.ids[forger].PublicKey()] = 1
	c.cfg = func(int) settings {
		cfg := testConfig()
		cfg.quarantineThreshold = 1 << 20 // scored, never silenced: the run needs its votes' relays
		return cfg
	}
	c.wrapHandler = func(i int, nd *nodepkg.Node) network.Handler {
		if i != forger {
			return network.HandlerFunc(nd.HandleMessage)
		}
		manifests := make(map[crypto.Digest]*blockprop.Manifest)
		return network.HandlerFunc(func(from int, m network.Message) network.Verdict {
			switch msg := m.(type) {
			case *nodepkg.BlockAnnounce:
				manifests[msg.Manifest.Announce.BlockHash] = &msg.Manifest
			case *nodepkg.PieceRequest:
				if man, ok := manifests[msg.Hash]; ok {
					c.transports[forger].Unicast(forger, from, sim.ForgedPiece(man, msg.Index))
				}
				return network.Verdict{}
			}
			return nd.HandleMessage(from, m)
		})
	}
	c.run(90 * time.Second)
	c.checkAgreement(n - 1)

	var rejected float64
	var reported uint64
	for i := 0; i < n; i++ {
		if i == forger {
			continue
		}
		rejected += c.nodes[i].Metrics().Snapshot()["algorand_blockprop_pieces_rejected_total"].Value
		for _, ps := range c.transports[i].Stats().Peers {
			switch {
			case ps.Peer == forger:
				reported += ps.Reported
			case ps.Reported != 0:
				t.Errorf("node %d reported honest peer %d", i, ps.Peer)
			}
		}
	}
	if rejected == 0 || reported == 0 {
		t.Fatalf("forged pieces rejected %v, forger reported %d times: the forger was never asked or never scored", rejected, reported)
	}
	if uint64(rejected) != reported {
		t.Errorf("%v forged pieces rejected but %d reports against the forger", rejected, reported)
	}
	t.Logf("forged pieces rejected and reported: %d", reported)
}
