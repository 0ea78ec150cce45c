package realnet

import (
	"fmt"
	"sort"
	"strings"
	"time"

	nodepkg "algorand/internal/node"
)

// The transport exposes its misbehavior scoring to the node layer:
// application-level offenses (forged snapshots) feed the same
// quarantine machinery as wire-level ones.
var _ nodepkg.MisbehaviorReporter = (*Transport)(nil)

// PeerStats is one peer's transport-level state snapshot.
type PeerStats struct {
	Peer      int
	Connected bool // outbound connection currently established

	// Outbound queue and supervisor.
	QueueDepth   int
	QueueBytes   int
	QueueDrops   uint64 // frames dropped by the drop-oldest policy
	Dials        uint64 // successful connects
	Redials      uint64 // successful connects after a previous connect
	ConnectFails uint64 // failed dial attempts
	FramesOut    uint64
	BytesOut     uint64

	// Inbound accounting and misbehavior.
	FramesIn    uint64
	BytesIn     uint64
	Malformed   uint64
	RateAbuse   uint64
	Reported    uint64 // application-reported offenses (node layer)
	Score       int
	Quarantined bool
	Quarantines uint64 // times this peer has been quarantined
}

// Stats is a point-in-time snapshot of the whole transport.
type Stats struct {
	Peers []PeerStats // sorted by peer id, self excluded

	SeenEntries     int // both generations of the dedup cache
	LimitEntries    int // both generations of the relay-limit cache
	InboundConns    int // live accepted connections
	InboundRejected uint64
	QuarantineDrops uint64 // frames/conns refused due to quarantine
}

// Stats snapshots the transport — a typed view over the registry-backed
// counters plus the mutable per-peer state (queues, scores, quarantine
// clocks) the registry does not hold. Safe from any goroutine.
func (t *Transport) Stats() Stats {
	now := time.Now()
	t.mu.Lock()
	s := Stats{
		SeenEntries:     t.seen.Len(),
		LimitEntries:    t.limit.Len(),
		InboundConns:    len(t.inbound),
		InboundRejected: t.inboundRejected.Load(),
		QuarantineDrops: t.quarantineDrops.Load(),
	}
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i].id < peers[j].id })
	for _, p := range peers {
		p.mu.Lock()
		s.Peers = append(s.Peers, PeerStats{
			Peer:         p.id,
			Connected:    p.connected,
			QueueDepth:   p.depthLocked(),
			QueueBytes:   p.queuedBytes,
			QueueDrops:   p.c.drops.Load(),
			Dials:        p.c.dials.Load(),
			Redials:      p.c.redials.Load(),
			ConnectFails: p.c.connectFails.Load(),
			FramesOut:    p.c.framesOut.Load(),
			BytesOut:     p.c.bytesOut.Load(),
			FramesIn:     p.c.framesIn.Load(),
			BytesIn:      p.c.bytesIn.Load(),
			Malformed:    p.c.malformed.Load(),
			RateAbuse:    p.c.rateAbuse.Load(),
			Reported:     p.c.reported.Load(),
			Score:        p.score,
			Quarantined:  now.Before(p.quarantinedUntil),
			Quarantines:  p.c.quarantines.Load(),
		})
		p.mu.Unlock()
	}
	return s
}

// String renders a compact operator-facing summary, one line per peer.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "transport: %d inbound conns (%d rejected), seen %d, limits %d, quarantine drops %d\n",
		s.InboundConns, s.InboundRejected, s.SeenEntries, s.LimitEntries, s.QuarantineDrops)
	for _, p := range s.Peers {
		state := "down"
		if p.Connected {
			state = "up"
		}
		if p.Quarantined {
			state = "quarantined"
		}
		fmt.Fprintf(&b, "  peer %d [%s]: q=%d/%dB drops=%d dials=%d redials=%d fails=%d out=%d/%dB in=%d/%dB bad=%d/%d\n",
			p.Peer, state, p.QueueDepth, p.QueueBytes, p.QueueDrops,
			p.Dials, p.Redials, p.ConnectFails,
			p.FramesOut, p.BytesOut, p.FramesIn, p.BytesIn,
			p.Malformed, p.RateAbuse)
	}
	return b.String()
}
