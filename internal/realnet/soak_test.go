package realnet

import (
	"net"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	nodepkg "algorand/internal/node"
)

// TestSoakBoundedTransportState pins the no-unbounded-state guarantee:
// under sustained gossip of unique messages, a permanently-down peer,
// and inbound connection churn, the seen/limit caches rotate away old
// generations, closed inbound conns are reaped, and the down peer's
// queue stays within its bounds. Scale duration with REALNET_SOAK.
func TestSoakBoundedTransportState(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP soak test")
	}
	cfg := testConfig()
	cfg.seenTTL = 100 * time.Millisecond
	cfg.queueCap = 8

	// Three-slot address book: slot 0 is the transport under soak,
	// slot 1 a live transport, slot 2 permanently down.
	lnLive, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), lnLive.Addr().String(), deadAddr(t)}
	horizon := time.Duration(30*soakScale()) * time.Second
	m := newMiniAt(t, 0, addrs, ln0, cfg, horizon)
	newMiniAt(t, 1, addrs, lnLive, testConfig(), horizon)

	iters := 600 * soakScale()
	for i := 0; i < iters; i++ {
		m.tr.Gossip(0, soakVote(uint64(i)))
		// Inbound churn: short-lived raw connections that hello and die.
		if i%20 == 0 {
			r := dialRaw(t, m.tr.Addr())
			r.hello(1)
			tag, payload := requestFrame(t, uint64(1_000_000+i))
			r.frame(tag, payload)
			r.c.Close()
		}
		time.Sleep(time.Millisecond)
	}
	// Let the last generation age out, then trigger a rotation.
	time.Sleep(3 * cfg.seenTTL)
	m.tr.Gossip(0, soakVote(uint64(iters+1)))
	time.Sleep(100 * time.Millisecond)

	s := m.tr.Stats()
	// Seen entries are bounded by ~two TTL windows of traffic, not by the
	// total number of unique messages gossiped (the pre-PR behavior).
	if s.SeenEntries >= iters/2 {
		t.Fatalf("seen cache grew to %d entries over %d unique messages (no rotation)", s.SeenEntries, iters)
	}
	if s.LimitEntries >= iters/2 {
		t.Fatalf("limit cache grew to %d entries (no rotation)", s.LimitEntries)
	}
	// Dead inbound conns were reaped, not accumulated.
	if s.InboundConns > 3 {
		t.Fatalf("%d inbound conns registered after churn of %d short-lived conns", s.InboundConns, iters/20)
	}
	// The down peer's queue honored drop-oldest.
	for _, ps := range s.Peers {
		if ps.Peer != 2 {
			continue
		}
		if ps.QueueDepth > cfg.queueCap {
			t.Fatalf("down peer queue depth %d exceeds cap %d", ps.QueueDepth, cfg.queueCap)
		}
		if ps.QueueDrops < uint64(iters/2) {
			t.Fatalf("down peer shed only %d of ~%d frames", ps.QueueDrops, iters)
		}
	}
	t.Logf("soak stats after %d msgs: %s", iters, s)
}

// soakVote is a relayed message of its own: its round gives it an ID and
// a relay budget no other shares.
func soakVote(round uint64) *nodepkg.VoteMsg {
	return &nodepkg.VoteMsg{Vote: ledger.Vote{Round: round, Step: 1, Value: crypto.HashBytes("soak")}}
}
