package realnet

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	nodepkg "algorand/internal/node"
	"algorand/internal/vtime"
)

// deadAddr binds a loopback port and immediately closes it, yielding an
// address nobody listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestQueueDropOldest pins the backpressure policy: a down peer's queue
// holds the newest queueCap frames and counts what it shed, instead of
// growing without bound or blocking the sender.
func TestQueueDropOldest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.queueCap = 4
	sim := vtime.New().Realtime()
	tr := newTransport(sim, 0, []string{ln.Addr().String(), deadAddr(t)}, ln, cfg)
	defer tr.Close()

	for i := 0; i < 10; i++ {
		tr.Unicast(0, 1, &nodepkg.BlockRequest{Hash: crypto.HashUint64("q", uint64(i))})
	}
	s := tr.Stats()
	ps := s.Peers[0]
	if ps.Peer != 1 {
		t.Fatalf("stats peer %d, want 1", ps.Peer)
	}
	if ps.QueueDepth > 4 {
		t.Fatalf("queue depth %d exceeds cap 4", ps.QueueDepth)
	}
	if ps.QueueDrops < 6 {
		t.Fatalf("queue drops %d, want >= 6", ps.QueueDrops)
	}
}

// TestQueueBytesBound pins the byte-denominated bound: many large
// frames queued to a down peer stay within queueBytes (while a single
// oversized frame is still accepted, since blocks must transit).
func TestQueueBytesBound(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.queueCap = 1024
	cfg.queueBytes = 4096
	sim := vtime.New().Realtime()
	tr := newTransport(sim, 0, []string{ln.Addr().String(), deadAddr(t)}, ln, cfg)
	defer tr.Close()

	for i := 0; i < 50; i++ {
		tr.enqueue(1, frame{tag: tagPing, payload: make([]byte, 1024)})
	}
	ps := tr.Stats().Peers[0]
	if ps.QueueBytes > 4096 {
		t.Fatalf("queued bytes %d exceed bound 4096", ps.QueueBytes)
	}
	if ps.QueueDrops < 40 {
		t.Fatalf("queue drops %d, want >= 40", ps.QueueDrops)
	}

	// A single frame larger than the whole byte budget still queues.
	tr2ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr2 := newTransport(vtime.New().Realtime(), 0, []string{tr2ln.Addr().String(), deadAddr(t)}, tr2ln, cfg)
	defer tr2.Close()
	tr2.enqueue(1, frame{tag: tagPing, payload: make([]byte, 64<<10)})
	if got := tr2.Stats().Peers[0].QueueDepth; got != 1 {
		t.Fatalf("oversized frame not queued (depth %d)", got)
	}
}

// TestQueueRepliesYield pins the send queue's two classes on a down peer:
// a reply larger than queueBytes, queued behind votes, drops the older
// reply and none of the votes; the writer takes every vote before any
// reply; and a frame requeued after a failed write goes back to the head
// of its own class.
func TestQueueRepliesYield(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	sim := vtime.New().Realtime()
	tr := newTransport(sim, 0, []string{ln.Addr().String(), deadAddr(t)}, ln, cfg)
	defer tr.Close()

	tr.Unicast(0, 1, &nodepkg.BlockFill{Block: &ledger.Block{Round: 1}})
	var votes [][]byte
	for i := range 10 {
		v := &nodepkg.VoteMsg{Vote: ledger.Vote{Round: uint64(i)}}
		_, payload, _ := nodepkg.EncodeMessage(v)
		votes = append(votes, payload)
		tr.Unicast(0, 1, v)
	}
	big := &nodepkg.ChainReply{}
	for range 9 {
		big.Blocks = append(big.Blocks, &ledger.Block{PayloadPadding: 1 << 20})
	}
	if big.WireSize() <= cfg.queueBytes {
		t.Fatalf("a chain reply of %d bytes is not over queueBytes %d", big.WireSize(), cfg.queueBytes)
	}
	tr.Unicast(0, 1, big)
	if ps := tr.Stats().Peers[0]; ps.QueueDepth != len(votes)+1 || ps.QueueDrops != 1 {
		t.Fatalf("queue holds %d frames after %d drops, want the %d votes and the chain reply after dropping the fill",
			ps.QueueDepth, ps.QueueDrops, len(votes))
	}

	p := tr.peers[1]
	first, _ := p.pop()
	p.pushFront(first)
	for i, want := range votes {
		f, ok := p.pop()
		if !ok || f.reply || !bytes.Equal(f.payload, want) {
			t.Fatalf("pop %d: got a frame of %d bytes (reply %v), want vote %d", i, len(f.payload), f.reply, i)
		}
	}
	f, _ := p.pop()
	p.pushFront(f)
	if f, ok := p.pop(); !ok || !f.reply || len(f.payload) != big.WireSize() {
		t.Fatalf("last pop: %d bytes (reply %v), want the chain reply requeued at its head", len(f.payload), f.reply)
	}
	if _, ok := p.pop(); ok {
		t.Fatal("the queue holds more than was sent")
	}
}

// TestSupervisorRedialsAndFlushesQueue is the self-healing core: sends
// to a down peer queue under the supervisor, the supervisor keeps
// redialing with backoff, and once the peer comes up the queued frames
// are delivered — a catch-up request survives the outage.
func TestSupervisorRedialsAndFlushesQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Reserve B's address, then free it so the first dials fail.
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB := lnB.Addr().String()
	lnB.Close()
	addrs := []string{lnA.Addr().String(), addrB}

	cfg := testConfig()
	cfg.dialTimeout = 200 * time.Millisecond
	simA := vtime.New().Realtime()
	trA := newTransport(simA, 0, addrs, lnA, cfg)
	defer trA.Close()
	go simA.Run(10 * time.Second)

	msg := &nodepkg.BlockRequest{Hash: crypto.HashBytes("catchup")}
	trA.Unicast(0, 1, msg)

	// Let the supervisor fail a few dials first.
	time.Sleep(300 * time.Millisecond)
	if fails := trA.Stats().Peers[0].ConnectFails; fails == 0 {
		t.Fatal("supervisor recorded no dial failures against a down peer")
	}

	// Bring B up on the reserved address; the queued frame must arrive.
	var lnB2 net.Listener
	for i := 0; i < 100; i++ {
		lnB2, err = net.Listen("tcp", addrB)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	mb := newMiniAt(t, 1, addrs, lnB2, testConfig(), 10*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for mb.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queued unicast never delivered after peer came up; stats:\n%s", trA.Stats())
		}
		time.Sleep(25 * time.Millisecond)
	}
	ps := trA.Stats().Peers[0]
	if ps.Dials == 0 {
		t.Fatal("no successful dial recorded")
	}
}

// TestBackoffJitterBounds pins the jitter envelope: [d/2, 3d/2).
func TestBackoffJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		j := withJitter(d, rng)
		if j < d/2 || j >= d+d/2 {
			t.Fatalf("jitter %v outside [%v, %v)", j, d/2, d+d/2)
		}
	}
	if withJitter(0, rng) != 0 {
		t.Fatal("zero backoff must stay zero")
	}
}
