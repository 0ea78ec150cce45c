package realnet

import (
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	nodepkg "algorand/internal/node"
)

// TestRealTCPConsensus runs a real multi-node Algorand deployment over
// loopback TCP with full Ed25519+ECVRF crypto and wall-clock timeouts,
// and checks that every node commits the same chain.
func TestRealTCPConsensus(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	const n = 6
	const rounds = 2
	c := newRealCluster(t, n, rounds)
	c.run(60 * time.Second)
	c.checkAgreement(n - 1)

	// Safety: per round, all committed values agree.
	values := map[uint64]crypto.Digest{}
	for i := 0; i < n; i++ {
		for _, st := range c.nodes[i].Stats {
			if prev, ok := values[st.Round]; ok && prev != st.Value {
				t.Fatalf("round %d: node %d disagrees", st.Round, i)
			} else {
				values[st.Round] = st.Value
			}
		}
	}

	// The transport's view holds every peer and no quarantine after a
	// clean run.
	s := c.transports[0].Stats()
	if len(s.Peers) != n-1 {
		t.Fatalf("%d peers, want %d", len(s.Peers), n-1)
	}
	for _, p := range s.Peers {
		if p.Quarantined {
			t.Fatalf("peer %d quarantined after a clean run", p.Peer)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	// Frames must round-trip through the wire codec with the sender id
	// intact, and the framed size must be the canonical WireSize plus
	// the fixed envelope overhead (5-byte frame header + 4-byte sender).
	// The per-type encoding round-trip lives in internal/wire's
	// universal test; this covers the transport envelope.
	provider := crypto.NewReal()
	id := provider.NewIdentity(crypto.SeedFromUint64(1))
	vote := &nodepkg.VoteMsg{Vote: ledger.Vote{
		Sender: id.PublicKey(), Round: 3, Step: 1,
		PrevHash: crypto.HashBytes("p"), Value: crypto.HashBytes("v"),
		SortProof: []byte{1, 2, 3}, Sig: []byte{4, 5},
	}}
	blk := &ledger.Block{Round: 3, PayloadPadding: 128}
	msgs := []network.Message{
		vote,
		&nodepkg.BlockRequest{Hash: crypto.HashBytes("h"), Requester: 2, Nonce: 7},
		&nodepkg.BlockFill{Block: blk, Recipient: 1},
		&nodepkg.TxBatch{Txns: []*ledger.Transaction{{From: id.PublicKey(), Amount: 5}}},
	}
	const nPeers = 16
	for _, m := range msgs {
		if sz := encodeSize(m); sz != m.WireSize()+9 {
			t.Fatalf("%T framed size %d, want WireSize %d + 9", m, sz, m.WireSize())
		}
		tag, payload, err := encodeFrame(7, m)
		if err != nil {
			t.Fatalf("%T encode: %v", m, err)
		}
		if len(payload) != 4+m.WireSize() || cap(payload) != len(payload) {
			t.Fatalf("%T frame payload len %d cap %d, want both 4 + WireSize %d: encoded once, into a buffer sized in advance",
				m, len(payload), cap(payload), m.WireSize())
		}
		from, back, err := decodeFrame(tag, payload, nPeers)
		if err != nil {
			t.Fatalf("%T decode: %v", m, err)
		}
		if from != 7 {
			t.Fatalf("%T sender %d, want 7", m, from)
		}
		if back.ID() != m.ID() {
			t.Fatalf("%T round-trip changed message identity", m)
		}
	}
}

// encodeSize reports a message's framed wire size: the canonical
// encoding plus the sender id and the 5-byte frame header.
func encodeSize(m network.Message) int {
	_, payload, err := nodepkg.EncodeMessage(m)
	if err != nil {
		return -1
	}
	return 5 + 4 + len(payload)
}

// TestDecodeFrameRejectsAlienSender pins the address-book validation: a
// frame whose claimed sender id falls outside [0, nPeers) must fail to
// decode rather than flow into relay bookkeeping with a bogus id.
func TestDecodeFrameRejectsAlienSender(t *testing.T) {
	msg := &nodepkg.BlockRequest{Hash: crypto.HashBytes("x"), Requester: 1, Nonce: 1}
	// (The encoder clamps negatives to 0, so out-of-range means >= nPeers
	// on the wire.)
	for _, from := range []int{5, 100} {
		tag, payload, err := encodeFrame(from, msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeFrame(tag, payload, 5); err == nil {
			t.Fatalf("sender id %d accepted against a 5-entry address book", from)
		}
	}
	// Boundary: the largest valid id decodes.
	tag, payload, err := encodeFrame(4, msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeFrame(tag, payload, 5); err != nil {
		t.Fatalf("sender id 4 rejected against a 5-entry address book: %v", err)
	}
}

func TestTransportDedupAndRelayLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	// Three transports; nodes 1 and 2 count deliveries.
	nets := newMiniNet(t, 3, nil, 3*time.Second)

	msg := &nodepkg.BlockRequest{Hash: crypto.HashBytes("dup"), Requester: 0, Nonce: 1}
	nets[0].tr.Gossip(0, msg)
	nets[0].tr.Gossip(0, msg) // duplicate: receivers must drop it

	time.Sleep(700 * time.Millisecond)
	c1, c2 := nets[1].count(), nets[2].count()
	if c1 != 1 || c2 != 1 {
		t.Fatalf("deliveries %d/%d, want exactly 1 each (dedup)", c1, c2)
	}
}
