package realnet

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	nodepkg "algorand/internal/node"
	"algorand/internal/wire"
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

// TestFrameRoundTrip: a frame is the message's tag and canonical
// encoding (node.EncodeMessage) behind the 5-byte frame header, encoded
// once into a buffer sized in advance. It names no sender — the
// connection's hello does — and reads back as the message it was. The
// per-type encoding round-trip lives in internal/wire's universal test;
// this covers the transport envelope.
func TestFrameRoundTrip(t *testing.T) {
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
		&nodepkg.BlockRequest{Hash: crypto.HashBytes("h")},
		&nodepkg.BlockFill{Block: blk},
		&nodepkg.TxBatch{Txns: []*ledger.Transaction{{From: id.PublicKey(), Amount: 5}}},
	}
	tr := &Transport{closed: make(chan struct{})}
	for _, m := range msgs {
		f, ok := tr.frameOf(m)
		if !ok {
			t.Fatalf("%T has no frame", m)
		}
		if len(f.payload) != m.WireSize() || cap(f.payload) != len(f.payload) {
			t.Fatalf("%T frame payload len %d cap %d, want both WireSize %d: encoded once, into a buffer sized in advance",
				m, len(f.payload), cap(f.payload), m.WireSize())
		}
		var conn bytes.Buffer
		if err := wire.WriteFrame(&conn, f.tag, f.payload); err != nil {
			t.Fatal(err)
		}
		if conn.Len() != m.WireSize()+5 {
			t.Fatalf("%T framed size %d, want WireSize %d + 5", m, conn.Len(), m.WireSize())
		}
		tag, payload, err := wire.ReadFrame(&conn)
		if err != nil {
			t.Fatal(err)
		}
		back, err := nodepkg.DecodeMessage(tag, payload)
		if err != nil {
			t.Fatalf("%T decode: %v", m, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("%T round-trip mismatch:\n got %#v\nwant %#v", m, back, m)
		}
	}
}
