package wire_test

// The universal round-trip test: one table of every wire-encodable type
// in the repository, asserting the two invariants the codec exists for:
//
//  1. Decode(Encode(m)) == m, exactly (nil proofs stay nil, padding
//     counts survive);
//  2. len(Encode(m)) == m.WireSize() — no hand-counted size constant
//     can drift from the canonical encoding again;
//
// plus the signing invariant: SigningBytes is a strict prefix of the
// canonical encoding for every signed type.

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
	"time"

	"algorand/internal/blockprop"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/node"
	"algorand/internal/sortition"
	"algorand/internal/wire"
)

func sampleTx() ledger.Transaction {
	return ledger.Transaction{
		From:   crypto.PublicKey{1, 2, 3},
		To:     crypto.PublicKey{4, 5, 6},
		Amount: 1000,
		Fee:    3,
		Nonce:  7,
		Sig:    bytes.Repeat([]byte{0x51}, 64),
	}
}

// sampleTxs is n payments of a TxBatch, each an object of its own.
func sampleTxs(n int) []*ledger.Transaction {
	txs := make([]*ledger.Transaction, n)
	for i := range txs {
		tx := sampleTx()
		txs[i] = &tx
	}
	return txs
}

func sampleVote() ledger.Vote {
	return ledger.Vote{
		Sender:    crypto.PublicKey{9},
		Round:     12,
		Step:      3,
		SortHash:  crypto.VRFOutput{8, 7},
		SortProof: bytes.Repeat([]byte{2}, 80),
		PrevHash:  crypto.HashBytes("prev"),
		Value:     crypto.HashBytes("value"),
		Sig:       bytes.Repeat([]byte{3}, 64),
	}
}

func sampleCert() *ledger.Certificate {
	return &ledger.Certificate{
		Round: 12,
		Step:  3,
		Value: crypto.HashBytes("value"),
		Final: true,
		Votes: []ledger.Vote{sampleVote(), sampleVote()},
	}
}

func sampleBlock() *ledger.Block {
	return &ledger.Block{
		Round:          12,
		PrevHash:       crypto.HashBytes("prev"),
		Timestamp:      42 * time.Second,
		StateRoot:      crypto.HashBytes("state"),
		Seed:           crypto.HashBytes("seed"),
		SeedProof:      bytes.Repeat([]byte{4}, 80),
		Proposer:       crypto.PublicKey{11},
		ProposerProof:  bytes.Repeat([]byte{5}, 80),
		Txns:           []ledger.Transaction{sampleTx(), sampleTx()},
		PayloadPadding: 4096,
	}
}

func samplePriority() blockprop.PriorityMsg {
	return blockprop.PriorityMsg{
		Proposer:  crypto.PublicKey{11},
		Round:     12,
		BlockHash: crypto.HashBytes("block"),
		SortHash:  crypto.VRFOutput{6},
		SortProof: bytes.Repeat([]byte{7}, 80),
		SubUser:   2,
		Priority:  sortition.Priority(crypto.HashBytes("pri")),
		Sig:       bytes.Repeat([]byte{8}, 64),
	}
}

// sampleManifest describes a body of several pieces (digests and the
// proposer's second signature) or, with pieces == 1, of one (neither).
func sampleManifest(pieces int) blockprop.Manifest {
	m := blockprop.Manifest{Announce: samplePriority()}
	if pieces > 1 {
		for i := 0; i < pieces; i++ {
			m.Digests = append(m.Digests, crypto.HashBytes("piece", []byte{byte(i)}))
		}
		m.Sig = bytes.Repeat([]byte{9}, 64)
	}
	return m
}

// samplePiece is a body's first piece (header and announce on board) or
// a later one.
func samplePiece(index int) *blockprop.Piece {
	var head *ledger.Block
	var announce *blockprop.PriorityMsg
	if index == 0 {
		pri := samplePriority()
		head, announce = sampleBlock(), &pri
		head.Txns, head.PayloadPadding = nil, 0
	}
	return blockprop.NewPiece(crypto.HashBytes("block"), index, 3, head, announce,
		[]ledger.Transaction{sampleTx(), sampleTx()}, 2048)
}

func sampleCheckpoint() *ledger.Checkpoint {
	bal := (&ledger.Checkpoint{Accounts: []ledger.AccountRecord{
		{Key: crypto.PublicKey{1}, Money: 100},
		{Key: crypto.PublicKey{2}, Money: 250, Nonce: 4},
		{Key: crypto.PublicKey{3}, Money: 7},
	}}).Balances()
	return ledger.CheckpointOf(sampleBlock(), sampleCert(), bal)
}

// sizedMarshaler is what every wire-encodable value in the table
// satisfies: codec plus a WireSize that must match it.
type sizedMarshaler interface {
	wire.Marshaler
	wire.Unmarshaler
	WireSize() int
}

func TestUniversalRoundTrip(t *testing.T) {
	tx := sampleTx()
	unsignedTx := sampleTx()
	unsignedTx.Sig = nil
	vote := sampleVote()
	pri := samplePriority()
	emptyBlock := ledger.EmptyBlock(3, crypto.HashBytes("h"), crypto.HashBytes("s"), crypto.HashBytes("root"))
	manifest, manifest1 := sampleManifest(3), sampleManifest(1)

	cases := []struct {
		name string
		m    sizedMarshaler
		zero func() sizedMarshaler
	}{
		{"Transaction", &tx, func() sizedMarshaler { return new(ledger.Transaction) }},
		{"Transaction/unsigned", &unsignedTx, func() sizedMarshaler { return new(ledger.Transaction) }},
		{"Vote", &vote, func() sizedMarshaler { return new(ledger.Vote) }},
		{"Certificate", sampleCert(), func() sizedMarshaler { return new(ledger.Certificate) }},
		{"Certificate/empty", &ledger.Certificate{Round: 1}, func() sizedMarshaler { return new(ledger.Certificate) }},
		{"Block", sampleBlock(), func() sizedMarshaler { return new(ledger.Block) }},
		{"Block/empty", emptyBlock, func() sizedMarshaler { return new(ledger.Block) }},
		{"PriorityMsg", &pri, func() sizedMarshaler { return new(blockprop.PriorityMsg) }},
		{"Manifest", &manifest, func() sizedMarshaler { return new(blockprop.Manifest) }},
		{"Manifest/one-piece", &manifest1, func() sizedMarshaler { return new(blockprop.Manifest) }},
		{"Piece/first", samplePiece(0), func() sizedMarshaler { return new(blockprop.Piece) }},
		{"Piece/later", samplePiece(1), func() sizedMarshaler { return new(blockprop.Piece) }},
		{"Checkpoint", sampleCheckpoint(), func() sizedMarshaler { return new(ledger.Checkpoint) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := wire.Encode(c.m)
			if len(data) != c.m.WireSize() {
				t.Fatalf("encoded %d bytes, WireSize says %d", len(data), c.m.WireSize())
			}
			got := c.zero()
			if err := wire.Decode(data, got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(c.m, got) {
				t.Fatalf("round-trip mismatch:\n got %#v\nwant %#v", got, c.m)
			}
		})
	}
}

// gossipMessages is the full set of gossip envelope types, populated.
func gossipMessages() []network.Message {
	tx := sampleTx()
	return []network.Message{
		&node.VoteMsg{Vote: sampleVote()},
		&node.PriorityGossip{M: samplePriority()},
		&node.BlockAnnounce{Manifest: sampleManifest(1), Announcer: 3},
		&node.BlockAnnounce{Manifest: sampleManifest(3), Announcer: 3, Have: blockprop.Bitmap{5}},
		&node.BlockHave{Round: 12, Hash: crypto.HashBytes("block"), Announcer: 3, Have: blockprop.Bitmap{7}},
		&node.BlockHave{Round: 12, Hash: crypto.HashBytes("block"), Announcer: 3},
		&node.BlockRequest{Hash: crypto.HashBytes("h"), Requester: 2, Nonce: 99},
		&node.PieceRequest{Hash: crypto.HashBytes("block"), Index: 2, Requester: 2, Nonce: 99},
		&node.BlockPiece{P: samplePiece(0), Recipient: 4, Nonce: 99},
		&node.BlockPiece{P: samplePiece(1), Recipient: 4, Nonce: 99},
		&node.TxBatch{Txns: []*ledger.Transaction{&tx}},
		&node.TxBatch{Txns: sampleTxs(3)},
		&node.TxBatch{},
		&node.BlockFill{Block: sampleBlock(), Recipient: 5},
		&node.ChainRequest{FromRound: 10, MaxBlocks: 32, Requester: 1, Nonce: 98},
		&node.ChainReply{
			Blocks:    []*ledger.Block{sampleBlock()},
			Certs:     []*ledger.Certificate{sampleCert()},
			Recipient: 1,
			Nonce:     98,
		},
		&node.CommitAnnounce{Round: 12, Hash: crypto.HashBytes("c"), Announcer: 7},
		&node.SnapshotRequest{MinRound: 40, Requester: 6, Nonce: 97},
		&node.SnapshotReply{Checkpoint: sampleCheckpoint(), Recipient: 6, Nonce: 97},
	}
}

func TestUniversalGossipRoundTrip(t *testing.T) {
	for _, m := range gossipMessages() {
		t.Run(reflect.TypeOf(m).Elem().Name(), func(t *testing.T) {
			tag, payload, err := node.EncodeMessage(m)
			if err != nil {
				t.Fatal(err)
			}
			if len(payload) != m.WireSize() {
				t.Fatalf("encoded %d bytes, WireSize says %d", len(payload), m.WireSize())
			}
			got, err := node.DecodeMessage(tag, payload)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m, got) {
				t.Fatalf("round-trip mismatch:\n got %#v\nwant %#v", got, m)
			}
			if got.ID() != m.ID() {
				t.Fatal("round-trip changed message identity")
			}
		})
	}
}

// TestRetiredTagsDecodeAsUnknown pins the fate of tags 5 (a whole
// proposed body in one message) and 6 (one transaction, relayed
// verbatim): retired, never reused. A frame carrying either — here
// around a transaction encoded exactly as tag 6 used to carry it — is an
// unknown tag like any other, and no message type encodes to them.
func TestRetiredTagsDecodeAsUnknown(t *testing.T) {
	tx := sampleTx()
	for _, tag := range []byte{5, 6} {
		if m := node.NewMessage(tag); m != nil {
			t.Fatalf("retired tag %d still names %T", tag, m)
		}
		_, err := node.DecodeMessage(tag, wire.Encode(&tx))
		if err == nil || !strings.Contains(err.Error(), "unknown message tag") {
			t.Fatalf("retired tag %d: got %v, want the unknown-tag error", tag, err)
		}
	}
	for _, m := range gossipMessages() {
		if tag, _ := node.MessageTag(m); tag == 5 || tag == 6 {
			t.Fatalf("%T encodes to retired tag %d", m, tag)
		}
	}
}

// TestSigningBytesArePrefix pins the invariant "signing bytes ⊂ wire
// bytes": what a key signs is exactly the canonical encoding up to the
// signature field, so there is one byte layout per type.
func TestSigningBytesArePrefix(t *testing.T) {
	tx := sampleTx()
	vote := sampleVote()
	pri := samplePriority()
	cases := []struct {
		name    string
		m       wire.Marshaler
		signing []byte
	}{
		{"Transaction", &tx, tx.SigningBytes()},
		{"Vote", &vote, vote.SigningBytes()},
		{"PriorityMsg", &pri, pri.SigningBytes()},
	}
	for _, c := range cases {
		full := wire.Encode(c.m)
		if !bytes.HasPrefix(full, c.signing) {
			t.Fatalf("%s: signing bytes are not a prefix of the wire encoding", c.name)
		}
		// The only bytes beyond the signing prefix are the signature
		// field (u32 length + signature).
		if want := len(c.signing) + 4 + 64; len(full) != want {
			t.Fatalf("%s: %d wire bytes, want %d", c.name, len(full), want)
		}
	}
}

// TestWireSizeConstants pins the package-level size constants (used by
// the simulator's bandwidth model and txflow's block filling) to
// the canonical encodings of standard-size messages.
func TestWireSizeConstants(t *testing.T) {
	tx := sampleTx()
	if got := len(wire.Encode(&tx)); got != ledger.TxWireSize {
		t.Fatalf("TxWireSize %d, canonical encoding is %d", ledger.TxWireSize, got)
	}
	vote := sampleVote()
	if got := len(wire.Encode(&vote)); got != ledger.VoteWireSize {
		t.Fatalf("VoteWireSize %d, canonical encoding is %d", ledger.VoteWireSize, got)
	}
	pri := samplePriority()
	if got := len(wire.Encode(&pri)); got != blockprop.PriorityMsgWireSize {
		t.Fatalf("PriorityMsgWireSize %d, canonical encoding is %d", blockprop.PriorityMsgWireSize, got)
	}
	cert := sampleCert()
	if got := len(wire.Encode(cert)); got != ledger.CertWireSize(len(cert.Votes)) {
		t.Fatalf("CertWireSize %d, canonical encoding is %d", ledger.CertWireSize(len(cert.Votes)), got)
	}
	// A TxBatch is a u32 count plus the canonical transactions: its
	// WireSize must track TxWireSize exactly (drift check).
	batch := &node.TxBatch{Txns: sampleTxs(2)}
	if got, want := len(wire.Encode(batch)), 4+2*ledger.TxWireSize; got != want || got != batch.WireSize() {
		t.Fatalf("TxBatch encoding %d bytes, WireSize %d, constant math %d", got, batch.WireSize(), want)
	}
}

// TestTxBatchBytesFrozen holds a TxBatch to a frame encoded before its
// payments became objects of their own (PR 23): the same payments come
// out of it, the same bytes go back in, and ID and WireSize are what they
// were — the duplicate-suppression layer and the bandwidth model see the
// message they saw.
func TestTxBatchBytesFrozen(t *testing.T) {
	const (
		txA = "0102030000000000000000000000000000000000000000000000000000000000" + // From
			"0405060000000000000000000000000000000000000000000000000000000000" + // To
			"e803000000000000" + "0300000000000000" + "0700000000000000" + // Amount, Fee, Nonce
			"40000000" + // len(Sig)
			"5151515151515151515151515151515151515151515151515151515151515151" +
			"5151515151515151515151515151515151515151515151515151515151515151"
		txB = "aabb000000000000000000000000000000000000000000000000000000000000" +
			"cc00000000000000000000000000000000000000000000000000000000000000" +
			"0100000000000000" + "0000000000000000" + "0000000000010000" +
			"40000000" +
			"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" +
			"202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"
		frame    = "03000000" + txA + txB + txA
		id       = "0d7dfa75b476158502bf2b36ede02044e6085a034f038d98ca3df111ad42dcf3"
		wireSize = 472
	)
	frozen, err := hex.DecodeString(frame)
	if err != nil {
		t.Fatal(err)
	}
	var got node.TxBatch
	if err := wire.Decode(frozen, &got); err != nil {
		t.Fatalf("decoding the frozen frame: %v", err)
	}
	a := sampleTx()
	b := ledger.Transaction{From: crypto.PublicKey{0xaa, 0xbb}, To: crypto.PublicKey{0xcc}, Amount: 1, Nonce: 1 << 40}
	for i := 0; i < 64; i++ {
		b.Sig = append(b.Sig, byte(i))
	}
	want := []*ledger.Transaction{&a, &b, &a}
	if !reflect.DeepEqual(got.Txns, want) {
		t.Fatalf("decoded %+v, want %+v", got.Txns, want)
	}
	if got.Txns[0] == got.Txns[2] {
		t.Fatal("two payments of one batch decoded into one object")
	}
	for _, m := range []*node.TxBatch{&got, {Txns: want}} {
		if enc := wire.Encode(m); !bytes.Equal(enc, frozen) {
			t.Fatalf("re-encoded to %x, frozen frame is %x", enc, frozen)
		}
		if h := m.ID(); hex.EncodeToString(h[:]) != id {
			t.Fatalf("ID %x, frozen %s", h[:], id)
		}
		if m.WireSize() != wireSize {
			t.Fatalf("WireSize %d, frozen %d", m.WireSize(), wireSize)
		}
	}
}

// TestTxBatchDecodeRejectsHostileInputs pins the batch decoder's two
// caps: an element count beyond the protocol bound and a cumulative
// payload above MaxTxBatchBytes both fail cleanly (no panic, no
// allocation proportional to the claimed count).
func TestTxBatchDecodeRejectsHostileInputs(t *testing.T) {
	// Hostile count with no payload behind it.
	e := wire.NewEncoderSize(4)
	e.Int(1 << 30)
	if err := wire.Decode(e.Data(), new(node.TxBatch)); err == nil {
		t.Fatal("hostile count accepted")
	}
	// A too-large batch: enough oversized-signature transactions to
	// cross MaxTxBatchBytes while keeping the element count legal.
	tx := sampleTx()
	tx.Sig = bytes.Repeat([]byte{9}, 120)
	n := node.MaxTxBatchBytes/tx.WireSize() + 2
	big := &node.TxBatch{Txns: make([]*ledger.Transaction, n)}
	for i := range big.Txns {
		big.Txns[i] = &tx
	}
	if err := wire.Decode(wire.Encode(big), new(node.TxBatch)); err == nil {
		t.Fatal("oversized batch accepted")
	}
	// Truncated mid-transaction.
	ok := &node.TxBatch{Txns: sampleTxs(2)}
	data := wire.Encode(ok)
	if err := wire.Decode(data[:len(data)-10], new(node.TxBatch)); err == nil {
		t.Fatal("truncated batch accepted")
	}
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	s := ledger.NewStore(0, 1)
	b := sampleBlock()
	if !s.Put(b, sampleCert()) {
		t.Fatal("Put refused")
	}
	b2 := sampleBlock()
	b2.Round = 13
	if !s.Put(b2, nil) {
		t.Fatal("Put refused")
	}

	data := wire.Encode(s)
	got := new(ledger.Store)
	if err := wire.Decode(data, got); err != nil {
		t.Fatal(err)
	}
	if got.Rounds() != s.Rounds() || got.Bytes != s.Bytes {
		t.Fatalf("snapshot: %d rounds / %d bytes, want %d / %d",
			got.Rounds(), got.Bytes, s.Rounds(), s.Bytes)
	}
	gb, ok := got.Block(12)
	if !ok || gb.Hash() != b.Hash() {
		t.Fatal("block 12 lost in snapshot")
	}
	if _, ok := got.Cert(12); !ok {
		t.Fatal("cert 12 lost in snapshot")
	}
	// Deterministic: re-encoding the decoded store is byte-identical.
	if !bytes.Equal(data, wire.Encode(got)) {
		t.Fatal("snapshot re-encoding differs")
	}
}

// roundTripBlocks is every block the universal round-trip tables hold,
// the table's own and those that ride inside a gossip message, plus the
// shapes between them: payments without padding, padding without
// payments, and a body large enough to outgrow any buffer a smaller one
// left behind.
func roundTripBlocks() []*ledger.Block {
	blocks := []*ledger.Block{
		sampleBlock(),
		ledger.EmptyBlock(3, crypto.HashBytes("h"), crypto.HashBytes("s"), crypto.HashBytes("root")),
		sampleCheckpoint().Block,
	}
	for _, m := range gossipMessages() {
		switch m := m.(type) {
		case *node.BlockFill:
			blocks = append(blocks, m.Block)
		case *node.ChainReply:
			blocks = append(blocks, m.Blocks...)
		case *node.SnapshotReply:
			blocks = append(blocks, m.Checkpoint.Block)
		}
	}
	noPad, noTxns, big := sampleBlock(), sampleBlock(), sampleBlock()
	noPad.PayloadPadding = 0
	noTxns.Txns = nil
	for i := 0; i < 2000; i++ {
		tx := sampleTx()
		tx.Nonce = uint64(i)
		big.Txns = append(big.Txns, tx)
	}
	big.PayloadPadding = 1 << 20
	return append(blocks, noPad, noTxns, big)
}

// TestBlockHashIsThePaddingFreePrefix pins what a block's hash covers
// now that its preimage is built in a borrowed buffer: exactly the
// canonical encoding up to the materialized padding, whatever the buffer
// held before — large after small, small after large, and again.
func TestBlockHashIsThePaddingFreePrefix(t *testing.T) {
	blocks := roundTripBlocks()
	want := make([]crypto.Digest, len(blocks))
	for i, b := range blocks {
		full := wire.Encode(b)
		if len(full) != b.WireSize() {
			t.Fatalf("block %d: encoded %d bytes, WireSize says %d", i, len(full), b.WireSize())
		}
		want[i] = crypto.HashBytes("algorand.block", full[:b.WireSize()-b.PayloadPadding])
	}
	for pass := 0; pass < 3; pass++ {
		for i := range blocks {
			// Forwards, then backwards: every block follows a larger and a
			// smaller one at least once.
			if pass == 1 {
				i = len(blocks) - 1 - i
			}
			if got := blocks[i].Hash(); got != want[i] {
				t.Fatalf("pass %d, block %d: Hash() = %v, want H(encoding minus padding) = %v", pass, i, got, want[i])
			}
		}
	}
}

// TestPieceDigestIsThePaddingFreePrefix is the same statement for a
// piece's manifest entry.
func TestPieceDigestIsThePaddingFreePrefix(t *testing.T) {
	for _, index := range []int{0, 1, 0, 1} {
		p := samplePiece(index)
		full := wire.Encode(p)
		want := crypto.HashBytes("algorand.piece", full[:p.WireSize()-p.Padding()])
		if got := p.Digest(); got != want {
			t.Fatalf("piece %d: Digest() = %v, want H(encoding minus padding) = %v", index, got, want)
		}
	}
}
