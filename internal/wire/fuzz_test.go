package wire_test

// FuzzDecode drives arbitrary bytes through the full untrusted-input
// surface: the frame reader and every tagged message decoder. The
// decoder must never panic — hostile length prefixes, counts and
// truncations surface as errors. Run longer with
//
//	go test -fuzz=FuzzDecode ./internal/wire
//
// (the CI workflow runs a short smoke).

import (
	"bytes"
	"testing"

	"algorand/internal/blockprop"
	"algorand/internal/node"
	"algorand/internal/wire"
)

func FuzzDecode(f *testing.F) {
	// Seed with every valid message encoding, framed and bare.
	for _, m := range gossipMessages() {
		tag, payload, err := node.EncodeMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tag, payload)
	}
	f.Add(byte(0), []byte{})
	f.Add(byte(255), bytes.Repeat([]byte{0xff}, 64))
	// A retired tag: 11 around the round and block hash it carried, as a
	// peer of an older build still sends it.
	f.Add(byte(11), make([]byte, 8+32))
	// Hostile TxBatch shapes: a count promising 2^30 transactions, and
	// a valid batch truncated mid-transaction.
	f.Add(node.TagTxBatch, []byte{0x00, 0x00, 0x00, 0x40})
	if tag, payload, err := node.EncodeMessage(
		&node.TxBatch{Txns: sampleTxs(1)}); err == nil {
		f.Add(tag, payload[:len(payload)-7])
	}

	// Hostile piece shapes: a padding count with nothing behind it, and a
	// first piece whose header smuggles transactions of its own.
	if tag, payload, err := node.EncodeMessage(
		&node.BlockPiece{P: samplePiece(1)}); err == nil {
		f.Add(tag, payload[:len(payload)-2048])
	}
	pri := samplePriority()
	smuggler := blockprop.NewPiece(pri.BlockHash, 0, 3, sampleBlock(), &pri, nil, 0)
	if tag, payload, err := node.EncodeMessage(
		&node.BlockPiece{P: smuggler}); err == nil {
		f.Add(tag, payload)
	}

	f.Fuzz(func(t *testing.T, tag byte, data []byte) {
		m, err := node.DecodeMessage(tag, data)
		if err == nil {
			// Anything that decodes must re-encode to its own WireSize
			// and decode again — the codec accepts only what it can
			// canonically represent.
			tag2, payload2, err := node.EncodeMessage(m)
			if err != nil {
				t.Fatalf("decoded message failed to encode: %v", err)
			}
			if tag2 != tag {
				t.Fatalf("tag changed %d -> %d", tag, tag2)
			}
			if len(payload2) != m.WireSize() {
				t.Fatalf("re-encoded %d bytes, WireSize says %d", len(payload2), m.WireSize())
			}
			if _, err := node.DecodeMessage(tag2, payload2); err != nil {
				t.Fatalf("re-encoded message failed to decode: %v", err)
			}
		}

		// The frame reader must also survive the same bytes.
		var framed bytes.Buffer
		framed.WriteByte(byte(len(data)))
		framed.Write(data)
		_, _, _ = wire.ReadFrame(&framed)
		_, _, _ = wire.ReadFrame(bytes.NewReader(data))
	})
}
