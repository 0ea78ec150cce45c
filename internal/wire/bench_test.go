package wire_test

// Encode/decode microbenchmarks for the canonical codec, mirroring the
// gob-baseline measurements taken before the refactor (recorded in
// EXPERIMENTS.md): a Vote, a signed Transaction (as the one-transaction
// TxBatch that carries it), and a 1 MB block transfer with padding
// materialized.

import (
	"testing"

	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/node"
)

func benchVoteMsg() network.Message { return &node.VoteMsg{Vote: sampleVote()} }

func benchTxBatch() network.Message {
	return &node.TxBatch{Txns: sampleTxs(1)}
}

func benchBlock1MB() network.Message {
	txns := make([]ledger.Transaction, 16)
	for i := range txns {
		txns[i] = sampleTx()
		txns[i].Nonce = uint64(i)
	}
	b := sampleBlock()
	b.Txns = txns
	b.PayloadPadding = 0
	b.PayloadPadding = 1<<20 - b.WireSize()
	return &node.BlockFill{Block: b}
}

func benchEncode(b *testing.B, m network.Message) {
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		_, payload, err := node.EncodeMessage(m)
		if err != nil {
			b.Fatal(err)
		}
		n = len(payload)
	}
	b.ReportMetric(float64(n), "bytes/msg")
}

func benchDecode(b *testing.B, m network.Message) {
	tag, payload, err := node.EncodeMessage(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := node.DecodeMessage(tag, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeVote(b *testing.B)  { benchEncode(b, benchVoteMsg()) }
func BenchmarkWireEncodeTx(b *testing.B)    { benchEncode(b, benchTxBatch()) }
func BenchmarkWireEncodeBlock(b *testing.B) { benchEncode(b, benchBlock1MB()) }
func BenchmarkWireDecodeVote(b *testing.B)  { benchDecode(b, benchVoteMsg()) }
func BenchmarkWireDecodeTx(b *testing.B)    { benchDecode(b, benchTxBatch()) }
func BenchmarkWireDecodeBlock(b *testing.B) { benchDecode(b, benchBlock1MB()) }
