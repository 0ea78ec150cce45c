package diskstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"algorand/internal/crypto"
	"algorand/internal/diskfault"
	"algorand/internal/ledger"
	"algorand/internal/metrics"
	"algorand/internal/wire"
)

// makeChain builds n linked blocks (rounds 1..n) with deterministic
// content and a one-vote certificate per block; certificates are not
// cryptographically valid — diskstore stores, the node verifies.
func makeChain(n int) ([]*ledger.Block, []*ledger.Certificate) {
	blocks := make([]*ledger.Block, n)
	certs := make([]*ledger.Certificate, n)
	prev := crypto.HashBytes("test.genesis", nil)
	for i := 0; i < n; i++ {
		round := uint64(i + 1)
		b := &ledger.Block{
			Round:          round,
			PrevHash:       prev,
			Seed:           crypto.HashUint64("test.seed", round, nil),
			PayloadPadding: 64 * i,
		}
		c := &ledger.Certificate{
			Round: round,
			Step:  3,
			Value: b.Hash(),
			Votes: []ledger.Vote{{Round: round, Step: 3, Value: b.Hash()}},
		}
		blocks[i], certs[i] = b, c
		prev = b.Hash()
	}
	return blocks, certs
}

// snapshot renders a store's archive image for byte-for-byte
// comparison: its shard, then round by round in ascending order the
// block and the certificate, if any.
func snapshot(s *Store) []byte {
	img := s.Recovered()
	var e wire.Encoder
	e.Uint64(0) // shard index
	e.Uint64(1) // shard count
	for r, left := uint64(0), img.Rounds(); left > 0; r++ {
		if b, ok := img.Block(r); ok {
			left--
			c, _ := img.Cert(r)
			e.Uint64(r)
			e.Bytes(refPair(1, b, c))
		}
	}
	return e.Data()
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	return mustOpenWith(t, dir, defaults(opts))
}

// mustOpenWith is mustOpen on settings of the test's.
func mustOpenWith(t *testing.T, dir string, cfg settings) *Store {
	t.Helper()
	s, err := open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tuned is Open's settings for opts with segments rotated past segBytes
// (0 keeps the package's size) and, if noSync, no fsync per record: the
// speed a test that builds long chains needs, at the crash-safety the
// package exists for.
func tuned(opts Options, segBytes int64, noSync bool) settings {
	cfg := defaults(opts)
	if segBytes > 0 {
		cfg.segBytes = segBytes
	}
	cfg.noSync = noSync
	return cfg
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	blocks, certs := makeChain(8)

	s := mustOpen(t, dir, Options{})
	for i, b := range blocks {
		if err := s.Append(b, certs[i]); err != nil {
			t.Fatalf("append round %d: %v", b.Round, err)
		}
	}
	want := snapshot(s)
	if got := s.Rounds(); got != 8 {
		t.Fatalf("Rounds = %d, want 8", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	st := r.Stats()
	if st.RecoveredRounds != 8 {
		t.Fatalf("recovered %d rounds, want 8", st.RecoveredRounds)
	}
	if st.TruncatedBytes != 0 || st.DroppedRecords != 0 {
		t.Fatalf("clean recovery reported damage: %+v", st)
	}
	if got := snapshot(r); !bytes.Equal(got, want) {
		t.Fatal("recovered archive is not byte-identical to the original")
	}
	for i, b := range blocks {
		rb, ok := r.Recovered().Block(b.Round)
		if !ok || rb.Hash() != b.Hash() {
			t.Fatalf("round %d block missing or wrong", b.Round)
		}
		if rc, ok := r.Recovered().Cert(b.Round); !ok || rc.Value != certs[i].Value {
			t.Fatalf("round %d certificate missing or wrong", b.Round)
		}
	}
}

// TestReplayIsNoOp: re-appending an already-durable chain (the restart
// path: RestoreFromArchive replays the recovered store through the
// commit path) must journal nothing.
func TestReplayIsNoOp(t *testing.T) {
	dir := t.TempDir()
	blocks, certs := makeChain(5)

	s := mustOpen(t, dir, Options{})
	for i, b := range blocks {
		if err := s.Append(b, certs[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	for i, b := range blocks {
		if err := r.Append(b, certs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.Appends != 0 {
		t.Fatalf("replay journaled %d records, want 0", st.Appends)
	}
}

// TestCertUpgrade: a tentative→final certificate upgrade journals a
// compact cert record, not a second copy of the block, and survives
// recovery.
func TestCertUpgrade(t *testing.T) {
	dir := t.TempDir()
	blocks, certs := makeChain(1)
	b := blocks[0]
	tentative := certs[0]
	final := &ledger.Certificate{
		Round: b.Round, Step: 0, Value: b.Hash(), Final: true,
		Votes: []ledger.Vote{{Round: b.Round, Value: b.Hash()}},
	}

	s := mustOpen(t, dir, Options{})
	if err := s.Append(b, tentative); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(b, final); err != nil {
		t.Fatal(err)
	}
	// Downgrade attempt is a no-op.
	if err := s.Append(b, tentative); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Appends != 2 {
		t.Fatalf("journaled %d records, want 2 (put + cert)", st.Appends)
	}
	s.Close()

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	c, ok := r.Recovered().Cert(b.Round)
	if !ok || !c.Final {
		t.Fatalf("recovered cert final=%v, want final certificate", ok && c.Final)
	}
}

// TestReconcileDurable: Append of another block for a round on disk
// (§8.2 fork repair, fork adoption) journals one reconcile record that
// replaces the block and drops its certificate, and a reopen replays the
// replacement; Append of a block already held, with no certificate,
// writes nothing.
func TestReconcileDurable(t *testing.T) {
	dir := t.TempDir()
	blocks, certs := makeChain(2)

	s := mustOpen(t, dir, Options{})
	for i, b := range blocks {
		if err := s.Append(b, certs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The canonical chain disagrees about round 2: adopt a different
	// block with no certificate of its own.
	fork := &ledger.Block{
		Round:    2,
		PrevHash: blocks[0].Hash(),
		Seed:     crypto.HashUint64("test.fork", 2, nil),
	}
	appends := s.Stats().Appends
	if err := s.Append(fork, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Appends - appends; got != 1 {
		t.Fatalf("the replacement journaled %d records, want 1", got)
	}
	if got, _ := s.Recovered().Block(2); got != fork {
		t.Fatal("the image kept the replaced block")
	}
	if _, ok := s.Recovered().Cert(2); ok {
		t.Fatal("the image kept the replaced block's certificate")
	}
	appends = s.Stats().Appends
	for _, b := range []*ledger.Block{fork, blocks[0]} { // without and with a certificate held
		if err := s.Append(b, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Appends - appends; got != 0 {
		t.Fatalf("appending held blocks without a certificate journaled %d records", got)
	}
	s.Close()

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	got, ok := r.Recovered().Block(2)
	if !ok || got.Hash() != fork.Hash() {
		t.Fatal("the replacement did not survive recovery")
	}
	if _, ok := r.Recovered().Cert(2); ok {
		t.Fatal("the dropped certificate came back after recovery")
	}
	if b1, ok := r.Recovered().Block(1); !ok || b1.Hash() != blocks[0].Hash() {
		t.Fatal("untouched round 1 damaged by the replacement")
	}
	if c1, ok := r.Recovered().Cert(1); !ok || c1.Value != blocks[0].Hash() {
		t.Fatal("untouched round 1 lost its certificate")
	}
}

// TestForeignShardSegmentRecoversNothing: every archive is shard 0 of 1,
// and a segment whose meta record names another shard belongs to someone
// else's archive: none of its records is applied.
func TestForeignShardSegmentRecoversNothing(t *testing.T) {
	dir := t.TempDir()
	blocks, certs := makeChain(3)
	seg := refFrame(refMeta(1, 3))
	for i, b := range blocks {
		seg = append(seg, refFrame(refPair(1, b, certs[i]))...)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := r.Rounds(); got != 0 {
		t.Fatalf("recovered %d rounds from another shard's segment, want 0", got)
	}
	if st := r.Stats(); st.RecoveredRecords != 0 || st.DroppedRecords != 4 {
		t.Fatalf("recovered %d records and dropped %d, want 0 and 4", st.RecoveredRecords, st.DroppedRecords)
	}
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var best string
	var bestSeq uint64
	for _, e := range entries {
		if seq, ok := segSeq(e.Name()); ok && seq >= bestSeq {
			bestSeq, best = seq, filepath.Join(dir, e.Name())
		}
	}
	if best == "" {
		t.Fatal("no segment files")
	}
	return best
}

// recordOffsets parses a segment's framing and returns each record's
// start offset and payload length.
func recordOffsets(t *testing.T, path string) (data []byte, offs []int, lens []int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off+headerSize <= len(data); {
		if binary.LittleEndian.Uint32(data[off:]) != recordMagic {
			break
		}
		l := int(binary.LittleEndian.Uint32(data[off+4:]))
		if off+headerSize+l > len(data) {
			break
		}
		offs = append(offs, off)
		lens = append(lens, l)
		off += headerSize + l
	}
	return data, offs, lens
}

// TestTornTailTruncated: a crash mid-append leaves a half-written
// record; recovery must cut it off at the record boundary and keep the
// durable prefix.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	blocks, certs := makeChain(4)
	s := mustOpen(t, dir, Options{})
	for i, b := range blocks {
		if err := s.Append(b, certs[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshot(s)
	s.Close()

	// Simulate the torn tail a SIGKILL mid-commit leaves behind: a
	// correct header claiming more payload than ever hit the disk.
	seg := lastSegment(t, dir)
	tail := make([]byte, headerSize+10)
	binary.LittleEndian.PutUint32(tail[0:4], recordMagic)
	binary.LittleEndian.PutUint32(tail[4:8], 4096) // claims 4 KiB, has 10 B
	binary.LittleEndian.PutUint32(tail[8:12], 0)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(tail)
	f.Close()
	sizeBefore := fileSize(t, seg)

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	st := r.Stats()
	if st.TruncatedBytes != int64(len(tail)) {
		t.Fatalf("truncated %d bytes, want %d", st.TruncatedBytes, len(tail))
	}
	if got := snapshot(r); !bytes.Equal(got, want) {
		t.Fatal("torn tail damaged the durable prefix")
	}
	if after := fileSize(t, seg); after != sizeBefore-int64(len(tail)) {
		t.Fatalf("segment size %d after recovery, want %d", after, sizeBefore-int64(len(tail)))
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCorruptRecordDropped: bit rot inside one record's payload drops
// exactly that record; framing resync keeps every later record.
func TestCorruptRecordDropped(t *testing.T) {
	dir := t.TempDir()
	blocks, certs := makeChain(3)
	s := mustOpen(t, dir, Options{})
	for i, b := range blocks {
		if err := s.Append(b, certs[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Flip one byte inside record 2 (records: 0=meta, 1..3=puts), i.e.
	// round 2's put.
	seg := lastSegment(t, dir)
	data, offs, lens := recordOffsets(t, seg)
	if len(offs) < 4 {
		t.Fatalf("found %d records, want ≥ 4", len(offs))
	}
	data[offs[2]+headerSize+lens[2]/2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	st := r.Stats()
	if st.DroppedRecords != 1 {
		t.Fatalf("dropped %d records, want 1 (stats %+v)", st.DroppedRecords, st)
	}
	if _, ok := r.Recovered().Block(2); ok {
		t.Fatal("corrupt round-2 record was not dropped")
	}
	for _, round := range []uint64{1, 3} {
		if _, ok := r.Recovered().Block(round); !ok {
			t.Fatalf("round %d lost despite intact record", round)
		}
	}
}

// TestRotateAndRetryOnFaults: scripted torn-write and fsync faults on
// the active segment must not lose data — the store rotates to a fresh
// segment and retries, and recovery sees every round.
func TestRotateAndRetryOnFaults(t *testing.T) {
	dir := t.TempDir()
	inj := diskfault.New(nil)
	// Tear the write crossing offset 150 of segment 1, then fail an
	// fsync on segment 2 once 100 bytes are down.
	inj.Script(segName(1), diskfault.Script{{After: 150, Act: diskfault.TornWrite}})
	inj.Script(segName(2), diskfault.Script{{After: 100, Act: diskfault.FailSync}})

	blocks, certs := makeChain(6)
	s := mustOpen(t, dir, Options{FS: inj})
	for i, b := range blocks {
		if err := s.Append(b, certs[i]); err != nil {
			t.Fatalf("append round %d under faults: %v", b.Round, err)
		}
	}
	want := snapshot(s)
	st := s.Stats()
	if st.WriteErrors == 0 || st.SyncErrors == 0 {
		t.Fatalf("faults did not fire: %+v (injector fired %d)", st, inj.Fired())
	}
	if st.Rotations < 2 {
		t.Fatalf("rotated %d times, want ≥ 2", st.Rotations)
	}
	s.Close()

	// Recovery through the real filesystem: the torn segment tails are
	// truncated, and every appended round survives.
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := snapshot(r); !bytes.Equal(got, want) {
		t.Fatalf("recovery after faults lost data (stats %+v)", r.Stats())
	}
}

// TestCorruptReadAtRecovery: a bad sector surfacing while recovery
// reads a segment back must drop only the affected record.
func TestCorruptReadAtRecovery(t *testing.T) {
	dir := t.TempDir()
	blocks, certs := makeChain(3)
	s := mustOpen(t, dir, Options{})
	for i, b := range blocks {
		if err := s.Append(b, certs[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	seg := lastSegment(t, dir)
	_, offs, lens := recordOffsets(t, seg)
	if len(offs) < 4 {
		t.Fatalf("found %d records, want ≥ 4", len(offs))
	}
	inj := diskfault.New(nil)
	inj.Script(filepath.Base(seg), diskfault.Script{
		{After: int64(offs[3] + headerSize + lens[3]/2), Act: diskfault.CorruptRead},
	})

	r, err := Open(dir, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if inj.Fired() != 1 {
		t.Fatalf("corrupt-read fired %d times, want 1", inj.Fired())
	}
	if st := r.Stats(); st.DroppedRecords != 1 {
		t.Fatalf("dropped %d records, want 1", st.DroppedRecords)
	}
	if _, ok := r.Recovered().Block(3); ok {
		t.Fatal("record read through a bad sector was trusted")
	}
	for _, round := range []uint64{1, 2} {
		if _, ok := r.Recovered().Block(round); !ok {
			t.Fatalf("round %d lost", round)
		}
	}
}

// TestSegmentRotationBySize: small segments roll over and recovery
// walks all of them in order.
func TestSegmentRotationBySize(t *testing.T) {
	dir := t.TempDir()
	blocks, certs := makeChain(12)
	s := mustOpenWith(t, dir, tuned(Options{}, 1024, false))
	for i, b := range blocks {
		if err := s.Append(b, certs[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshot(s)
	if st := s.Stats(); st.Rotations == 0 {
		t.Fatal("1 KiB segments never rotated across 12 rounds")
	}
	s.Close()

	entries, _ := os.ReadDir(dir)
	if len(entries) < 3 {
		t.Fatalf("%d segment files, want ≥ 3", len(entries))
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := snapshot(r); !bytes.Equal(got, want) {
		t.Fatal("multi-segment recovery mismatch")
	}
}

// TestClosedStore: writes after Close fail loudly.
func TestClosedStore(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	s.Close()
	blocks, certs := makeChain(1)
	if err := s.Append(blocks[0], certs[0]); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

// TestFaultSoak is the DISKFAULT_SOAK knob: randomized fault scripts
// (torn writes, failed writes, failed fsyncs) against random append
// schedules, asserting after every iteration that recovery restores
// exactly what Append reported durable. DISKFAULT_SOAK=200 runs 200
// iterations; unset runs a quick 10.
func TestFaultSoak(t *testing.T) {
	iters := 10
	if v := os.Getenv("DISKFAULT_SOAK"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad DISKFAULT_SOAK=%q", v)
		}
		iters = n
	}
	for it := 0; it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("iter=%d", it), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(0xD15C + it)))
			dir := t.TempDir()
			inj := diskfault.New(nil)
			// Script 1-3 write-side faults at random offsets over the
			// first few segments.
			for i := 0; i < 1+rng.Intn(3); i++ {
				acts := []diskfault.Action{diskfault.TornWrite, diskfault.FailWrite, diskfault.FailSync}
				inj.Script(segName(uint64(1+rng.Intn(2))), diskfault.Script{{
					After: int64(rng.Intn(4000)),
					Act:   acts[rng.Intn(len(acts))],
				}})
			}
			n := 3 + rng.Intn(10)
			blocks, certs := makeChain(n)
			s, err := open(dir, tuned(Options{FS: inj}, int64(512+rng.Intn(4096)), false))
			if err != nil {
				t.Fatalf("open under faults: %v", err)
			}
			durable := make(map[uint64]bool)
			for i, b := range blocks {
				c := certs[i]
				if rng.Intn(4) == 0 {
					c = nil // some rounds commit without a cert first
				}
				if err := s.Append(b, c); err == nil {
					durable[b.Round] = true
				}
			}
			want := snapshot(s)
			s.Close()

			r := mustOpen(t, dir, Options{})
			defer r.Close()
			got := snapshot(r)
			if !bytes.Equal(got, want) {
				t.Fatalf("recovery mismatch after faults (stats %+v, injector fired %d)",
					r.Stats(), inj.Fired())
			}
			for round := range durable {
				if _, ok := r.Recovered().Block(round); !ok {
					t.Fatalf("round %d reported durable but lost", round)
				}
			}
		})
	}
}

// makeCheckpoint builds a structurally valid checkpoint at the given
// round: n accounts, a block whose StateRoot commits the table, and a
// fake cert for the block (diskstore verifies structure, not
// committee signatures — that is the node's job).
func makeCheckpoint(round uint64, n int) *ledger.Checkpoint {
	var accounts []ledger.AccountRecord
	for i := 0; i < n; i++ {
		a := ledger.AccountRecord{
			Key:   crypto.PublicKey(crypto.HashUint64("test.cp.key", uint64(i), nil)),
			Money: uint64(500 + i),
		}
		if i%2 == 0 {
			a.Nonce = uint64(i)
		}
		accounts = append(accounts, a)
	}
	bal := (&ledger.Checkpoint{Accounts: accounts}).Balances()
	b := &ledger.Block{
		Round:     round,
		PrevHash:  crypto.HashUint64("test.cp.prev", round, nil),
		Seed:      crypto.HashUint64("test.cp.seed", round, nil),
		StateRoot: bal.Root(),
	}
	c := &ledger.Certificate{
		Round: round,
		Step:  3,
		Value: b.Hash(),
		Votes: []ledger.Vote{{Round: round, Step: 3, Value: b.Hash()}},
	}
	return ledger.CheckpointOf(b, c, bal)
}

// TestCheckpointDurable: checkpoints journal, survive recovery, and
// newest-by-round wins; stale or repeated checkpoints journal nothing.
func TestCheckpointDurable(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if _, ok := s.Checkpoint(); ok {
		t.Fatal("fresh store claims a checkpoint")
	}
	if err := s.AppendCheckpoint(makeCheckpoint(4, 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCheckpoint(makeCheckpoint(8, 5)); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Appends
	if err := s.AppendCheckpoint(makeCheckpoint(4, 5)); err != nil { // stale: no-op
		t.Fatal(err)
	}
	if err := s.AppendCheckpoint(makeCheckpoint(8, 5)); err != nil { // repeat: no-op
		t.Fatal(err)
	}
	if after := s.Stats().Appends; after != before {
		t.Fatalf("stale/repeat checkpoints journaled %d records", after-before)
	}
	s.Close()

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	cp, ok := r.Checkpoint()
	if !ok || cp.Round() != 8 {
		t.Fatalf("recovered checkpoint round %v, %v; want 8, true", cp, ok)
	}
	if _, err := cp.VerifyState(); err != nil {
		t.Fatalf("recovered checkpoint fails verification: %v", err)
	}
}

// TestCheckpointRejectsInvalid: a checkpoint whose account table does
// not hash to the header's state root never reaches the journal.
func TestCheckpointRejectsInvalid(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	cp := makeCheckpoint(4, 5)
	cp.Accounts[0].Money += 1_000_000
	if err := s.AppendCheckpoint(cp); err == nil {
		t.Fatal("tampered checkpoint accepted for journaling")
	}
	if st := s.Stats(); st.Appends != 0 {
		t.Fatalf("rejected checkpoint journaled %d records", st.Appends)
	}
}

// checkpointRecords returns the offsets/lengths of recCheckpoint
// records in a segment, in file order.
func checkpointRecords(t *testing.T, path string) (data []byte, offs []int, lens []int) {
	t.Helper()
	data, allOffs, allLens := recordOffsets(t, path)
	for i, off := range allOffs {
		if allLens[i] > 0 && data[off+headerSize] == recCheckpoint {
			offs = append(offs, off)
			lens = append(lens, allLens[i])
		}
	}
	return data, offs, lens
}

// TestTamperedCheckpointFallsBack: a checkpoint record rewritten on
// disk — with its CRC fixed up, so framing looks clean — fails
// structural verification at recovery and the previous good
// checkpoint is served instead. This is the torn-write/poisoning
// half of fast sync's durability story: the archive never hands the
// node a snapshot whose account table disagrees with the committed
// block header it rides with.
func TestTamperedCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.AppendCheckpoint(makeCheckpoint(4, 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCheckpoint(makeCheckpoint(8, 5)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Rewrite one byte deep inside the newer checkpoint's account table
	// and recompute the CRC so only content verification can catch it.
	seg := lastSegment(t, dir)
	data, offs, lens := checkpointRecords(t, seg)
	if len(offs) != 2 {
		t.Fatalf("found %d checkpoint records, want 2", len(offs))
	}
	off, l := offs[1], lens[1]
	data[off+headerSize+l-10] ^= 0x01 // inside the last account record
	payload := data[off+headerSize : off+headerSize+l]
	binary.LittleEndian.PutUint32(data[off+8:off+12], crc32.Checksum(payload, crcTable))
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if st := r.Stats(); st.DroppedRecords != 1 {
		t.Fatalf("dropped %d records, want 1 (the tampered checkpoint)", st.DroppedRecords)
	}
	cp, ok := r.Checkpoint()
	if !ok || cp.Round() != 4 {
		t.Fatalf("fallback checkpoint round %v, %v; want 4, true", cp, ok)
	}
	if _, err := cp.VerifyState(); err != nil {
		t.Fatalf("fallback checkpoint fails verification: %v", err)
	}
}

// TestTornCheckpointKeepsPrevious: a crash mid-checkpoint-write leaves
// a torn record; recovery truncates it and the previous checkpoint
// stays usable.
func TestTornCheckpointKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.AppendCheckpoint(makeCheckpoint(4, 5)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A half-written checkpoint record: correct framing header, payload
	// cut off mid-account-table.
	full := wire.Encode(makeCheckpoint(8, 5))
	payload := append([]byte{recCheckpoint}, full...)
	torn := make([]byte, headerSize+len(payload)/2)
	binary.LittleEndian.PutUint32(torn[0:4], recordMagic)
	binary.LittleEndian.PutUint32(torn[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(torn[8:12], crc32.Checksum(payload, crcTable))
	copy(torn[headerSize:], payload[:len(payload)/2])
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn)
	f.Close()

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if st := r.Stats(); st.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("truncated %d bytes, want %d", st.TruncatedBytes, len(torn))
	}
	cp, ok := r.Checkpoint()
	if !ok || cp.Round() != 4 {
		t.Fatalf("checkpoint after torn write: %v, %v; want round 4", cp, ok)
	}
}

// TestCheckpointUnderWriteFaults: rotate-and-retry covers checkpoint
// records like any other; a torn write on the active segment does not
// lose the checkpoint.
func TestCheckpointUnderWriteFaults(t *testing.T) {
	dir := t.TempDir()
	inj := diskfault.New(nil)
	inj.Script(segName(1), diskfault.Script{{After: 100, Act: diskfault.TornWrite}})
	s := mustOpen(t, dir, Options{FS: inj})
	if err := s.AppendCheckpoint(makeCheckpoint(4, 20)); err != nil {
		t.Fatalf("checkpoint under faults: %v", err)
	}
	if st := s.Stats(); st.WriteErrors == 0 {
		t.Fatalf("fault did not fire: %+v", st)
	}
	s.Close()

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	cp, ok := r.Checkpoint()
	if !ok || cp.Round() != 4 {
		t.Fatalf("checkpoint lost to write fault: %v, %v", cp, ok)
	}
}

// --- The record format, frozen ---------------------------------------------
//
// The reference below writes an archive the way this package first did:
// every payload built in an encoder of its own, every record a fresh
// slice with the header in front and the payload copied behind it. Its
// constants are spelt out, not shared with the package, so that the
// format cannot move without this file saying so.

func refFrame(payload []byte) []byte {
	rec := make([]byte, 12+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], 0x314C5741) // "AWL1"
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[8:12], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	copy(rec[12:], payload)
	return rec
}

func refMeta(shardIndex, shardCount uint64) []byte {
	var e wire.Encoder
	e.Byte(0)
	e.Uint32(1)
	e.Uint64(shardIndex)
	e.Uint64(shardCount)
	return e.Data()
}

// refPair is a put (kind 1) or reconcile (kind 3) payload.
func refPair(kind byte, b *ledger.Block, c *ledger.Certificate) []byte {
	var e wire.Encoder
	e.Byte(kind)
	b.EncodeTo(&e)
	e.Bool(c != nil)
	if c != nil {
		c.EncodeTo(&e)
	}
	return e.Data()
}

func refCert(round uint64, c *ledger.Certificate) []byte {
	var e wire.Encoder
	e.Byte(2)
	e.Uint64(round)
	c.EncodeTo(&e)
	return e.Data()
}

func refCheckpoint(cp *ledger.Checkpoint) []byte {
	return append([]byte{4}, wire.Encode(cp)...)
}

// refArchive lays records out in segments as the store does: a meta
// record opens every segment, and a segment that has reached segBytes
// takes no further record.
type refArchive struct {
	segBytes int
	segs     [][]byte
	records  [][]byte // every record in write order, meta records included
}

// open starts a segment, as Open and every rotation do.
func (a *refArchive) open() {
	a.segs = append(a.segs, nil)
	a.put(refMeta(0, 1))
}

func (a *refArchive) add(payload []byte) {
	if len(a.segs[len(a.segs)-1]) >= a.segBytes {
		a.open()
	}
	a.put(payload)
}

func (a *refArchive) put(payload []byte) {
	rec := refFrame(payload)
	a.records = append(a.records, rec)
	a.segs[len(a.segs)-1] = append(a.segs[len(a.segs)-1], rec...)
}

// opLogFS records every Write and Sync the store issues, in order.
type opLogFS struct {
	diskfault.FS
	ops *[]string
}

func (fs opLogFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &opLogFile{File: f, name: filepath.Base(name), ops: fs.ops}, nil
}

type opLogFile struct {
	diskfault.File
	name string
	ops  *[]string
}

func (f *opLogFile) Write(p []byte) (int, error) {
	*f.ops = append(*f.ops, fmt.Sprintf("write %s %d", f.name, len(p)))
	return f.File.Write(p)
}

func (f *opLogFile) Sync() error {
	*f.ops = append(*f.ops, "sync "+f.name)
	return f.File.Sync()
}

// TestRecordBytesMatchFrozenReference: records are framed in place in a
// borrowed buffer now, and nothing on disk may show it. A scripted run of
// every record kind — put with and without a certificate, a certificate
// for a block already there, a tentative→final upgrade, a replaced block
// with and without a certificate (reconcile records), two checkpoints, a
// dozen rotations — must leave segment files equal, byte for byte, to
// the reference's; each record must reach the
// file as exactly one Write of the whole record followed by one Sync;
// and an archive written the reference way must open to the same image.
func TestRecordBytesMatchFrozenReference(t *testing.T) {
	const segBytes = 700
	dir := t.TempDir()
	var ops []string
	s := mustOpenWith(t, dir, tuned(Options{FS: opLogFS{diskfault.OS(), &ops}}, segBytes, false))
	ref := &refArchive{segBytes: segBytes}
	ref.open()

	blocks, certs := makeChain(10)
	finalOf := func(b *ledger.Block) *ledger.Certificate {
		return &ledger.Certificate{Round: b.Round, Value: b.Hash(), Final: true,
			Votes: []ledger.Vote{{Round: b.Round, Value: b.Hash()}, {Round: b.Round, Step: 1, Value: b.Hash()}}}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	must(s.Append(blocks[0], certs[0]))
	ref.add(refPair(1, blocks[0], certs[0]))
	must(s.Append(blocks[1], nil))
	ref.add(refPair(1, blocks[1], nil))
	must(s.Append(blocks[1], certs[1])) // the certificate alone
	ref.add(refCert(2, certs[1]))
	must(s.Append(blocks[2], certs[2]))
	ref.add(refPair(1, blocks[2], certs[2]))
	must(s.Append(blocks[2], finalOf(blocks[2]))) // tentative → final
	ref.add(refCert(3, finalOf(blocks[2])))
	must(s.Append(blocks[2], certs[2])) // a downgrade writes nothing
	fork2 := &ledger.Block{Round: 2, PrevHash: blocks[0].Hash(), Seed: crypto.HashUint64("test.fork", 2, nil)}
	must(s.Append(fork2, nil)) // replaces round 2 and drops its certificate
	ref.add(refPair(3, fork2, nil))
	fork3 := &ledger.Block{Round: 3, PrevHash: fork2.Hash(), Seed: crypto.HashUint64("test.fork", 3, nil), PayloadPadding: 40}
	must(s.Append(fork3, finalOf(fork3)))
	ref.add(refPair(3, fork3, finalOf(fork3)))
	must(s.Append(fork3, finalOf(fork3))) // already so: writes nothing
	cp4 := makeCheckpoint(4, 5)
	must(s.AppendCheckpoint(cp4))
	ref.add(refCheckpoint(cp4))
	for i := 3; i < 10; i++ {
		must(s.Append(blocks[i], certs[i]))
		ref.add(refPair(1, blocks[i], certs[i]))
	}
	cp8 := makeCheckpoint(8, 9)
	must(s.AppendCheckpoint(cp8))
	ref.add(refCheckpoint(cp8))

	// One Write of the whole record, then one Sync, per record — before
	// Close adds its own last Sync.
	if len(ops) != 2*len(ref.records) {
		t.Fatalf("%d file operations for %d records, want one write and one sync each:\n%v", len(ops), len(ref.records), ops)
	}
	seg := 0
	for i, rec := range ref.records {
		if i > 0 && bytes.Equal(rec, ref.records[0]) {
			seg++ // a meta record opens the next segment
		}
		if want := fmt.Sprintf("write %s %d", segName(uint64(seg+1)), len(rec)); ops[2*i] != want {
			t.Fatalf("record %d: operation %q, want %q", i, ops[2*i], want)
		}
		if want := "sync " + segName(uint64(seg+1)); ops[2*i+1] != want {
			t.Fatalf("record %d: followed by %q, want %q", i, ops[2*i+1], want)
		}
	}
	if len(ref.segs) < 10 {
		t.Fatalf("the script rotated %d times, want a dozen", len(ref.segs)-1)
	}
	if st := s.Stats(); st.Appends != len(ref.records)-len(ref.segs) || st.Rotations != len(ref.segs)-1 {
		t.Fatalf("stats %+v, want %d appends and %d rotations", st, len(ref.records)-len(ref.segs), len(ref.segs)-1)
	}
	want := snapshot(s)
	must(s.Close())

	// The files, byte for byte.
	names, err := diskfault.OS().ReadDir(dir)
	must(err)
	if len(names) != len(ref.segs) {
		t.Fatalf("store wrote %d files %v, reference has %d segments", len(names), names, len(ref.segs))
	}
	for i, name := range names {
		got, err := os.ReadFile(filepath.Join(dir, name))
		must(err)
		if name != segName(uint64(i+1)) || !bytes.Equal(got, ref.segs[i]) {
			t.Fatalf("segment %d (%s, %d bytes) differs from the reference (%s, %d bytes)",
				i+1, name, len(got), segName(uint64(i+1)), len(ref.segs[i]))
		}
	}

	// An archive written the reference way opens to the same image.
	refDir := t.TempDir()
	for i, seg := range ref.segs {
		must(os.WriteFile(filepath.Join(refDir, segName(uint64(i+1))), seg, 0o644))
	}
	r := mustOpen(t, refDir, Options{})
	defer r.Close()
	if st := r.Stats(); st.DroppedRecords != 0 || st.TruncatedBytes != 0 || st.RecoveredRecords != len(ref.records) {
		t.Fatalf("reference archive did not open cleanly: %+v (wrote %d records)", st, len(ref.records))
	}
	if !bytes.Equal(snapshot(r), want) {
		t.Fatal("the reference archive opens to a different image than the store held")
	}
	if cp, ok := r.Checkpoint(); !ok || !bytes.Equal(wire.Encode(cp), wire.Encode(cp8)) {
		t.Fatal("the reference archive's newest checkpoint is not the one written last")
	}
}

// --- A segment that cannot be read in full ---------------------------------

// readFailFS fails every Read of one file once after bytes of it have
// been delivered: a medium error that is the read path's, not the
// data's. (diskfault scripts faults into writes and flips bytes on the
// way back; a read that errors out is needed only here.)
type readFailFS struct {
	diskfault.FS
	name  string
	after int
}

func (fs readFailFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != fs.name || flag != os.O_RDONLY {
		return f, err
	}
	return &readFailFile{File: f, left: fs.after}, nil
}

type readFailFile struct {
	diskfault.File
	left int
}

func (f *readFailFile) Read(p []byte) (int, error) {
	if f.left == 0 {
		return 0, diskfault.ErrInjected
	}
	if len(p) > f.left {
		p = p[:f.left]
	}
	n, err := f.File.Read(p)
	f.left -= n
	return n, err
}

// TestUnreadableSegmentCounted: a segment whose read fails half way used
// to be scanned as far as it went while Open reported nothing anywhere.
// Recovery stays total and the file stays as it is (the next Open may
// read it whole), but the operator's gauge now says one segment was not
// read in full.
func TestUnreadableSegmentCounted(t *testing.T) {
	dir := t.TempDir()
	blocks, certs := makeChain(6)
	s := mustOpen(t, dir, Options{})
	for i, b := range blocks {
		if err := s.Append(b, certs[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshot(s)
	s.Close()

	seg := lastSegment(t, dir)
	_, offs, lens := recordOffsets(t, seg)
	if len(offs) != 7 {
		t.Fatalf("found %d records, want 7 (meta and six rounds)", len(offs))
	}
	sizeBefore := fileSize(t, seg)
	reg := metrics.NewRegistry()
	unreadable := reg.Gauge("algorand_disk_unreadable_segments", "")

	// The read dies in the middle of round 4's record (record 0 is meta).
	fs := readFailFS{FS: diskfault.OS(), name: filepath.Base(seg), after: offs[4] + headerSize + lens[4]/2}
	r, err := Open(dir, Options{FS: fs, Metrics: reg})
	if err != nil {
		t.Fatalf("Open must stay total over a failing read: %v", err)
	}
	for round := uint64(1); round <= 6; round++ {
		if _, ok := r.Recovered().Block(round); ok != (round <= 3) {
			t.Fatalf("round %d recovered = %v; rounds 1-3 lie before the fault, 4-6 behind it", round, ok)
		}
	}
	if st := r.Stats(); st.TruncatedBytes != 0 || st.DroppedRecords != 0 || st.RecoveredRounds != 3 {
		t.Fatalf("stats after a failed read: %+v, want 3 rounds, nothing truncated, nothing dropped", st)
	}
	if after := fileSize(t, seg); after != sizeBefore {
		t.Fatalf("segment cut from %d to %d bytes on a read error", sizeBefore, after)
	}
	if got := unreadable.Load(); got != 1 {
		t.Fatalf("algorand_disk_unreadable_segments = %d, want 1", got)
	}
	r.Close()

	// The medium recovers: everything is still there, and the gauge
	// describes this Open, not the last one.
	again := mustOpen(t, dir, Options{Metrics: reg})
	defer again.Close()
	if !bytes.Equal(snapshot(again), want) {
		t.Fatal("a segment left alone after a read error did not recover in full later")
	}
	if got := unreadable.Load(); got != 0 {
		t.Fatalf("algorand_disk_unreadable_segments = %d after a clean Open, want 0", got)
	}
}

// --- Allocation budgets ------------------------------------------------------

// poolKeeps reports whether sync.Pool hands back what it was given. The
// race detector makes it drop a quarter of all Puts on purpose (and
// materializes the padding zeros in a temporary): a budget over borrowed
// buffers holds only where this does.
func poolKeeps() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != any(x) {
			return false
		}
	}
	return true
}

// paddedChain is makeChain at the benchmark's sizes: blocks padded to
// pad bytes, certificates of 24 full-size votes.
func paddedChain(n, pad int) ([]*ledger.Block, []*ledger.Certificate) {
	blocks, certs := makeChain(n)
	for i, b := range blocks {
		b.PayloadPadding = pad
		if i > 0 {
			b.PrevHash = blocks[i-1].Hash()
		}
		c := &ledger.Certificate{Round: b.Round, Step: 3, Value: b.Hash()}
		for v := 0; v < 24; v++ {
			c.Votes = append(c.Votes, ledger.Vote{
				Sender: crypto.PublicKey(crypto.HashUint64("test.voter", uint64(v), nil)),
				Round:  b.Round, Step: 3, Value: b.Hash(), PrevHash: b.PrevHash,
				SortProof: make([]byte, 80), Sig: make([]byte, 64),
			})
		}
		certs[i] = c
	}
	return blocks, certs
}

// allocatedBy returns the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAllocBudgetAppend guards the durable path's one buffer: journaling
// a 1 MB block with a 24-vote certificate, or a checkpoint carrying one,
// allocates a few kilobytes of bookkeeping — not the 2.2 MB of an
// encoder grown to the record and a second slice to copy it behind its
// header. Rotations (every fourth record at these sizes) are part of the
// steady state and inside the budget.
func TestAllocBudgetAppend(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool drops Puts here (race detector): every dropped buffer is allocated again")
	}
	// One P, as testing.AllocsPerRun arranges for itself: a goroutine that
	// changes P between two calls leaves the buffer in the old P's cache.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const budget = 16 << 10
	const warm, ops = 9, 8
	s := mustOpenWith(t, t.TempDir(), tuned(Options{}, 0, true))
	defer s.Close()
	blocks, certs := paddedChain(warm+ops, 1<<20)
	appendFrom := func(from, to int) {
		for i := from; i < to; i++ {
			if err := s.Append(blocks[i], certs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendFrom(0, warm)
	got := allocatedBy(func() { appendFrom(warm, warm+ops) }) / ops
	t.Logf("Append of a 1 MB block: %d bytes allocated per call", got)
	if got > budget {
		t.Errorf("Append of a 1 MB block allocates %d bytes, budget %d", got, budget)
	}

	cps := make([]*ledger.Checkpoint, warm+ops)
	for i := range cps {
		cp := makeCheckpoint(uint64(100+i), 16)
		cp.Block.PayloadPadding = 1 << 20
		cp.Cert.Value = cp.Block.Hash()
		cps[i] = cp
	}
	checkpointFrom := func(from, to int) {
		for i := from; i < to; i++ {
			if err := s.AppendCheckpoint(cps[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkpointFrom(0, warm)
	verify := allocatedBy(func() {
		for _, cp := range cps[warm:] {
			if _, err := cp.VerifyState(); err != nil {
				t.Fatal(err)
			}
		}
	})
	got = allocatedBy(func() { checkpointFrom(warm, warm+ops) })
	got = (max(got, verify) - verify) / ops
	t.Logf("AppendCheckpoint with a 1 MB block: %d bytes allocated per call beyond VerifyState's %d", got, verify/ops)
	if got > budget {
		t.Errorf("AppendCheckpoint with a 1 MB block allocates %d bytes beyond VerifyState's own, budget %d", got, budget)
	}
}

// TestAllocBudgetOpen guards the recovery scan's one buffer: Open reads
// every segment into the same memory, sized from the file, so what it
// allocates is bounded by the largest segment (plus what the recovered
// image itself takes) and not by five times all of them, which is what a
// fresh io.ReadAll per segment cost.
func TestAllocBudgetOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenWith(t, dir, tuned(Options{}, 1<<20, true))
	blocks, certs := paddedChain(18, 256<<10)
	for i := range blocks {
		if err := s.Append(blocks[i], certs[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	var largest, sum int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		size := fileSize(t, filepath.Join(dir, e.Name()))
		sum += size
		if size > largest {
			largest = size
		}
	}
	if len(entries) < 4 || sum < 4*largest/2 {
		t.Fatalf("%d segments, %d bytes in all, largest %d: the test wants several of similar size", len(entries), sum, largest)
	}
	var r *Store
	got := int64(allocatedBy(func() { r = mustOpenWith(t, dir, tuned(Options{}, 0, true)) }))
	defer r.Close()
	if r.Rounds() != len(blocks) {
		t.Fatalf("recovered %d rounds, want %d", r.Rounds(), len(blocks))
	}
	t.Logf("Open allocated %d bytes over %d segments (%d bytes, largest %d)", got, len(entries), sum, largest)
	// 1.2× the largest as measured, 2.2× under the race detector.
	if got > 3*largest {
		t.Errorf("Open allocated %d bytes over %d segments (%d bytes, largest %d): budget is three times the largest", got, len(entries), sum, largest)
	}
}

// --- Borrowed buffers under concurrency -------------------------------------

// TestConcurrentAppendAndHash: two stores journal block-sized records
// while four goroutines hash the same blocks, all out of the two shared
// pools. Every hash is compared with the one computed before the
// goroutines started and both archives must recover to what was
// appended: a buffer lent twice would show as a wrong hash, a record
// that fails its CRC on the way back, or a report from -race.
func TestConcurrentAppendAndHash(t *testing.T) {
	blocks, certs := paddedChain(12, 128<<10)
	for i, b := range blocks { // payments too, so preimages differ in size
		for j := 0; j < 40*(i%4); j++ {
			b.Txns = append(b.Txns, ledger.Transaction{Amount: uint64(j), Nonce: uint64(i), Sig: make([]byte, 64)})
		}
		certs[i].Value = b.Hash()
	}
	want := make([]crypto.Digest, len(blocks))
	for i, b := range blocks {
		want[i] = b.Hash()
	}

	dirs := []string{t.TempDir(), t.TempDir()}
	images := make([][]byte, len(dirs))
	var wg sync.WaitGroup
	for d := range dirs {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := open(dirs[d], tuned(Options{}, 512<<10, true))
			if err != nil {
				t.Error(err)
				return
			}
			for i := range blocks {
				if err := s.Append(blocks[i], certs[i]); err != nil {
					t.Errorf("store %d, round %d: %v", d, blocks[i].Round, err)
				}
			}
			if err := s.AppendCheckpoint(makeCheckpoint(uint64(50+d), 8)); err != nil {
				t.Errorf("store %d checkpoint: %v", d, err)
			}
			images[d] = snapshot(s)
			s.Close()
		}()
	}
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 400; n++ {
				i := (n*5 + g) % len(blocks)
				if got := blocks[i].Hash(); got != want[i] {
					t.Errorf("hasher %d: block %d hashed to %v, want %v", g, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()

	for d, dir := range dirs {
		r := mustOpen(t, dir, Options{})
		if st := r.Stats(); st.DroppedRecords != 0 || st.TruncatedBytes != 0 || st.RecoveredRounds != len(blocks) {
			t.Errorf("store %d reopened with damage: %+v", d, st)
		}
		if !bytes.Equal(snapshot(r), images[d]) {
			t.Errorf("store %d recovered to a different image than it held", d)
		}
		if cp, ok := r.Checkpoint(); !ok || cp.Round() != uint64(50+d) {
			t.Errorf("store %d lost its checkpoint", d)
		}
		r.Close()
	}
}

// BenchmarkAppend measures the fsync'd commit path.
func BenchmarkAppend(b *testing.B) {
	for _, sync := range []bool{true, false} {
		name := "fsync"
		if !sync {
			name = "nosync"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			s, err := open(dir, tuned(Options{}, 0, !sync))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			blocks, certs := makeChain(b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Append(blocks[i], certs[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecover measures Open over an existing chain.
func BenchmarkRecover(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("rounds=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			s, err := open(dir, tuned(Options{}, 0, true))
			if err != nil {
				b.Fatal(err)
			}
			blocks, certs := makeChain(n)
			for i := range blocks {
				if err := s.Append(blocks[i], certs[i]); err != nil {
					b.Fatal(err)
				}
			}
			s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := open(dir, tuned(Options{}, 0, true))
				if err != nil {
					b.Fatal(err)
				}
				if r.Rounds() != n {
					b.Fatalf("recovered %d rounds", r.Rounds())
				}
				r.Close()
			}
		})
	}
}
