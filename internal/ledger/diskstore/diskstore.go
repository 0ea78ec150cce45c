// Package diskstore is the durable, crash-safe form of the §8.3 ledger
// archive: every committed (block, certificate) pair a node is
// responsible for is journaled through a checksummed write-ahead log of
// segmented archive files before the node proceeds, and recovered —
// trustlessly — on restart.
//
// On-disk layout: a data directory of segments named seg-%08d.wal,
// numbered from 1. Each segment is a sequence of records:
//
//	[4B magic "AWL1"][4B payload length][4B CRC-32C of payload][payload]
//
// all fixed fields little-endian. A payload is one kind byte followed
// by a body in the canonical internal/wire encoding:
//
//	meta      — format version, shard index, shard count (first record
//	            of every segment)
//	put       — block, has-cert bool, certificate
//	cert      — round, certificate (tentative→final upgrade without
//	            rewriting the block)
//	reconcile — block, has-cert bool, certificate (§8.2 fork repair;
//	            has-cert=false erases any stored certificate)
//	checkpoint — a ledger.Checkpoint: block header, certificate, and
//	            full account table at one committed round; the newest
//	            structurally valid one wins
//
// Durability rules: every record is fsync'd before Append/Reconcile
// returns (unless Options.NoSync), and a freshly created segment's
// directory is fsync'd so the file name itself survives power loss. A
// write or fsync failure poisons the active segment: the store rotates
// to a new segment and retries, so one bad sector cannot wedge the
// commit path.
//
// Recovery rules (Open): segments are scanned in order. A record whose
// header or payload extends past end-of-file is a torn tail — the
// segment is truncated at the record boundary and scanning stops, which
// is exactly the state a power loss mid-append leaves behind. A record
// with intact framing but a bad checksum or an undecodable body is
// dropped and scanning resyncs at the next record. Recovered rounds are
// replayed into an in-memory ledger.Store image; the node then
// re-verifies every certificate against the chain before trusting any
// of it (node.RestoreFromArchive), so the disk is trusted no more than
// a peer. Writing always starts a fresh segment — recovery never
// appends to a file it just repaired.
package diskstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"algorand/internal/crypto"
	"algorand/internal/diskfault"
	"algorand/internal/ledger"
	"algorand/internal/metrics"
	"algorand/internal/wire"
)

const (
	// recordMagic opens every record ("AWL1" little-endian).
	recordMagic uint32 = 0x314C5741
	// headerSize is the fixed record header: magic, length, CRC.
	headerSize = 12
	// maxRecordSize bounds a single record payload; anything larger in a
	// header is corruption, not data.
	maxRecordSize = 64 << 20
	// formatVersion is the on-disk format this package writes and reads.
	formatVersion = 1

	segPrefix = "seg-"
	segSuffix = ".wal"
)

// Record kinds (first payload byte).
const (
	recMeta byte = iota
	recPut
	recCert
	recReconcile
	recCheckpoint
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("diskstore: store is closed")

// Options configures Open.
type Options struct {
	// FS is the file abstraction to write through; nil means the real
	// filesystem. Tests pass a diskfault.Injector.
	FS diskfault.FS
	// ShardIndex/ShardCount give the §8.3 shard this archive persists
	// (count 0 means 1: keep everything). Must match an existing data
	// directory's meta records.
	ShardIndex uint64
	ShardCount uint64
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB).
	SegmentBytes int64
	// NoSync skips fsync after each record — only for benchmarks that
	// build long chains quickly; it forfeits the crash-safety the
	// package exists for.
	NoSync bool
	// Metrics receives the store's counters and recovery gauges
	// (algorand_disk_*). Nil gets a private registry, so Stats() works
	// standalone. Recovery gauges always describe the most recent Open;
	// the operational counters accumulate for the registry's lifetime
	// while Stats() reports them relative to Open.
	Metrics *metrics.Registry
}

// Stats counts what the store has done since (and during) Open.
type Stats struct {
	// RecoveredRounds is how many rounds the Open scan restored.
	RecoveredRounds int
	// RecoveredRecords is how many intact records the Open scan applied.
	RecoveredRecords int
	// TruncatedBytes is how much torn tail Open cut off segment files.
	TruncatedBytes int64
	// DroppedRecords counts records discarded for bad checksum or
	// undecodable body.
	DroppedRecords int
	// Appends counts records journaled since Open.
	Appends int
	// Rotations counts segment rollovers (size or fault driven).
	Rotations int
	// WriteErrors / SyncErrors count faults absorbed by rotate-and-retry.
	WriteErrors int
	SyncErrors  int
}

// recState is the durable image of one round, used to dedup journaling:
// replaying already-durable rounds (restart's RestoreFromArchive path)
// writes nothing.
type recState struct {
	hash      crypto.Digest
	hasCert   bool
	certFinal bool
}

// Store is the durable archive. All methods are safe for concurrent
// use.
type Store struct {
	mu sync.Mutex

	fs       diskfault.FS
	dir      string
	segBytes int64
	noSync   bool

	mem     *ledger.Store // in-memory image of everything durable
	durable map[uint64]recState

	// checkpoint is the newest structurally valid state snapshot on
	// disk (nil if none). Recovery drops checkpoint records that fail
	// ledger.Checkpoint.VerifyState, so a torn or tampered checkpoint
	// silently yields the previous good one.
	checkpoint *ledger.Checkpoint

	active     diskfault.File
	activeSeq  uint64
	activeSize int64
	broken     bool // active segment absorbed a write/sync fault
	closed     bool

	cnt storeCounters
	// base holds the operational counters' values at the end of Open,
	// so Stats() reports activity since Open even when the registry
	// (and thus the counters) outlives a restart.
	base struct {
		appends, rotations, writeErrors, syncErrors uint64
	}
}

// storeCounters is the store's registry-backed instrumentation.
// Recovery numbers are gauges — each Open overwrites them, so they
// always describe the latest recovery scan — while operational counts
// are cumulative counters.
type storeCounters struct {
	recoveredRounds  *metrics.Gauge
	recoveredRecords *metrics.Gauge
	truncatedBytes   *metrics.Gauge
	droppedRecords   *metrics.Gauge
	unreadable       *metrics.Gauge
	appends          *metrics.Counter
	rotations        *metrics.Counter
	writeErrors      *metrics.Counter
	syncErrors       *metrics.Counter
}

func newStoreCounters(r *metrics.Registry) storeCounters {
	return storeCounters{
		recoveredRounds:  r.Gauge("algorand_disk_recovered_rounds", "rounds restored by the last Open scan"),
		recoveredRecords: r.Gauge("algorand_disk_recovered_records", "intact records applied by the last Open scan"),
		truncatedBytes:   r.Gauge("algorand_disk_truncated_bytes", "torn tail bytes cut off by the last Open scan"),
		droppedRecords:   r.Gauge("algorand_disk_dropped_records", "records discarded by the last Open scan (bad checksum or body)"),
		unreadable:       r.Gauge("algorand_disk_unreadable_segments", "segments the last Open scan could not read in full (scanned as far as they went, not truncated)"),
		appends:          r.Counter("algorand_disk_appends_total", "records journaled"),
		rotations:        r.Counter("algorand_disk_rotations_total", "segment rollovers (size or fault driven)"),
		writeErrors:      r.Counter("algorand_disk_write_errors_total", "write faults absorbed by rotate-and-retry"),
		syncErrors:       r.Counter("algorand_disk_sync_errors_total", "fsync faults absorbed by rotate-and-retry"),
	}
}

// Open creates or recovers the archive in dir. Existing segments are
// scanned under the recovery rules in the package comment; a new active
// segment is then started for writing.
func Open(dir string, opts Options) (*Store, error) {
	fs := opts.FS
	if fs == nil {
		fs = diskfault.OS()
	}
	if opts.ShardCount == 0 {
		opts.ShardCount = 1
	}
	segBytes := opts.SegmentBytes
	if segBytes <= 0 {
		segBytes = 4 << 20
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Store{
		fs:       fs,
		dir:      dir,
		segBytes: segBytes,
		noSync:   opts.NoSync,
		mem:      ledger.NewStore(opts.ShardIndex, opts.ShardCount),
		durable:  make(map[uint64]recState),
		cnt:      newStoreCounters(reg),
	}
	// This Open's recovery scan starts from zero even if the registry
	// carries a previous incarnation's gauges (the restart path).
	s.cnt.recoveredRounds.Set(0)
	s.cnt.recoveredRecords.Set(0)
	s.cnt.truncatedBytes.Set(0)
	s.cnt.droppedRecords.Set(0)
	s.cnt.unreadable.Set(0)

	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	var maxSeq uint64
	var scan bytes.Buffer // every segment is read into this one buffer
	for _, name := range names {
		seq, ok := segSeq(name)
		if !ok {
			continue
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		if err := s.recoverSegment(filepath.Join(dir, name), opts, &scan); err != nil {
			return nil, err
		}
	}
	s.cnt.recoveredRounds.Set(int64(s.mem.Rounds()))

	s.activeSeq = maxSeq
	if err := s.rotateLocked(); err != nil {
		return nil, fmt.Errorf("diskstore: starting segment: %w", err)
	}
	// Baseline the operational counters so Stats() reports activity
	// since Open — the initial segment isn't a rollover.
	s.base.appends = s.cnt.appends.Load()
	s.base.rotations = s.cnt.rotations.Load()
	s.base.writeErrors = s.cnt.writeErrors.Load()
	s.base.syncErrors = s.cnt.syncErrors.Load()
	return s, nil
}

// segSeq parses a segment file name, reporting whether it is one.
func segSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

func segName(seq uint64) string { return fmt.Sprintf("seg-%08d.wal", seq) }

// recoverSegment scans one segment, applying intact records and
// truncating a torn tail in place. It reads the segment into scan, which
// the next one overwrites: nothing a wire.Decoder returns aliases it.
func (s *Store) recoverSegment(path string, opts Options, scan *bytes.Buffer) error {
	f, err := s.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	scan.Reset()
	if fi, err := f.Stat(); err == nil {
		scan.Grow(int(fi.Size()) + bytes.MinRead) // allocate once, not in doublings
	}
	_, rerr := scan.ReadFrom(f)
	f.Close()
	buf := scan.Bytes()
	if rerr != nil {
		// Scan whatever was readable; the unread rest is treated as a
		// torn tail below but not truncated (the read path, not the
		// data, may be at fault), and the segment is counted.
		s.cnt.unreadable.Add(1)
	}

	off := 0
	torn := false
	for off < len(buf) {
		rest := buf[off:]
		if len(rest) < headerSize {
			torn = true
			break
		}
		magic := binary.LittleEndian.Uint32(rest[0:4])
		length := binary.LittleEndian.Uint32(rest[4:8])
		sum := binary.LittleEndian.Uint32(rest[8:12])
		if magic != recordMagic || length > maxRecordSize {
			// A mangled header gives no trustworthy length to resync by:
			// everything from here is torn tail.
			torn = true
			break
		}
		if headerSize+int(length) > len(rest) {
			torn = true
			break
		}
		payload := rest[headerSize : headerSize+int(length)]
		if crc32.Checksum(payload, crcTable) != sum {
			// Framing is intact, so resync at the next record.
			s.cnt.droppedRecords.Add(1)
			off += headerSize + int(length)
			continue
		}
		if ok := s.applyRecord(payload, opts); ok {
			s.cnt.recoveredRecords.Add(1)
		} else {
			s.cnt.droppedRecords.Add(1)
		}
		off += headerSize + int(length)
	}

	if torn && rerr == nil && off < len(buf) {
		s.cnt.truncatedBytes.Add(int64(len(buf) - off))
		if err := s.truncate(path, int64(off)); err != nil {
			return err
		}
	}
	return nil
}

// truncate cuts a segment back to size and makes the cut durable.
func (s *Store) truncate(path string, size int64) error {
	f, err := s.fs.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("diskstore: truncating %s: %w", filepath.Base(path), err)
	}
	err = f.Truncate(size)
	if err == nil && !s.noSync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("diskstore: truncating %s: %w", filepath.Base(path), err)
	}
	return nil
}

// applyRecord replays one intact record into the in-memory image,
// reporting whether it was applied.
func (s *Store) applyRecord(payload []byte, opts Options) bool {
	d := wire.NewDecoder(payload)
	switch kind := d.Byte(); kind {
	case recMeta:
		version := d.Uint32()
		shardIndex := d.Uint64()
		shardCount := d.Uint64()
		if d.Finish() != nil || version != formatVersion {
			return false
		}
		// A shard mismatch means the directory belongs to someone else's
		// archive; refusing the record (rather than Open erroring) keeps
		// recovery total, and the caller sees zero recovered rounds.
		return shardIndex == opts.ShardIndex%opts.ShardCount && shardCount == opts.ShardCount
	case recPut, recReconcile:
		b := new(ledger.Block)
		b.DecodeFrom(d)
		var c *ledger.Certificate
		if d.Bool() {
			c = new(ledger.Certificate)
			c.DecodeFrom(d)
		}
		if d.Finish() != nil {
			return false
		}
		hash := b.Hash()
		if c != nil && c.Value != hash {
			return false
		}
		if kind == recPut {
			if !s.mem.Put(b, c) {
				return false
			}
		} else {
			s.mem.Reconcile(b, c)
		}
		s.noteDurable(b, hash)
		return true
	case recCheckpoint:
		cp := new(ledger.Checkpoint)
		cp.DecodeFrom(d)
		if d.Finish() != nil {
			return false
		}
		if _, err := cp.VerifyState(); err != nil {
			return false
		}
		if s.checkpoint == nil || cp.Round() > s.checkpoint.Round() {
			s.checkpoint = cp
		}
		return true
	case recCert:
		round := d.Uint64()
		c := new(ledger.Certificate)
		c.DecodeFrom(d)
		if d.Finish() != nil {
			return false
		}
		st, ok := s.durable[round] // holds the hash of the image's block
		if !ok || c.Value != st.hash {
			return false
		}
		b, _ := s.mem.Block(round)
		s.mem.Put(b, c)
		s.durable[round] = s.stateOf(round, st.hash)
		return true
	default:
		return false
	}
}

// stateOf is the dedup state of a round the image holds, given its hash.
func (s *Store) stateOf(round uint64, hash crypto.Digest) recState {
	c, ok := s.mem.Cert(round)
	return recState{hash: hash, hasCert: ok, certFinal: ok && c.Final}
}

// noteDurable refreshes the dedup state for b's round from the in-memory
// image. hash is b's; only another block held for the round is re-hashed.
func (s *Store) noteDurable(b *ledger.Block, hash crypto.Digest) {
	held, ok := s.mem.Block(b.Round)
	if !ok {
		return // a reconcile record of a round outside this shard
	}
	if held != b {
		hash = held.Hash()
	}
	s.durable[b.Round] = s.stateOf(b.Round, hash)
}

// rotateLocked closes the active segment (if any) and starts a fresh
// one, writing its meta record and fsyncing the directory so the new
// file name is durable. Caller holds s.mu.
func (s *Store) rotateLocked() error {
	if s.active != nil {
		s.active.Close()
		s.active = nil
		s.cnt.rotations.Inc()
	}
	s.activeSeq++
	s.activeSize = 0
	s.broken = false
	path := filepath.Join(s.dir, segName(s.activeSeq))
	f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	s.active = f

	// Not borrowed: the record that forced a rotation waits in the buffer.
	meta := frame(wire.NewEncoderSize(64), recMeta, func(e *wire.Encoder) {
		e.Uint32(formatVersion)
		e.Uint64(s.mem.ShardIndex)
		e.Uint64(s.mem.ShardCount)
	})
	if err := s.writeToActive(meta); err != nil {
		s.broken = true
		return err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		s.broken = true
		return err
	}
	return nil
}

// frame builds one record in e: 12 bytes left for the header, the
// payload encoded behind them, magic, length and CRC filled in place.
func frame(e *wire.Encoder, kind byte, body func(*wire.Encoder)) []byte {
	e.Zeros(headerSize)
	e.Byte(kind)
	body(e)
	rec := e.Data()
	binary.LittleEndian.PutUint32(rec[0:4], recordMagic)
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(rec)-headerSize))
	binary.LittleEndian.PutUint32(rec[8:12], crc32.Checksum(rec[headerSize:], crcTable))
	return rec
}

// recordBufs lends the buffers journaled records are framed in; the
// stores of a process write in turn, so one block-sized buffer serves all.
var recordBufs wire.Pool

// record journals one record, framed in a borrowed buffer. Caller holds s.mu.
func (s *Store) record(kind byte, body func(*wire.Encoder)) error {
	e := recordBufs.Get()
	defer recordBufs.Put(e)
	return s.journal(frame(e, kind, body))
}

// writeToActive writes and (unless NoSync) fsyncs one framed record to
// the active segment. Caller holds s.mu.
func (s *Store) writeToActive(rec []byte) error {
	if _, err := s.active.Write(rec); err != nil {
		s.cnt.writeErrors.Inc()
		return err
	}
	if !s.noSync {
		if err := s.active.Sync(); err != nil {
			s.cnt.syncErrors.Inc()
			return err
		}
	}
	s.activeSize += int64(len(rec))
	return nil
}

// journal writes one framed record durably, rotating to a fresh segment
// and retrying if the active one absorbs a fault. Caller holds s.mu.
func (s *Store) journal(rec []byte) error {
	if len(rec)-headerSize > maxRecordSize {
		return fmt.Errorf("diskstore: record of %d bytes exceeds maximum", len(rec)-headerSize)
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if s.active == nil || s.broken || s.activeSize >= s.segBytes {
			if err := s.rotateLocked(); err != nil {
				lastErr = err
				continue
			}
		}
		if err := s.writeToActive(rec); err != nil {
			// The segment's tail state is now unknown (a torn record may
			// be on disk); never append after it.
			s.broken = true
			lastErr = err
			continue
		}
		s.cnt.appends.Inc()
		return nil
	}
	return fmt.Errorf("diskstore: journal failed after retries: %w", lastErr)
}

// Append durably archives a committed (block, certificate) pair. Rounds
// outside this archive's shard, and rounds already durable in the same
// state, are no-ops — so replaying a recovered chain through Append
// (the restart path) writes nothing. The in-memory image always
// reflects the call even if the disk write errors, so a transient disk
// fault never desynchronizes the node's view; the error reports that
// durability was not achieved.
func (s *Store) Append(b *ledger.Block, c *ledger.Certificate) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if !s.mem.Put(b, c) {
		return nil // not this shard's round
	}
	hash := b.Hash()
	st, have := s.durable[b.Round]
	switch {
	case !have:
		err = s.record(recPut, func(e *wire.Encoder) { encodePair(e, b, c) })
	case st.hash == hash && c != nil && c.Value == hash &&
		(!st.hasCert || (c.Final && !st.certFinal)):
		// Same block, new or upgraded certificate: journal just the cert.
		err = s.record(recCert, func(e *wire.Encoder) {
			e.Uint64(b.Round)
			c.EncodeTo(e)
		})
	default:
		return nil // already durable in this state
	}
	if err == nil {
		s.noteDurable(b, hash)
	}
	return err
}

// encodePair is the body of a put or reconcile record.
func encodePair(e *wire.Encoder, b *ledger.Block, c *ledger.Certificate) {
	b.EncodeTo(e)
	e.Bool(c != nil)
	if c != nil {
		c.EncodeTo(e)
	}
}

// Reconcile durably forces the archive to the canonical block for a
// round (§8.2 fork repair), mirroring ledger.Store.Reconcile. Like
// Append it is a no-op when the durable state already matches.
func (s *Store) Reconcile(b *ledger.Block, c *ledger.Certificate) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.mem.Reconcile(b, c)
	nb, ok := s.mem.Block(b.Round)
	if !ok {
		return nil // not this shard's round
	}
	want := s.stateOf(b.Round, nb.Hash())
	if st, have := s.durable[b.Round]; have && st == want {
		return nil
	}
	nc, _ := s.mem.Cert(b.Round) // nil when the round has none
	if err := s.record(recReconcile, func(e *wire.Encoder) { encodePair(e, nb, nc) }); err != nil {
		return err
	}
	s.durable[b.Round] = want
	return nil
}

// AppendCheckpoint durably archives a state snapshot. Checkpoints not
// newer than the one already on disk are no-ops; structurally invalid
// ones (certificate for a different block, account table not matching
// the header's state root) are rejected outright — recovery would drop
// them anyway, so journaling them would only waste the bytes.
func (s *Store) AppendCheckpoint(cp *ledger.Checkpoint) error {
	if _, err := cp.VerifyState(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.checkpoint != nil && cp.Round() <= s.checkpoint.Round() {
		return nil
	}
	if err := s.record(recCheckpoint, cp.EncodeTo); err != nil {
		return err
	}
	s.checkpoint = cp
	return nil
}

// Checkpoint returns the newest durable state snapshot, if any. It is
// structurally verified (recovery drops records that are not), but the
// caller must still verify the certificate against the committee
// before trusting it — the disk is trusted no more than a peer.
func (s *Store) Checkpoint() (*ledger.Checkpoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpoint, s.checkpoint != nil
}

// Recovered returns the in-memory image of the durable archive — what
// Open restored plus everything appended since. The caller must treat
// it as untrusted input (re-verify certificates) exactly as it would a
// chain served by a peer; node.RestoreFromArchive does.
func (s *Store) Recovered() *ledger.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem
}

// Rounds returns how many rounds are durable.
func (s *Store) Rounds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.Rounds()
}

// Stats returns a snapshot of the store's counters: recovery numbers
// from the last Open, operational numbers since Open.
func (s *Store) Stats() Stats {
	return Stats{
		RecoveredRounds:  int(s.cnt.recoveredRounds.Load()),
		RecoveredRecords: int(s.cnt.recoveredRecords.Load()),
		TruncatedBytes:   s.cnt.truncatedBytes.Load(),
		DroppedRecords:   int(s.cnt.droppedRecords.Load()),
		Appends:          int(s.cnt.appends.Load() - s.base.appends),
		Rotations:        int(s.cnt.rotations.Load() - s.base.rotations),
		WriteErrors:      int(s.cnt.writeErrors.Load() - s.base.writeErrors),
		SyncErrors:       int(s.cnt.syncErrors.Load() - s.base.syncErrors),
	}
}

// Close syncs and closes the active segment. Further writes fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active == nil {
		return nil
	}
	var err error
	if !s.noSync && !s.broken {
		err = s.active.Sync()
	}
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	s.active = nil
	return err
}
