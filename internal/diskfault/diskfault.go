// Package diskfault wraps the file operations the durable ledger
// performs with deterministic, scripted fault injection: torn writes,
// outright write failures, fsync errors, and corrupt-sector reads, each
// fired at an exact byte offset of a named file's traffic.
//
// It is the disk analogue of internal/realnet/netfault: every
// crash-recovery path of internal/ledger/diskstore (torn-tail
// truncation, checksum discard, rotate-and-retry after a failed fsync)
// must be exercisable without real power loss or flaky hardware. A test
// that scripts "tear the write that crosses offset 4096 of seg-00000001"
// fails the same way every run. Scripts are explicit event lists — no
// clocks, no randomness — so a failing run replays exactly.
package diskfault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FS is the slice of a filesystem the durable ledger needs. The real
// implementation is OS(); tests interpose an Injector.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadDir returns the names (not paths) of dir's entries, sorted.
	ReadDir(dir string) ([]string, error)
	// MkdirAll creates dir and parents.
	MkdirAll(dir string, perm os.FileMode) error
	// Remove deletes a file.
	Remove(name string) error
	// SyncDir fsyncs a directory, making freshly created files durable
	// (a crash between creating a segment and syncing its directory can
	// otherwise lose the file name itself).
	SyncDir(dir string) error
}

// File is the handle interface the ledger writes through.
type File interface {
	io.Reader
	io.Writer
	Stat() (os.FileInfo, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// --- Real filesystem --------------------------------------------------------

type osFS struct{}

// OS returns the passthrough FS over the real filesystem.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- Fault injection --------------------------------------------------------

// Action is one kind of injected disk fault.
type Action int

const (
	// TornWrite delivers the in-flight write only up to the scripted
	// offset and then fails it — the on-disk state a power loss
	// mid-write leaves behind (a torn record tail).
	TornWrite Action = iota
	// FailWrite fails the first write at or past the scripted offset
	// outright; nothing of it reaches the disk (EIO / disk full).
	FailWrite
	// FailSync fails the first Sync call once the file has absorbed the
	// scripted offset's worth of writes (fsync reporting EIO — the
	// write may or may not be durable, and the writer must not assume).
	FailSync
	// CorruptRead flips the byte at the exact scripted offset of the
	// file as it is read back (bit rot / a bad sector surfacing at
	// recovery time).
	CorruptRead
)

func (a Action) String() string {
	switch a {
	case TornWrite:
		return "torn-write"
	case FailWrite:
		return "fail-write"
	case FailSync:
		return "fail-sync"
	case CorruptRead:
		return "corrupt-read"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Event is one scripted fault against one file. After is a byte offset:
// for TornWrite it is the absolute offset (in bytes written through the
// injector) at which the write tears; for FailWrite/FailSync the fault
// arms once that many bytes have been written; for CorruptRead it is
// the absolute file offset of the byte to flip on read-back.
type Event struct {
	After int64
	Act   Action
}

// Script is an ordered fault sequence for one file name. Write-side
// events fire in offset order; each event fires exactly once.
type Script []Event

// ErrInjected is the error returned by faulted operations.
var ErrInjected = errors.New("diskfault: injected fault")

// fileState is the per-name fault bookkeeping, shared across every open
// handle of that name (and across re-opens: offsets are cumulative for
// writes, absolute for reads).
type fileState struct {
	wQueue []Event // TornWrite/FailWrite/FailSync, offset order
	rQueue []Event // CorruptRead, offset order
	wrote  int64   // cumulative bytes written through the injector
}

// Injector is an FS decorator applying per-file-name fault scripts.
// Files without a script pass through untouched. Safe for concurrent
// use.
type Injector struct {
	base FS

	mu    sync.Mutex
	files map[string]*fileState
	fired int
}

// New wraps base (nil = the real filesystem) with fault injection.
func New(base FS) *Injector {
	if base == nil {
		base = OS()
	}
	return &Injector{base: base, files: make(map[string]*fileState)}
}

// Script registers a fault script for a file. The key is matched as a
// path suffix on component boundaries: "seg-00000001.wal" hits that
// segment in any directory, while "node-3/seg-00000001.wal" targets one
// node's archive in a multi-node data dir. The longest matching key
// wins. Replaces any prior script for that key.
func (in *Injector) Script(name string, s Script) {
	st := &fileState{}
	for _, ev := range s {
		if ev.Act == CorruptRead {
			st.rQueue = append(st.rQueue, ev)
		} else {
			st.wQueue = append(st.wQueue, ev)
		}
	}
	sort.SliceStable(st.wQueue, func(i, j int) bool { return st.wQueue[i].After < st.wQueue[j].After })
	sort.SliceStable(st.rQueue, func(i, j int) bool { return st.rQueue[i].After < st.rQueue[j].After })
	in.mu.Lock()
	in.files[name] = st
	in.mu.Unlock()
}

// Fired reports how many scripted events have triggered so far.
func (in *Injector) Fired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// OpenFile implements FS, attaching the name's script if one exists.
func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := in.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	st := in.lookup(name)
	if st == nil {
		return f, nil
	}
	return &faultFile{File: f, in: in, st: st}, nil
}

// lookup finds the longest script key that is a component-boundary
// suffix of path.
func (in *Injector) lookup(path string) *fileState {
	path = filepath.ToSlash(path)
	in.mu.Lock()
	defer in.mu.Unlock()
	var best *fileState
	bestLen := -1
	for key, st := range in.files {
		k := filepath.ToSlash(key)
		if len(k) > bestLen &&
			(path == k || strings.HasSuffix(path, "/"+k)) {
			best, bestLen = st, len(k)
		}
	}
	return best
}

// ReadDir implements FS.
func (in *Injector) ReadDir(dir string) ([]string, error) { return in.base.ReadDir(dir) }

// MkdirAll implements FS.
func (in *Injector) MkdirAll(dir string, perm os.FileMode) error { return in.base.MkdirAll(dir, perm) }

// Remove implements FS.
func (in *Injector) Remove(name string) error { return in.base.Remove(name) }

// SyncDir implements FS.
func (in *Injector) SyncDir(dir string) error { return in.base.SyncDir(dir) }

// faultFile applies one file's script. Read position is tracked per
// handle (recovery reads each file once, sequentially, from zero);
// write offsets are cumulative per name so scripts survive re-opens.
type faultFile struct {
	File
	in  *Injector
	st  *fileState
	pos int64 // read position of this handle
}

// Write transmits p, firing any scripted write-side fault whose offset
// falls inside it.
func (f *faultFile) Write(p []byte) (int, error) {
	f.in.mu.Lock()
	st := f.st
	var ev Event
	armed := false
	if len(st.wQueue) > 0 {
		next := st.wQueue[0]
		switch next.Act {
		case TornWrite:
			if next.After < st.wrote+int64(len(p)) {
				ev, armed = next, true
				st.wQueue = st.wQueue[1:]
			}
		case FailWrite, FailSync:
			if st.wrote >= next.After {
				if next.Act == FailWrite {
					ev, armed = next, true
					st.wQueue = st.wQueue[1:]
				}
				// FailSync arms here but fires in Sync.
			}
		}
	}
	f.in.mu.Unlock()

	if !armed {
		n, err := f.File.Write(p)
		f.addWrote(n)
		return n, err
	}
	switch ev.Act {
	case TornWrite:
		keep := ev.After - f.wroteNow()
		if keep < 0 {
			keep = 0
		}
		if keep > int64(len(p)) {
			keep = int64(len(p))
		}
		n, _ := f.File.Write(p[:keep])
		f.addWrote(n)
		f.in.bump()
		return n, fmt.Errorf("%w: torn write at offset %d", ErrInjected, ev.After)
	default: // FailWrite
		f.in.bump()
		return 0, fmt.Errorf("%w: write failed at offset %d", ErrInjected, ev.After)
	}
}

// Sync fires a pending FailSync once the armed offset has been written.
func (f *faultFile) Sync() error {
	f.in.mu.Lock()
	st := f.st
	if len(st.wQueue) > 0 {
		next := st.wQueue[0]
		if next.Act == FailSync && st.wrote >= next.After {
			st.wQueue = st.wQueue[1:]
			f.in.fired++
			f.in.mu.Unlock()
			return fmt.Errorf("%w: fsync failed after offset %d", ErrInjected, next.After)
		}
	}
	f.in.mu.Unlock()
	return f.File.Sync()
}

// Read receives into p, flipping scripted corrupt bytes whose absolute
// offsets fall inside the chunk.
func (f *faultFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	if n > 0 {
		f.in.mu.Lock()
		start := f.pos
		f.pos += int64(n)
		st := f.st
		for len(st.rQueue) > 0 {
			off := st.rQueue[0].After - start
			if off >= int64(n) {
				break
			}
			st.rQueue = st.rQueue[1:]
			if off >= 0 {
				p[off] ^= 0xFF
				f.in.fired++
			}
		}
		f.in.mu.Unlock()
	}
	return n, err
}

func (f *faultFile) addWrote(n int) {
	if n <= 0 {
		return
	}
	f.in.mu.Lock()
	f.st.wrote += int64(n)
	f.in.mu.Unlock()
}

func (f *faultFile) wroteNow() int64 {
	f.in.mu.Lock()
	defer f.in.mu.Unlock()
	return f.st.wrote
}

func (in *Injector) bump() {
	in.mu.Lock()
	in.fired++
	in.mu.Unlock()
}
