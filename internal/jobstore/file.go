package jobstore

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"uptimebroker/internal/faultfs"
	"uptimebroker/internal/obs"
)

// On-disk layout inside the data directory.
const (
	snapshotName = "jobs.snapshot.json"
	walName      = "jobs.wal"

	// fileSnapshotVersion guards the snapshot format.
	fileSnapshotVersion = 1
)

// ErrDegraded is the fail-stop latch: once any WAL write, fsync or
// compaction disk operation fails, the backend refuses all further
// mutations and every Append/Compact returns an error wrapping this
// sentinel (alongside the original cause). Appending past a partial
// write would interleave new records after a torn one, so the only
// safe behavior is read-only until an operator restarts onto healthy
// storage. The in-memory state remains consistent and readable.
var ErrDegraded = errors.New("jobstore: storage degraded; store is read-only")

// fileSnapshot is the on-disk snapshot envelope.
type fileSnapshot struct {
	Version int `json:"version"`
	Snapshot
}

// File is the durable Backend: a JSON-lines WAL appended on every
// event, compacted into an atomically renamed snapshot file. Replay
// reads the snapshot then folds the WAL on top; a torn final WAL
// line (the signature of a crash mid-append) is tolerated and
// truncates the replay there.
//
// By default appends reach the OS page cache and survive a process
// crash but not a power loss; WithFsync upgrades every append (and
// snapshot install) to an fsync for power-loss durability at a
// per-append latency cost the package benchmarks quantify, and
// WithGroupCommit keeps the same durability while coalescing
// concurrent appends into shared flushes. Under either, an
// EventProgress record is the one exception: it is written in order
// but acknowledged unflushed, and reaches the disk with the next
// durable append's flush.
//
// All filesystem access goes through a faultfs.FS (the real one by
// default; WithFS injects a simulated or faulty one), and any
// write/sync error latches the backend into the ErrDegraded
// read-only state.
type File struct {
	mu    sync.Mutex
	dir   string
	fs    faultfs.FS
	wal   faultfs.File
	st    *state
	fsync bool
	group bool

	// degraded, once set, is returned by every subsequent mutation. It
	// wraps ErrDegraded and the original disk error. Guarded by mu.
	degraded error

	// writeSeq counts records written to the WAL, under mu; the group
	// committer flushes up to a high-water mark of it.
	writeSeq uint64

	// gc is the group-commit gate: appends park on cond until a flush
	// covers their write, and the first parked append leads the next
	// flush. flushedSeq advances only on successful flushes; a failed
	// flush instead records failSeq/failErr for the writes it covered,
	// so a waiter whose bytes an earlier flush already made durable
	// can never pick up a later round's error. flushing serializes
	// leaders.
	gc struct {
		sync.Mutex
		cond       sync.Cond
		flushing   bool
		flushedSeq uint64
		failSeq    uint64
		failErr    error
	}

	// appendSeconds/fsyncSeconds time whole appends and individual WAL
	// flushes; nil unless WithMetricsRegistry attached a registry.
	appendSeconds *obs.Histogram
	fsyncSeconds  *obs.Histogram
}

// FileOption customizes OpenFile.
type FileOption func(*File)

// WithFsync makes every journal append fsync the WAL before
// returning, and every compaction fsync the snapshot before the
// rename commits it, so acknowledged events survive a power loss —
// not just a process crash. Expect each append to cost a disk flush;
// BenchmarkFileAppend reports the difference. Progress records are
// not flushed on their own: the next durable append's flush covers
// them.
func WithFsync() FileOption {
	return func(f *File) { f.fsync = true }
}

// WithGroupCommit gives appends the same power-loss durability as
// WithFsync — no Append returns before its bytes are flushed — but
// coalesces concurrent appends into one flush (group commit): the
// first append to need a flush leads it, everything written in the
// meantime rides along, and later appends wait for the next round.
// Under concurrent load this recovers most of the nosync throughput
// at fsync durability (one disk flush amortizes over the whole
// batch); a lone appender degrades to WithFsync behavior. Progress
// records do not wait for a flush; the next one covers them. It
// supersedes WithFsync when both are set.
func WithGroupCommit() FileOption {
	return func(f *File) { f.group = true }
}

// WithFS routes all of the backend's filesystem access through fsys
// instead of the real disk. This is the fault-injection seam: tests
// hand in a faultfs.Mem (crash simulation) or faultfs.Injector
// (scripted errors); production code omits it.
func WithFS(fsys faultfs.FS) FileOption {
	return func(f *File) {
		if fsys != nil {
			f.fs = fsys
		}
	}
}

// WithMetricsRegistry publishes WAL latency histograms on reg:
// jobstore_wal_append_seconds times whole appends (including any wait
// for a group-commit flush), jobstore_wal_fsync_seconds times the
// individual disk flushes — under group commit one flush covers many
// appends, which the two distributions together make visible.
func WithMetricsRegistry(reg *obs.Registry) FileOption {
	return func(f *File) {
		if reg == nil {
			return
		}
		buckets := obs.ExponentialBuckets(1e-6, 4, 11)
		f.appendSeconds = reg.Histogram("jobstore_wal_append_seconds",
			"Latency of WAL appends, including group-commit waits.", buckets)
		f.fsyncSeconds = reg.Histogram("jobstore_wal_fsync_seconds",
			"Latency of WAL fsync calls.", buckets)
	}
}

// OpenFile opens (creating if needed) the data directory and recovers
// its contents. The returned backend holds the WAL open for appending
// until Close.
func OpenFile(dir string, opts ...FileOption) (*File, error) {
	if dir == "" {
		return nil, errors.New("jobstore: empty data directory")
	}
	f := &File{dir: dir, fs: faultfs.OS()}
	f.gc.cond.L = &f.gc.Mutex
	for _, opt := range opts {
		opt(f)
	}

	if err := f.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: creating data dir: %w", err)
	}

	st := newState()
	snapPath := filepath.Join(dir, snapshotName)
	if sf, err := f.fs.OpenFile(snapPath, os.O_RDONLY, 0); err == nil {
		var snap fileSnapshot
		decodeErr := json.NewDecoder(sf).Decode(&snap)
		_ = sf.Close()
		if decodeErr != nil {
			return nil, fmt.Errorf("jobstore: decoding snapshot %s: %w", snapPath, decodeErr)
		}
		if snap.Version != fileSnapshotVersion {
			return nil, fmt.Errorf("jobstore: snapshot version %d, want %d", snap.Version, fileSnapshotVersion)
		}
		st = fromSnapshot(snap.Snapshot)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("jobstore: opening snapshot: %w", err)
	}

	walPath := filepath.Join(dir, walName)
	if err := replayWAL(f.fs, walPath, st); err != nil {
		return nil, err
	}
	wal, err := f.fs.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: opening WAL: %w", err)
	}
	f.wal = wal
	f.st = st
	return f, nil
}

// replayWAL folds every decodable WAL line into st. Decoding stops at
// the first malformed line: anything after a torn write is garbage by
// definition, and losing the torn tail is exactly the durability the
// journal promises.
func replayWAL(fsys faultfs.FS, path string, st *state) error {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobstore: opening WAL: %w", err)
	}
	defer func() { _ = f.Close() }()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil // torn tail: stop replay here
		}
		st.apply(ev)
	}
	if err := sc.Err(); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("jobstore: reading WAL: %w", err)
	}
	return nil
}

// Degraded returns the latched degraded error, or nil while the
// backend is healthy. Once non-nil it never clears: recovery is a
// restart onto healthy storage.
func (f *File) Degraded() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.degraded
}

// latchLocked records the first disk failure and flips the backend
// read-only. The returned (and stored) error wraps both the original
// cause and ErrDegraded, so errors.Is works against either. Callers
// hold f.mu.
func (f *File) latchLocked(op string, cause error) error {
	if f.degraded != nil {
		return f.degraded
	}
	f.degraded = fmt.Errorf("jobstore: %s: %w; %w", op, cause, ErrDegraded)
	return f.degraded
}

// Append implements Backend: one JSON line per event.
func (f *File) Append(ev Event) error {
	if f.appendSeconds == nil {
		return f.append(ev)
	}
	start := time.Now()
	err := f.append(ev)
	f.appendSeconds.ObserveSeconds(time.Since(start).Seconds())
	return err
}

func (f *File) append(ev Event) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("jobstore: encoding event: %w", err)
	}
	line = append(line, '\n')

	f.mu.Lock()
	if f.wal == nil {
		f.mu.Unlock()
		return errors.New("jobstore: backend closed")
	}
	if f.degraded != nil {
		err := f.degraded
		f.mu.Unlock()
		return err
	}
	if _, err := f.wal.Write(line); err != nil {
		// A failed write may have left a partial line; appending after
		// it would corrupt every later record. Latch fail-stop.
		err = f.latchLocked("appending event", err)
		f.mu.Unlock()
		return err
	}
	f.writeSeq++
	seq := f.writeSeq
	// Progress records are advisory: recovery fails a job that was
	// running anyway, so they are written in order but ride on the
	// next durable append's flush instead of paying for their own.
	durable := ev.Type != EventProgress
	if durable && f.fsync && !f.group {
		if err := f.syncWAL(f.wal); err != nil {
			// The kernel may have dropped the unflushed pages; nothing
			// written from here on is trustworthy. Latch fail-stop.
			err = f.latchLocked("syncing WAL", err)
			f.mu.Unlock()
			return err
		}
	}
	f.st.apply(ev)
	f.mu.Unlock()

	if durable && f.group {
		return f.awaitFlush(seq)
	}
	return nil
}

// syncWAL flushes the WAL, timing the call when instrumented.
func (f *File) syncWAL(wal faultfs.File) error {
	if f.fsyncSeconds == nil {
		return wal.Sync()
	}
	start := time.Now()
	err := wal.Sync()
	f.fsyncSeconds.ObserveSeconds(time.Since(start).Seconds())
	return err
}

// awaitFlush blocks until a WAL flush covers write seq — leading the
// flush itself when no one else is mid-flush. While one leader is in
// Sync, later appends keep writing and parking; the next leader's
// single Sync then covers the whole accumulated batch, which is the
// group-commit coalescing. A failed flush latches the backend
// degraded and wakes every parked writer with the error.
func (f *File) awaitFlush(seq uint64) error {
	g := &f.gc
	g.Lock()
	defer g.Unlock()
	for {
		// A successful flush covering seq wins outright — even if a
		// later round failed, these bytes are already on disk.
		if g.flushedSeq >= seq {
			return nil
		}
		if g.failSeq >= seq {
			return g.failErr
		}
		if !g.flushing {
			g.flushing = true
			g.Unlock()

			// Snapshot the covered high-water mark before syncing:
			// everything written up to here is on disk once Sync
			// returns.
			f.mu.Lock()
			high := f.writeSeq
			wal := f.wal
			deg := f.degraded
			f.mu.Unlock()
			var err error
			if deg != nil {
				err = deg
			} else if wal == nil {
				err = errors.New("jobstore: backend closed")
			} else if serr := f.syncWAL(wal); serr != nil {
				f.mu.Lock()
				err = f.latchLocked("syncing WAL", serr)
				f.mu.Unlock()
			}

			g.Lock()
			g.flushing = false
			if err == nil {
				if high > g.flushedSeq {
					g.flushedSeq = high
				}
			} else if high > g.failSeq {
				g.failSeq = high
				g.failErr = err
			}
			g.cond.Broadcast()
			continue
		}
		g.cond.Wait()
	}
}

// Compact implements Backend: write the folded state to a temp file
// in the same directory, rename it into place, fsync the directory so
// the rename survives power loss, then truncate and re-fsync the WAL.
// The durable rename is the commit point — a crash between rename and
// truncate replays WAL events that the snapshot already contains,
// which the fold absorbs (replay is idempotent per event), and a
// crash before the directory fsync simply leaves the old snapshot
// governing, with the WAL still intact behind it. The backend's own
// mutex orders it against concurrent Appends, so the caller holds no
// lock across this disk work.
func (f *File) Compact() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.wal == nil {
		return errors.New("jobstore: backend closed")
	}
	if f.degraded != nil {
		return f.degraded
	}
	snap := f.st.snapshot()

	tmp, err := f.fs.CreateTemp(f.dir, ".jobs-snapshot-*.json")
	if err != nil {
		return f.latchLocked("creating temp snapshot", err)
	}
	tmpName := tmp.Name()
	defer func() { _ = f.fs.Remove(tmpName) }() // no-op after rename
	enc := json.NewEncoder(tmp)
	if err := enc.Encode(fileSnapshot{Version: fileSnapshotVersion, Snapshot: snap}); err != nil {
		_ = tmp.Close()
		return f.latchLocked("encoding snapshot", err)
	}
	if f.fsync || f.group {
		if err := tmp.Sync(); err != nil {
			_ = tmp.Close()
			return f.latchLocked("syncing snapshot", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return f.latchLocked("closing temp snapshot", err)
	}
	if err := f.fs.Rename(tmpName, filepath.Join(f.dir, snapshotName)); err != nil {
		return f.latchLocked("installing snapshot", err)
	}
	if f.fsync || f.group {
		// POSIX renames are durable only once the parent directory's
		// entry reaches disk; without this, power loss after the WAL
		// truncate below could resurrect the old snapshot with the new
		// WAL gone.
		if err := f.fs.SyncDir(f.dir); err != nil {
			return f.latchLocked("syncing data dir", err)
		}
	}

	if err := f.wal.Truncate(0); err != nil {
		return f.latchLocked("truncating WAL", err)
	}
	if f.fsync || f.group {
		// Make the truncation itself durable; otherwise a crash can
		// replay pre-compaction records on top of the new snapshot's
		// future appends.
		if err := f.syncWAL(f.wal); err != nil {
			return f.latchLocked("syncing truncated WAL", err)
		}
	}
	if _, err := f.wal.Seek(0, io.SeekStart); err != nil {
		return f.latchLocked("rewinding WAL", err)
	}
	return nil
}

// Load implements Backend.
func (f *File) Load() (Snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st.snapshot(), nil
}

// Close implements Backend.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.wal == nil {
		return nil
	}
	err := f.wal.Close()
	f.wal = nil
	return err
}
