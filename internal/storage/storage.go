// Package storage implements the embedded database underlying Reprowd's
// crash-and-rerun guarantee.
//
// It is a log-structured key/value store in the bitcask tradition: all
// writes are appended to a numbered segment file as CRC-framed records, an
// in-memory key directory maps each key to the file offset of its newest
// frame, and sealed segments are periodically compacted. Recovery replays
// the segments in order, truncating a torn tail on the newest segment, so
// that a crashed writer loses at most its unsynced suffix and never observes
// corrupt data.
//
// The original Reprowd used SQLite for this role; see DESIGN.md for why this
// substitution preserves the paper-relevant behaviour (durable, point-
// addressable persistence of the task/result columns).
//
// Concurrency model: a DB is safe for concurrent use — reads take a
// shared RWMutex over the key directory and read frames at their
// recorded offsets; writes serialize under the exclusive side for the
// append+index update. ApplyDurable additionally coalesces fsyncs across
// concurrent callers (durableSeq tracking), which is the primitive the
// journal's group commit is built on. A directory LOCK file enforces the
// single-process-owner rule; compaction runs inline under the write lock.
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// SyncPolicy controls when appended frames are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every write. Slowest, fully durable.
	SyncAlways SyncPolicy = iota
	// SyncBatch fsyncs on a background interval (group commit) and at
	// explicit Sync/Close calls. A crash may lose the last interval.
	SyncBatch
	// SyncNever leaves flushing to the OS. A crash may lose any unflushed
	// data; integrity is still guaranteed by frame CRCs.
	SyncNever
)

// Options configure Open. The zero value is usable.
type Options struct {
	// MaxSegmentBytes caps the active segment before rotation.
	// Defaults to 64 MiB.
	MaxSegmentBytes int64
	// Sync selects the fsync policy. Defaults to SyncAlways.
	Sync SyncPolicy
	// SyncInterval is the group-commit interval for SyncBatch.
	// Defaults to 50ms.
	SyncInterval time.Duration
	// Repair salvages the valid prefix of a sealed segment whose tail
	// fails validation instead of refusing to open. Data after the first
	// bad frame of that segment is lost.
	Repair bool
	// BreakStaleLock removes a pre-existing LOCK file instead of failing.
	// Only safe when the previous owner is known to be dead.
	BreakStaleLock bool
	// ReadOnly opens the store for inspection: no directory lock is
	// taken, nothing on disk is modified (torn tails are skipped in
	// memory rather than truncated), and all mutating calls return
	// ErrReadOnly. Safe to use on a live writer's directory.
	ReadOnly bool
	// Metrics, when non-nil, registers the store's families (fsync/apply/
	// compaction latency histograms, operation counters, size gauges).
	// Nil disables instrumentation at zero hot-path cost.
	Metrics *obs.Registry
	// Clock paces the SyncBatch background flush loop. Nil defaults to
	// wall time; a simulated cluster injects its vclock.Sim so the sync
	// cadence elapses in virtual time.
	Clock vclock.Clock
	// FS seams the segment write path for fault injection (see FaultFS).
	// Nil uses the real filesystem. A write error through this seam
	// fail-stops the store: every later mutation returns ErrFailed — the
	// in-memory view can no longer be trusted to match disk, so the only
	// safe continuation is close, restart, recover.
	FS FileOps
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 64 << 20
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = vclock.NewWall()
	}
	if o.FS == nil {
		o.FS = osFileOps{}
	}
	return o
}

// Exported errors.
var (
	ErrClosed      = errors.New("storage: database is closed")
	ErrLocked      = errors.New("storage: database directory is locked by another process")
	ErrCorrupt     = errors.New("storage: corrupt segment")
	ErrKeyTooLarge = errors.New("storage: key exceeds MaxKeyLen")
	ErrValTooLarge = errors.New("storage: value exceeds MaxValueLen")
	ErrReadOnly    = errors.New("storage: database opened read-only")
	// ErrFailed marks a fail-stopped store: a segment append or fsync
	// errored, so the in-memory directory may describe bytes that never
	// reached disk. Every later mutation is refused — reads still serve
	// (they re-read frames and validate CRCs) — and the owner is expected
	// to treat the process like a crash: close, restart, recover.
	ErrFailed = errors.New("storage: write path failed; store is fail-stopped")
)

// Stats reports store counters and sizes.
type Stats struct {
	Keys       int   // live keys
	Segments   int   // segment files, including the active one
	LiveBytes  int64 // bytes occupied by live frames
	TotalBytes int64 // bytes across all segments
	DeadBytes  int64 // TotalBytes - LiveBytes
	Puts       uint64
	Gets       uint64
	Deletes    uint64
	Syncs      uint64
	// Applies counts batch frames committed via Apply/ApplyDurable.
	Applies uint64
	// SyncElides counts ApplyDurable calls that found their frame
	// already durable when they went to sync it — another caller's
	// concurrent fsync covered them, the group-commit win. (A frame the
	// caller's own policy-fsync covered is not counted.)
	SyncElides uint64
}

// DB is an open store. It is safe for concurrent use.
type DB struct {
	dir  string
	opts Options

	mu            sync.RWMutex
	closed        bool
	failed        error // first write-path error; non-nil = fail-stopped
	keydir        map[string]loc
	seq           uint64
	durableSeq    uint64 // frames with seq < durableSeq are on stable storage
	activeID      uint32
	active        SegmentFile
	activeSize    int64
	activeEntries []hintEntry
	liveBytes     int64
	totalBytes    int64
	writeBuf      []byte

	fmu   sync.Mutex
	files map[uint32]*os.File

	lockFile string

	stopSync chan struct{}
	syncWG   sync.WaitGroup
	needSync atomic.Bool

	nPuts, nGets, nDeletes, nSyncs atomic.Uint64
	nApplies, nSyncElides          atomic.Uint64

	// m holds the store's latency histograms; all nil (free no-ops) when
	// Options.Metrics is unset. The counters above stay authoritative —
	// /metrics reads them through closure-backed views.
	m dbMetrics
}

// dbMetrics are the store's instrumentation handles.
type dbMetrics struct {
	fsync   *obs.Histogram
	apply   *obs.Histogram
	compact *obs.Histogram
}

// initMetrics registers the store's families on reg (nil = off).
func (db *DB) initMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	db.m.fsync = reg.Histogram("reprowd_storage_fsync_seconds",
		"Latency of one fsync of the active segment.", nil)
	db.m.apply = reg.SampledHistogram("reprowd_storage_apply_seconds",
		"Latency of one batch apply (ApplyDurable includes the durability wait); 1-in-8 sampled — reprowd_storage_applies_total has the exact count.", nil, 8)
	db.m.compact = reg.Histogram("reprowd_storage_compact_seconds",
		"Wall time of one full compaction.", nil)
	reg.CounterFunc("reprowd_storage_puts_total", "Put operations.", db.nPuts.Load)
	reg.CounterFunc("reprowd_storage_gets_total", "Get operations.", db.nGets.Load)
	reg.CounterFunc("reprowd_storage_deletes_total", "Delete operations.", db.nDeletes.Load)
	reg.CounterFunc("reprowd_storage_fsyncs_total", "Fsyncs issued (all paths).", db.nSyncs.Load)
	reg.CounterFunc("reprowd_storage_applies_total", "Batch frames committed via Apply/ApplyDurable.", db.nApplies.Load)
	reg.CounterFunc("reprowd_storage_sync_elides_total",
		"ApplyDurable calls whose frame another caller's fsync already covered.", db.nSyncElides.Load)
	reg.GaugeFunc("reprowd_storage_keys", "Live keys in the directory.", func() float64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return float64(len(db.keydir))
	})
	reg.GaugeFunc("reprowd_storage_live_bytes", "Bytes occupied by live frames.", func() float64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return float64(db.liveBytes)
	})
	reg.GaugeFunc("reprowd_storage_total_bytes", "Bytes across all segment files.", func() float64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return float64(db.totalBytes)
	})
}

// fsyncActive fsyncs the active segment, timing it. Callers hold db.mu.
func (db *DB) fsyncActive() error {
	t := db.m.fsync.Start()
	err := db.active.Sync()
	db.m.fsync.Stop(t)
	return err
}

// Open opens (creating if necessary) the store in dir.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if opts.ReadOnly {
		if _, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("storage: open read-only: %w", err)
		}
		db := &DB{
			dir:    dir,
			opts:   opts,
			keydir: make(map[string]loc),
			files:  make(map[uint32]*os.File),
		}
		if err := db.recover(); err != nil {
			return nil, err
		}
		db.initMetrics(opts.Metrics)
		return db, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	lockPath := filepath.Join(dir, "LOCK")
	if opts.BreakStaleLock {
		os.Remove(lockPath)
	}
	lf, err := os.OpenFile(lockPath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, ErrLocked
		}
		return nil, fmt.Errorf("storage: acquire lock: %w", err)
	}
	lf.Close()

	db := &DB{
		dir:      dir,
		opts:     opts,
		keydir:   make(map[string]loc),
		files:    make(map[uint32]*os.File),
		lockFile: lockPath,
	}
	if err := db.recover(); err != nil {
		os.Remove(lockPath)
		return nil, err
	}
	db.durableSeq = db.seq
	db.initMetrics(opts.Metrics)
	if opts.Sync == SyncBatch {
		db.stopSync = make(chan struct{})
		db.syncWG.Add(1)
		go db.syncLoop()
	}
	return db, nil
}

// recover rebuilds the key directory from the segment files.
func (db *DB) recover() error {
	cutoff, err := readCutoff(db.dir)
	if err != nil {
		return err
	}
	ids, err := listSegments(db.dir)
	if err != nil {
		return err
	}
	// Drop segments superseded by a completed compaction (read-only
	// opens just skip them).
	kept := ids[:0]
	for _, id := range ids {
		if id < cutoff {
			if !db.opts.ReadOnly {
				if err := removeSegment(db.dir, id); err != nil {
					return fmt.Errorf("storage: remove stale segment %d: %w", id, err)
				}
			}
			continue
		}
		kept = append(kept, id)
	}
	ids = kept

	for i, id := range ids {
		last := i == len(ids)-1
		if err := db.replaySegment(id, last); err != nil {
			return err
		}
	}

	if db.opts.ReadOnly {
		// No active segment: reads go through lazily opened handles.
		if len(ids) > 0 {
			db.activeID = ids[len(ids)-1]
		}
		return nil
	}

	// Open or create the active segment.
	if len(ids) == 0 {
		db.activeID = 1
	} else {
		lastID := ids[len(ids)-1]
		path := segmentPath(db.dir, lastID)
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		if fi.Size() < db.opts.MaxSegmentBytes {
			f, err := db.opts.FS.OpenWrite(path)
			if err != nil {
				return err
			}
			db.activeID = lastID
			db.active = f
			db.activeSize = fi.Size()
			return nil
		}
		// Seal the full segment and start a fresh one.
		if err := db.writeHintForActive(lastID, fi.Size()); err != nil {
			return err
		}
		db.activeEntries = nil
		db.activeID = lastID + 1
	}
	f, err := db.opts.FS.OpenWrite(segmentPath(db.dir, db.activeID))
	if err != nil {
		return err
	}
	db.active = f
	db.activeSize = 0
	return syncDir(db.dir)
}

// replaySegment loads segment id into the key directory. For the last
// segment a torn tail is truncated; for sealed segments an invalid frame is
// corruption (unless Options.Repair).
func (db *DB) replaySegment(id uint32, last bool) error {
	path := segmentPath(db.dir, id)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}

	if !last {
		// Sealed segments may have a hint file.
		if entries, herr := readHint(db.dir, id, fi.Size()); herr == nil {
			// Hints are only written for segments without batch frames,
			// so size and acct coincide.
			for _, e := range entries {
				db.applyReplay(e.op, e.key, loc{segID: id, off: e.off, size: e.size, acct: e.size}, e.seq)
			}
			db.totalBytes += fi.Size()
			return nil
		}
	}

	apply := func(sr scanResult) error {
		l := loc{segID: id, off: sr.off, size: int32(sr.size), acct: int32(sr.size)}
		switch sr.rec.kind {
		case kindPut:
			db.applyReplay(kindPut, sr.rec.key, l, sr.rec.seq)
			if last {
				db.activeEntries = append(db.activeEntries, hintEntry{
					op: kindPut, key: append([]byte(nil), sr.rec.key...),
					off: sr.off, size: int32(sr.size), seq: sr.rec.seq,
				})
			}
		case kindDelete:
			db.applyReplay(kindDelete, sr.rec.key, l, sr.rec.seq)
			if last {
				db.activeEntries = append(db.activeEntries, hintEntry{
					op: kindDelete, key: append([]byte(nil), sr.rec.key...),
					off: sr.off, size: int32(sr.size), seq: sr.rec.seq,
				})
			}
		case kindBatch:
			// Sub-entries share the batch frame's loc; Get re-reads
			// the whole frame and picks the sub-entry out. The frame's
			// bytes are apportioned across sub-entries for accounting.
			bl := l
			bl.acct = apportion(sr.size, countBatchEntries(sr.rec.val))
			if err := decodeBatch(sr.rec.val, func(op byte, key, _ []byte) error {
				db.applyReplay(op, key, bl, sr.rec.seq)
				return nil
			}); err != nil {
				return err
			}
			if last {
				db.activeEntries = append(db.activeEntries, hintEntry{
					op: kindBatch, key: append([]byte(nil), sr.rec.key...),
					off: sr.off, size: int32(sr.size), seq: sr.rec.seq,
				})
			}
		default:
			return fmt.Errorf("%w: unknown frame kind %d", ErrCorrupt, sr.rec.kind)
		}
		if sr.rec.seq >= db.seq {
			db.seq = sr.rec.seq + 1
		}
		return nil
	}

	validLen, serr := scanSegment(path, apply)
	switch {
	case serr == nil:
		db.totalBytes += validLen
		return nil
	case errors.Is(serr, errFrameTruncated) || errors.Is(serr, errFrameChecksum) || errors.Is(serr, errFrameTooLarge):
		if !last && !db.opts.Repair {
			return fmt.Errorf("%w: segment %d at offset %d: %v", ErrCorrupt, id, validLen, serr)
		}
		// Torn write: keep the valid prefix. Read-only opens must not
		// modify the directory, so they only skip the tail in memory.
		if !db.opts.ReadOnly {
			if err := db.opts.FS.Truncate(path, validLen); err != nil {
				return fmt.Errorf("storage: truncate torn tail of segment %d: %w", id, err)
			}
		}
		db.totalBytes += validLen
		return nil
	default:
		return serr
	}
}

// applyReplay applies one logical operation during recovery. Replay runs in
// log order, so the newest frame for a key always wins.
func (db *DB) applyReplay(op byte, key []byte, l loc, _ uint64) {
	k := string(key)
	switch op {
	case kindPut:
		if old, ok := db.keydir[k]; ok {
			db.liveBytes -= int64(old.acct)
		}
		db.keydir[k] = l
		db.liveBytes += int64(l.acct)
	case kindDelete:
		if old, ok := db.keydir[k]; ok {
			db.liveBytes -= int64(old.acct)
			delete(db.keydir, k)
		}
	}
}

// Put stores val under key, replacing any existing value.
func (db *DB) Put(key, val []byte) error {
	if len(key) > MaxKeyLen {
		return ErrKeyTooLarge
	}
	if len(val) > MaxValueLen {
		return ErrValTooLarge
	}
	if db.opts.ReadOnly {
		return ErrReadOnly
	}
	db.nPuts.Add(1)
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.appendLocked(kindPut, key, val)
}

// Delete removes key. Deleting an absent key is a no-op that still writes a
// tombstone.
func (db *DB) Delete(key []byte) error {
	if len(key) > MaxKeyLen {
		return ErrKeyTooLarge
	}
	if db.opts.ReadOnly {
		return ErrReadOnly
	}
	db.nDeletes.Add(1)
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.appendLocked(kindDelete, key, nil)
}

// appendLocked encodes and appends a frame, updating in-memory state.
// Callers hold db.mu.
//
// A failed append fail-stops the store (failLocked): the bytes on disk
// are now a torn prefix the in-memory view knows nothing about, and a
// later append would land mid-frame. The caller's error is the proof the
// write was never acked; recovery truncates the torn tail.
func (db *DB) appendLocked(kind byte, key, val []byte) error {
	if db.failed != nil {
		return db.failed
	}
	seq := db.seq
	db.seq++
	db.writeBuf = appendFrame(db.writeBuf[:0], record{kind: kind, seq: seq, key: key, val: val})
	n := len(db.writeBuf)
	off := db.activeSize
	if _, err := db.active.Write(db.writeBuf); err != nil {
		return db.failLocked(fmt.Errorf("storage: append: %w", err))
	}
	db.activeSize += int64(n)
	db.totalBytes += int64(n)
	l := loc{segID: db.activeID, off: off, size: int32(n), acct: int32(n)}

	switch kind {
	case kindPut:
		db.applyReplay(kindPut, key, l, seq)
		db.activeEntries = append(db.activeEntries, hintEntry{op: kindPut, key: append([]byte(nil), key...), off: off, size: int32(n), seq: seq})
	case kindDelete:
		db.applyReplay(kindDelete, key, l, seq)
		db.activeEntries = append(db.activeEntries, hintEntry{op: kindDelete, key: append([]byte(nil), key...), off: off, size: int32(n), seq: seq})
	case kindBatch:
		bl := l
		bl.acct = apportion(n, countBatchEntries(val))
		if err := decodeBatch(val, func(op byte, k, _ []byte) error {
			db.applyReplay(op, k, bl, seq)
			return nil
		}); err != nil {
			return err
		}
		db.activeEntries = append(db.activeEntries, hintEntry{op: kindBatch, key: nil, off: off, size: int32(n), seq: seq})
	}

	if err := db.maybeSyncLocked(); err != nil {
		return err
	}
	if db.activeSize >= db.opts.MaxSegmentBytes {
		return db.rotateLocked()
	}
	return nil
}

func (db *DB) maybeSyncLocked() error {
	switch db.opts.Sync {
	case SyncAlways:
		db.nSyncs.Add(1)
		if err := db.fsyncActive(); err != nil {
			return db.failLocked(err)
		}
		db.durableSeq = db.seq
	case SyncBatch:
		db.needSync.Store(true)
	}
	return nil
}

// failLocked fail-stops the store with err as the terminal cause and
// returns the error it recorded (idempotent — the first cause wins).
// Callers hold db.mu.
func (db *DB) failLocked(err error) error {
	if db.failed == nil {
		db.failed = fmt.Errorf("%w: %w", ErrFailed, err)
	}
	return db.failed
}

// Failed reports the fail-stop cause, nil while the store is healthy.
func (db *DB) Failed() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.failed
}

// rotateLocked seals the active segment and starts a new one. Any
// failure fail-stops the store: a half-finished rotation (sealed but not
// reopened, or unsealed hint state) has no safe continuation short of
// recovery.
func (db *DB) rotateLocked() error {
	if err := db.fsyncActive(); err != nil {
		return db.failLocked(err)
	}
	db.durableSeq = db.seq
	if err := db.writeHintForActive(db.activeID, db.activeSize); err != nil {
		return db.failLocked(err)
	}
	if err := db.active.Close(); err != nil {
		return db.failLocked(err)
	}
	db.activeEntries = nil
	db.activeID++
	f, err := db.opts.FS.OpenWrite(segmentPath(db.dir, db.activeID))
	if err != nil {
		return db.failLocked(err)
	}
	db.active = f
	db.activeSize = 0
	if err := syncDir(db.dir); err != nil {
		return db.failLocked(err)
	}
	return nil
}

// writeHintForActive writes the hint file for the segment being sealed.
// Batch frames are not representable in hints, so a segment containing any
// batch frame gets no hint (recovery scans it instead).
func (db *DB) writeHintForActive(id uint32, size int64) error {
	for _, e := range db.activeEntries {
		if e.op == kindBatch {
			return nil
		}
	}
	return writeHint(db.dir, id, size, db.activeEntries)
}

// Get returns the value stored under key. ok is false if the key is absent.
// The returned slice is owned by the caller.
func (db *DB) Get(key []byte) (val []byte, ok bool, err error) {
	db.nGets.Add(1)
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.getLocked(key)
}

func (db *DB) getLocked(key []byte) ([]byte, bool, error) {
	if db.closed {
		return nil, false, ErrClosed
	}
	l, ok := db.keydir[string(key)]
	if !ok {
		return nil, false, nil
	}
	rec, err := db.readRecord(l)
	if err != nil {
		return nil, false, err
	}
	switch rec.kind {
	case kindPut:
		return append([]byte(nil), rec.val...), true, nil
	case kindBatch:
		var (
			found []byte
			have  bool
		)
		err := decodeBatch(rec.val, func(op byte, k, v []byte) error {
			if op == kindPut && string(k) == string(key) {
				found = append(found[:0], v...)
				have = true
			}
			return nil
		})
		if err != nil {
			return nil, false, err
		}
		if !have {
			return nil, false, fmt.Errorf("%w: key indexed into batch frame that lacks it", ErrCorrupt)
		}
		return append([]byte(nil), found...), true, nil
	default:
		return nil, false, fmt.Errorf("%w: keydir points at frame kind %d", ErrCorrupt, rec.kind)
	}
}

// sharedReader is ScanShared's read state: one frame buffer reused
// across keys, and the puts of the last batch frame it decoded (values
// aliasing buf). A group-commit batch holds many consecutive keys, so a
// scan reads and decodes each batch frame once, not once per key.
type sharedReader struct {
	buf       []byte
	batchSeg  uint32
	batchOff  int64
	batch     map[string][]byte // last put per key; valid while haveBatch
	haveBatch bool
}

// getLockedShared is getLocked with the frame read into r's buffer and
// the returned value aliasing it: the caller must consume val before its
// next call and never retain it. This is the allocation-free half of
// ScanShared.
func (db *DB) getLockedShared(key string, r *sharedReader) ([]byte, bool, error) {
	if db.closed {
		return nil, false, ErrClosed
	}
	l, ok := db.keydir[key]
	if !ok {
		return nil, false, nil
	}
	if r.haveBatch && l.segID == r.batchSeg && l.off == r.batchOff {
		return r.batchValue(key)
	}
	f, err := db.fileFor(l.segID)
	if err != nil {
		return nil, false, err
	}
	// The read below overwrites the buffer the cached batch aliases.
	r.haveBatch = false
	if cap(r.buf) < int(l.size) {
		r.buf = make([]byte, l.size)
	}
	buf := r.buf[:l.size]
	if _, err := f.ReadAt(buf, l.off); err != nil {
		return nil, false, fmt.Errorf("storage: read frame: %w", err)
	}
	rec, n, err := decodeFrame(buf)
	if err != nil {
		return nil, false, err
	}
	if n != int(l.size) {
		return nil, false, fmt.Errorf("storage: frame size mismatch: indexed %d, decoded %d", l.size, n)
	}
	switch rec.kind {
	case kindPut:
		return rec.val, true, nil
	case kindBatch:
		if r.batch == nil {
			r.batch = make(map[string][]byte)
		}
		clear(r.batch)
		if err := decodeBatch(rec.val, func(op byte, k, v []byte) error {
			if op == kindPut {
				r.batch[string(k)] = v
			}
			return nil
		}); err != nil {
			return nil, false, err
		}
		r.batchSeg, r.batchOff, r.haveBatch = l.segID, l.off, true
		return r.batchValue(key)
	default:
		return nil, false, fmt.Errorf("%w: keydir points at frame kind %d", ErrCorrupt, rec.kind)
	}
}

// batchValue looks key up in the cached batch frame.
func (r *sharedReader) batchValue(key string) ([]byte, bool, error) {
	v, ok := r.batch[key]
	if !ok {
		return nil, false, fmt.Errorf("%w: key indexed into batch frame that lacks it", ErrCorrupt)
	}
	return v, true, nil
}

// Has reports whether key is present.
func (db *DB) Has(key []byte) (bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return false, ErrClosed
	}
	_, ok := db.keydir[string(key)]
	return ok, nil
}

// readRecord fetches and validates the frame at l.
func (db *DB) readRecord(l loc) (record, error) {
	f, err := db.fileFor(l.segID)
	if err != nil {
		return record{}, err
	}
	return readFrameAt(f, l.off, l.size)
}

// fileFor returns a read handle for segment id, opening lazily.
func (db *DB) fileFor(id uint32) (*os.File, error) {
	if id == db.activeID {
		// The active segment's write handle is append-only; reads use a
		// separate cached read handle below as well.
	}
	db.fmu.Lock()
	defer db.fmu.Unlock()
	if f, ok := db.files[id]; ok {
		return f, nil
	}
	f, err := os.Open(segmentPath(db.dir, id))
	if err != nil {
		return nil, err
	}
	db.files[id] = f
	return f, nil
}

// closeFiles closes cached read handles, optionally only those with id <
// below (0 means all).
func (db *DB) closeFiles(below uint32) {
	db.fmu.Lock()
	defer db.fmu.Unlock()
	for id, f := range db.files {
		if below == 0 || id < below {
			f.Close()
			delete(db.files, id)
		}
	}
}

// Sync forces all buffered writes to stable storage. It is a no-op on a
// read-only store.
func (db *DB) Sync() error {
	if db.opts.ReadOnly {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.failed != nil {
		return db.failed
	}
	db.nSyncs.Add(1)
	db.needSync.Store(false)
	if err := db.fsyncActive(); err != nil {
		return db.failLocked(err)
	}
	db.durableSeq = db.seq
	return nil
}

// syncThrough makes every frame with sequence < seq durable, issuing an
// fsync only when a previous one (another caller's, the batch loop's, or a
// rotation's) has not already covered it. This is the coalescing point of
// the group-commit path: N concurrent committers share one fsync.
func (db *DB) syncThrough(seq uint64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.durableSeq >= seq {
		db.nSyncElides.Add(1)
		return nil
	}
	if db.failed != nil {
		return db.failed
	}
	target := db.seq
	db.nSyncs.Add(1)
	if err := db.fsyncActive(); err != nil {
		return db.failLocked(err)
	}
	db.durableSeq = target
	db.needSync.Store(false)
	return nil
}

func (db *DB) syncLoop() {
	defer db.syncWG.Done()
	// Re-armed After instead of a ticker: the injected clock (wall in
	// production, vclock.Sim under simulation) owns the cadence either
	// way, and a fresh timer per round is exactly a ticker that cannot
	// backlog.
	for {
		select {
		case <-db.stopSync:
			return
		case <-db.opts.Clock.After(db.opts.SyncInterval):
			if db.needSync.Swap(false) {
				db.mu.Lock()
				if !db.closed && db.failed == nil {
					db.nSyncs.Add(1)
					if err := db.fsyncActive(); err == nil {
						db.durableSeq = db.seq
					} else {
						db.failLocked(err)
					}
				}
				db.mu.Unlock()
			}
		}
	}
}

// Stats returns a snapshot of store statistics.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	segs := int(db.activeID) // ids start at 1 and are contiguous post-compaction only; count files instead
	if ids, err := listSegments(db.dir); err == nil {
		segs = len(ids)
	}
	return Stats{
		Keys:       len(db.keydir),
		Segments:   segs,
		LiveBytes:  db.liveBytes,
		TotalBytes: db.totalBytes,
		DeadBytes:  db.totalBytes - db.liveBytes,
		Puts:       db.nPuts.Load(),
		Gets:       db.nGets.Load(),
		Deletes:    db.nDeletes.Load(),
		Syncs:      db.nSyncs.Load(),
		Applies:    db.nApplies.Load(),
		SyncElides: db.nSyncElides.Load(),
	}
}

// Policy returns the sync policy the store was opened with.
func (db *DB) Policy() SyncPolicy { return db.opts.Sync }

// Dir returns the directory backing the store.
func (db *DB) Dir() string { return db.dir }

// Close flushes and closes the store and releases the directory lock.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	db.closed = true
	db.mu.Unlock()

	if db.stopSync != nil {
		close(db.stopSync)
		db.syncWG.Wait()
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	var firstErr error
	if db.active != nil {
		if err := db.active.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := db.active.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	db.closeFiles(0)
	if db.lockFile != "" {
		if err := os.Remove(db.lockFile); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// countBatchEntries counts the sub-entries of a batch payload.
func countBatchEntries(payload []byte) int {
	n := 0
	decodeBatch(payload, func(byte, []byte, []byte) error { n++; return nil })
	return n
}

// apportion splits a frame's size across n sub-entries for accounting.
func apportion(size, n int) int32 {
	if n <= 0 {
		return int32(size)
	}
	share := size / n
	if share < 1 {
		share = 1
	}
	return int32(share)
}
