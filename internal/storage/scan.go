package storage

import (
	"sort"
	"strings"
)

// Scan visits every key with the given prefix in ascending key order,
// invoking fn with the key and its value. fn returning false stops the scan.
// The value slice is owned by fn's caller frame; copies are made for it.
//
// The scan holds a read lock for its duration, so it observes a consistent
// snapshot: no concurrent writer can interleave.
func (db *DB) Scan(prefix string, fn func(key string, val []byte) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	keys := db.sortedKeysLocked(prefix)
	for _, k := range keys {
		val, ok, err := db.getLocked([]byte(k))
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if !fn(k, val) {
			return nil
		}
	}
	return nil
}

// ScanShared is Scan with a borrowed value: val is backed by one scratch
// buffer reused across keys, so fn must decode or copy what it needs
// before returning and must never retain val. Bulk readers that decode
// every value on the spot (the platform journal's replay) use it to skip
// the two per-key allocations Scan pays — the frame read and the value
// copy — which dominate replaying a large journal. It also reads and
// decodes each batch frame once, where Scan re-reads the whole frame for
// every key it holds.
func (db *DB) ScanShared(prefix string, fn func(key string, val []byte) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	keys := db.sortedKeysLocked(prefix)
	var r sharedReader
	for _, k := range keys {
		val, ok, err := db.getLockedShared(k, &r)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if !fn(k, val) {
			return nil
		}
	}
	return nil
}

// Keys returns all keys with the given prefix in ascending order.
func (db *DB) Keys(prefix string) ([]string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	return db.sortedKeysLocked(prefix), nil
}

// Count returns the number of keys with the given prefix.
func (db *DB) Count(prefix string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return 0, ErrClosed
	}
	if prefix == "" {
		return len(db.keydir), nil
	}
	n := 0
	for k := range db.keydir {
		if strings.HasPrefix(k, prefix) {
			n++
		}
	}
	return n, nil
}

// DeleteRange removes every key k with lo <= k < hi. Deletions are
// written as batch frames chunked by payload size, so a huge range never
// exceeds the store's frame limit, and the write lock is released
// between chunks so concurrent appenders (the journal's group-commit
// flush) are never stalled behind a long truncation. Each chunk applies
// atomically; a crash — or a concurrent writer re-adding a key — mid-way
// leaves a clean prefix of the deletions (callers that truncate a log
// bounded by a durable cut record, like the platform journal's snapshot
// checkpointer, tolerate stragglers by construction). It returns the
// number of keys removed and the live bytes they accounted for — the
// store-level "truncate the journal before seq" compaction hook.
func (db *DB) DeleteRange(lo, hi string) (int, int64, error) {
	if db.opts.ReadOnly {
		return 0, 0, ErrReadOnly
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return 0, 0, ErrClosed
	}
	type rangeKey struct {
		key  string
		acct int64
	}
	var keys []rangeKey
	for k, l := range db.keydir {
		if k >= lo && k < hi {
			keys = append(keys, rangeKey{key: k, acct: int64(l.acct)})
		}
	}
	db.mu.Unlock()
	if len(keys) == 0 {
		return 0, 0, nil
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].key < keys[j].key })
	const chunkBytes = 1 << 20
	var (
		payload      []byte
		chunkKeys    int
		chunkAcct    int64
		deletedKeys  int
		deletedBytes int64
	)
	// On error, report what the already-applied chunks durably removed —
	// the caller's accounting must match the log, not the intent.
	flush := func() error {
		if len(payload) == 0 {
			return nil
		}
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			return ErrClosed
		}
		if err := db.appendLocked(kindBatch, nil, payload); err != nil {
			return err
		}
		deletedKeys += chunkKeys
		deletedBytes += chunkAcct
		payload, chunkKeys, chunkAcct = nil, 0, 0
		return nil
	}
	for _, k := range keys {
		payload = appendBatchEntry(payload, kindDelete, []byte(k.key), nil)
		chunkKeys++
		chunkAcct += k.acct
		if len(payload) >= chunkBytes {
			if err := flush(); err != nil {
				return deletedKeys, deletedBytes, err
			}
		}
	}
	if err := flush(); err != nil {
		return deletedKeys, deletedBytes, err
	}
	db.nDeletes.Add(uint64(deletedKeys))
	return deletedKeys, deletedBytes, nil
}

// DeletePrefix removes every key with the given prefix, atomically (as one
// batch frame). It returns the number of keys removed.
func (db *DB) DeletePrefix(prefix string) (int, error) {
	if db.opts.ReadOnly {
		return 0, ErrReadOnly
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	var keys []string
	for k := range db.keydir {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return 0, nil
	}
	sort.Strings(keys)
	var payload []byte
	for _, k := range keys {
		payload = appendBatchEntry(payload, kindDelete, []byte(k), nil)
	}
	if err := db.appendLocked(kindBatch, nil, payload); err != nil {
		return 0, err
	}
	db.nDeletes.Add(uint64(len(keys)))
	return len(keys), nil
}

func (db *DB) sortedKeysLocked(prefix string) []string {
	keys := make([]string, 0, len(db.keydir))
	for k := range db.keydir {
		if prefix == "" || strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
