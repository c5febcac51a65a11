// Package pmwal implements a persistent write-ahead log / durable queue in
// the style of a PM-backed redo log: every mutation appends a
// checksum-committed record, a volatile index maps each key to its latest
// record, and recovery replays the log from head to tail, stopping at the
// first torn record. Truncation (compaction) copies live records to the
// front of the log and durably rewinds the tail — the WAL analogue of
// checkpointing.
//
// The target is seeded with three concurrency bugs, one per detection class
// the paper distinguishes:
//
//	WAL-1 (unflushed tail pointer, inter): append publishes the new tail
//	  under the log lock but only flushes it after the lock is released.
//	  A concurrent append reads the dirty tail and durably writes its
//	  record header at an address derived from it; a crash in the window
//	  rewinds the tail and silently truncates the acknowledged record.
//	WAL-2 (fence-before-flush on the commit record, inter): append issues
//	  the commit-marker fence BEFORE the flush, so the marker line is
//	  still dirty when the lock drops. Compaction reads the marker to
//	  decide which records are committed and durably copies the record —
//	  resurrecting, after a crash, a record whose commit never persisted.
//	WAL-3 (torn multi-line append, intra): for values spanning multiple
//	  cache lines, append persists only the first value line, then
//	  computes the commit checksum by reading back its own unflushed
//	  payload and durably stores it — a committed record whose value
//	  bytes can be lost by a crash.
//
// NewFixed returns the corrected variant (persist-before-publish, full
// payload flush, flush-then-fence); it exists so tests can show the
// detector reports nothing once the bugs are patched.
package pmwal

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/taint"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/workload"
)

func init() {
	targets.Register("pmwal", func() targets.Target { return New() })
}

const (
	magic = 0x706d77616c303100 // "pmwal01"

	// Pool header.
	hdrMagic = 0
	hdrHead  = 8
	hdrTail  = 16

	// logBase is where records start.
	logBase = 64

	// Record layout: a 64-byte header, a 64-byte key slot, then the value
	// rounded up to whole cache lines.
	rSize  = 0  // total record size in bytes (multiple of 64)
	rSeq   = 8  // append sequence number
	rKind  = 16 // kindPut or kindTombstone
	rNKey  = 24
	rNVal  = 32
	rKeyFP = 40
	rCksum = 48 // commit marker: record is committed iff it matches
	rKey   = 64
	rVal   = 128

	kindPut       = 1
	kindTombstone = 2

	maxKey = 64
	maxVal = 1024
	// recMin is the smallest record (header + key slot, zero-length value).
	recMin = rVal
	recMax = rVal + maxVal
)

// WAL is one persistent-log instance. Only the log itself is persistent;
// the key index and the next sequence number are volatile and rebuilt by
// Recover.
type WAL struct {
	mu    sync.Mutex // the log lock, taken through t.LockMutex (Live excepted)
	index map[uint64]pmem.Addr
	seq   uint64
	fixed bool
}

// New creates an unopened instance carrying the seeded bugs.
func New() *WAL {
	return &WAL{index: make(map[uint64]pmem.Addr)}
}

// NewFixed creates the corrected variant: the tail pointer and commit
// marker are persisted before the log lock is released and multi-line
// values are flushed in full before the checksum reads them back.
func NewFixed() *WAL {
	return &WAL{index: make(map[uint64]pmem.Addr), fixed: true}
}

// Name implements targets.Target.
func (w *WAL) Name() string { return "pmwal" }

// PoolSize implements targets.Target.
func (w *WAL) PoolSize() uint64 { return 256 << 10 }

// Annotations implements targets.Target: the log lock is a volatile mutex,
// so no sync-variable annotations are needed.
func (w *WAL) Annotations() int { return 0 }

// Setup implements targets.Target: format the log header.
func (w *WAL) Setup(t *rt.Thread) error {
	t.NTStore64(hdrMagic, magic, taint.None, taint.None)
	t.NTStore64(hdrHead, logBase, taint.None, taint.None)
	t.NTStore64(hdrTail, logBase, taint.None, taint.None)
	t.Fence()
	return nil
}

// Exec implements targets.Target.
func (w *WAL) Exec(t *rt.Thread, op workload.Op) error {
	switch op.Kind {
	case workload.OpGet, workload.OpBGet:
		t.Branch()
		w.Get(t, op.Key)
	case workload.OpSet:
		t.Branch()
		return w.Put(t, op.Key, []byte(op.Value))
	case workload.OpAdd:
		t.Branch()
		if _, ok := w.Get(t, op.Key); ok {
			return nil // NOT_STORED
		}
		return w.Put(t, op.Key, []byte(op.Value))
	case workload.OpReplace:
		t.Branch()
		if _, ok := w.Get(t, op.Key); !ok {
			return nil // NOT_STORED
		}
		return w.Put(t, op.Key, []byte(op.Value))
	case workload.OpAppend:
		t.Branch()
		return w.Concat(t, op.Key, []byte(op.Value), true)
	case workload.OpPrepend:
		t.Branch()
		return w.Concat(t, op.Key, []byte(op.Value), false)
	case workload.OpIncr:
		t.Branch()
		return w.Arith(t, op.Key, op.Value, true)
	case workload.OpDecr:
		t.Branch()
		return w.Arith(t, op.Key, op.Value, false)
	case workload.OpDelete:
		t.Branch()
		w.Delete(t, op.Key)
	case workload.OpFlushAll:
		t.Branch()
		return w.Compact(t)
	default:
		t.Branch() // error-handling path
		return fmt.Errorf("pmwal: ERROR %q", op.Raw)
	}
	return nil
}

// recordSize returns the rounded on-log footprint for a value length.
func recordSize(nval int) uint64 {
	return rVal + (uint64(nval)+63)/64*64
}

// recInBounds reports whether a record header loaded from PM can lie inside
// the log. Sizes read from PM may be garbage after a torn write; using them
// unchecked would walk out of the pool.
func recInBounds(t *rt.Thread, rec pmem.Addr, size uint64) bool {
	return size >= recMin && size <= recMax && size%64 == 0 &&
		rec >= logBase && rec+size <= t.Env().Pool().Size()
}

// checksum sums a record's key and value bytes. The reads may observe
// non-persisted data — deliberately: reading back the record's own
// unflushed value lines is seeded bug WAL-3, so unlike memcached this
// read-back is NOT whitelisted.
func (w *WAL) checksum(t *rt.Thread, rec pmem.Addr, nkey, nval uint64) (uint64, taint.Label) {
	kb, klab := t.LoadBytes(rec+rKey, nkey)
	vb, vlab := t.LoadBytes(rec+rVal, nval)
	sum := uint64(0x77616c) // avoid 0 for the empty record
	for _, b := range kb {
		sum = sum*131 + uint64(b)
	}
	for _, b := range vb {
		sum = sum*131 + uint64(b)
	}
	return sum, t.Env().Labels().Union(klab, vlab)
}

// appendRecord writes one log record and publishes it. This function
// carries all three seeded bugs; see the package comment.
func (w *WAL) appendRecord(t *rt.Thread, kind uint64, key string, val []byte) error {
	if len(key) > maxKey {
		return errors.New("pmwal: CLIENT_ERROR key too long")
	}
	if len(val) > maxVal {
		return errors.New("pmwal: SERVER_ERROR object too large for log")
	}
	size := recordSize(len(val))
	kf := targets.Fingerprint(key)

	t.LockMutex(&w.mu)
	t.Branch()
	// WAL-1 (read side): the tail may be another append's store that has
	// not been flushed yet — the buggy variant flushes it after unlock.
	tail, tlab := t.Load64(hdrTail)
	if tail < logBase || tail > t.Env().Pool().Size() {
		t.UnlockMutex(&w.mu)
		return errors.New("pmwal: SERVER_ERROR corrupt tail")
	}
	if tail+size > t.Env().Pool().Size() {
		w.compactLocked(t)
		tail, tlab = t.Load64(hdrTail)
		if tail+size > t.Env().Pool().Size() {
			t.UnlockMutex(&w.mu)
			return errors.New("pmwal: SERVER_ERROR log full")
		}
	}
	rec := tail
	w.seq++
	// WAL-1 (write side): the record header lands at an address derived
	// from the possibly-dirty tail and is made durable below.
	t.Store64(rec+rSize, size, taint.None, tlab)
	t.Store64(rec+rSeq, w.seq, taint.None, tlab)
	t.Store64(rec+rKind, kind, taint.None, tlab)
	t.Store64(rec+rNKey, uint64(len(key)), taint.None, tlab)
	t.Store64(rec+rNVal, uint64(len(val)), taint.None, tlab)
	t.Store64(rec+rKeyFP, kf, taint.None, tlab)
	t.StoreBytes(rec+rKey, []byte(key), taint.None, tlab)
	t.StoreBytes(rec+rVal, val, taint.None, tlab)
	if w.fixed || uint64(len(val)) <= 64 {
		t.Persist(rec, rVal+uint64(len(val)))
	} else {
		// WAL-3: torn multi-line append — only the first value line is
		// flushed; the remaining lines never are.
		t.Persist(rec, rVal+64)
	}
	// Commit checksum: reads the payload back. On the WAL-3 path above the
	// thread reads its OWN unflushed value lines and the durable marker
	// store below depends on them (the intra-thread inconsistency).
	sum, slab := w.checksum(t, rec, uint64(len(key)), uint64(len(val)))
	t.Store64(rec+rCksum, sum, slab, tlab)
	if w.fixed {
		t.Persist(rec+rCksum, 8)
	}
	// Publish the new tail. The buggy variant persists it after unlock
	// (WAL-1's dirty window).
	//pmvet:ignore unflushed-store -- seeded bug WAL-1: the tail is flushed only after the lock is released
	t.Store64(hdrTail, tail+size, tlab, taint.None)
	if w.fixed {
		t.Persist(hdrTail, 8)
	}
	switch kind {
	case kindPut:
		w.index[kf] = rec
	case kindTombstone:
		delete(w.index, kf)
	}
	t.UnlockMutex(&w.mu)
	if !w.fixed {
		// WAL-2: the commit marker's fence is issued BEFORE its flush, so
		// the marker line stays dirty until the flush below executes —
		// after the lock has been dropped. (The trailing tail persist
		// eventually fences it; the window is the publication race.)
		t.Fence()
		t.Flush(rec+rCksum, 8)
		// WAL-1: the tail flush arrives only here, after unlock.
		t.Persist(hdrTail, 8)
	}
	return nil
}

// Put appends a committed put record for the key.
func (w *WAL) Put(t *rt.Thread, key string, val []byte) error {
	return w.appendRecord(t, kindPut, key, val)
}

// Delete appends a tombstone when the key is live; it reports whether a key
// was deleted.
func (w *WAL) Delete(t *rt.Thread, key string) bool {
	kf := targets.Fingerprint(key)
	t.LockMutex(&w.mu)
	_, ok := w.index[kf]
	t.UnlockMutex(&w.mu)
	if !ok {
		return false
	}
	return w.appendRecord(t, kindTombstone, key, nil) == nil
}

// Get returns the latest committed value for the key. Uncommitted records
// (checksum mismatch) read as missing, like recovery treats them.
func (w *WAL) Get(t *rt.Thread, key string) ([]byte, bool) {
	kf := targets.Fingerprint(key)
	t.LockMutex(&w.mu)
	rec, ok := w.index[kf]
	t.UnlockMutex(&w.mu)
	if !ok {
		return nil, false
	}
	t.Branch()
	size, _ := t.Load64(rec + rSize)
	if !recInBounds(t, rec, size) {
		return nil, false
	}
	nkey, _ := t.Load64(rec + rNKey)
	nval, _ := t.Load64(rec + rNVal)
	if nkey > maxKey || rVal+nval > size {
		return nil, false
	}
	want, _ := t.Load64(rec + rCksum)
	got, _ := w.checksum(t, rec, nkey, nval)
	if want != got {
		return nil, false
	}
	vb, _ := t.LoadBytes(rec+rVal, nval)
	return vb, true
}

// Concat appends (or prepends) to an existing value by appending a fresh
// put record with the combined bytes; a missing key is NOT_STORED.
func (w *WAL) Concat(t *rt.Thread, key string, extra []byte, appendTo bool) error {
	old, ok := w.Get(t, key)
	if !ok {
		return nil // NOT_STORED
	}
	var val []byte
	if appendTo {
		val = append(append([]byte(nil), old...), extra...)
	} else {
		val = append(append([]byte(nil), extra...), old...)
	}
	if len(val) > maxVal {
		return errors.New("pmwal: SERVER_ERROR object too large for log")
	}
	return w.Put(t, key, val)
}

// Arith increments or decrements a numeric value (missing keys start at 0,
// decrement saturates at 0).
func (w *WAL) Arith(t *rt.Thread, key, deltaStr string, up bool) error {
	d, err := strconv.ParseUint(deltaStr, 10, 64)
	if err != nil {
		return errors.New("pmwal: CLIENT_ERROR invalid delta")
	}
	var n uint64
	if old, ok := w.Get(t, key); ok {
		n, err = strconv.ParseUint(string(old), 10, 64)
		if err != nil {
			return errors.New("pmwal: CLIENT_ERROR non-numeric value")
		}
	}
	if up {
		n += d
	} else if n >= d {
		n -= d
	} else {
		n = 0
	}
	return w.Put(t, key, []byte(strconv.FormatUint(n, 10)))
}

// Compact copies every live committed record to the front of the log and
// durably rewinds the tail — the WAL's truncate operation, also triggered
// by flush_all traffic and by appends running out of log space.
func (w *WAL) Compact(t *rt.Thread) error {
	t.LockMutex(&w.mu)
	defer t.UnlockMutex(&w.mu)
	w.compactLocked(t)
	return nil
}

// compactLocked walks the committed prefix of the log, copies records that
// are still the latest version of a live key down to the log base, and
// rewrites head/tail. Caller holds w.mu.
func (w *WAL) compactLocked(t *rt.Thread) {
	t.Branch()
	head, hlab := t.Load64(hdrHead)
	tail, tlab := t.Load64(hdrTail)
	if head < logBase || head > t.Env().Pool().Size() {
		head = logBase
	}
	if tail < head || tail > t.Env().Pool().Size() {
		tail = head
	}
	walkLab := t.Env().Labels().Union(hlab, tlab)
	newIndex := make(map[uint64]pmem.Addr, len(w.index))
	dst := pmem.Addr(logBase)
	for rec := head; rec+recMin <= tail; {
		size, szlab := t.Load64(rec + rSize)
		if !recInBounds(t, rec, size) || rec+size > tail {
			break // torn tail: everything beyond is garbage
		}
		kind, _ := t.Load64(rec + rKind)
		nkey, _ := t.Load64(rec + rNKey)
		nval, _ := t.Load64(rec + rNVal)
		if nkey > maxKey || rVal+nval > size {
			break
		}
		// WAL-2 (read side): the commit marker may be another append's
		// store that is fenced but not yet flushed — still dirty. The
		// copy below and the tail rewrite are durable writes derived
		// from it.
		want, cklab := t.Load64(rec + rCksum)
		got, _ := w.checksum(t, rec, nkey, nval)
		if want != got {
			break // uncommitted record: truncation point
		}
		walkLab = t.Env().Labels().Union(walkLab, t.Env().Labels().Union(szlab, cklab))
		kf, _ := t.Load64(rec + rKeyFP)
		if kind == kindPut && w.index[kf] == rec {
			if dst != rec {
				// WAL-2 (write side): durable record copy based on the
				// possibly-dirty commit marker.
				body, blab := t.LoadBytes(rec, size)
				t.StoreBytes(dst, body, t.Env().Labels().Union(blab, cklab), walkLab)
				t.Persist(dst, size)
			}
			newIndex[kf] = dst
			dst += size
		}
		rec += size
	}
	// WAL-2 (write side): the durable tail rewind inherits the walk's
	// labels, including every commit marker read above.
	t.Store64(hdrHead, logBase, walkLab, taint.None)
	t.Store64(hdrTail, dst, walkLab, taint.None)
	t.Persist(hdrHead, 8)
	t.Persist(hdrTail, 8)
	w.index = newIndex
}

// Recover implements targets.Target: replay the log from head to tail,
// rebuilding the volatile index and stopping at the first record whose
// header or checksum does not verify (the torn tail). The tail is then
// durably rewound to the end of the valid prefix, so a later crash cannot
// resurrect the discarded suffix.
func (w *WAL) Recover(t *rt.Thread) error {
	m, _ := t.Load64(hdrMagic)
	if m != magic {
		return errors.New("pmwal: pool not initialized")
	}
	head, _ := t.Load64(hdrHead)
	tail, _ := t.Load64(hdrTail)
	if head < logBase || head > t.Env().Pool().Size() {
		head = logBase
	}
	if tail < head || tail > t.Env().Pool().Size() {
		tail = head
	}
	w.index = make(map[uint64]pmem.Addr)
	w.seq = 0
	rec := head
	for rec+recMin <= tail {
		size, _ := t.Load64(rec + rSize)
		if !recInBounds(t, rec, size) || rec+size > tail {
			break
		}
		kind, _ := t.Load64(rec + rKind)
		nkey, _ := t.Load64(rec + rNKey)
		nval, _ := t.Load64(rec + rNVal)
		if (kind != kindPut && kind != kindTombstone) || nkey > maxKey || rVal+nval > size {
			break
		}
		want, _ := t.Load64(rec + rCksum)
		got, _ := w.checksum(t, rec, nkey, nval)
		if want != got {
			break // torn or uncommitted: replay stops here
		}
		if seq, _ := t.Load64(rec + rSeq); seq > w.seq {
			w.seq = seq
		}
		kf, _ := t.Load64(rec + rKeyFP)
		switch kind {
		case kindPut:
			w.index[kf] = rec
		case kindTombstone:
			delete(w.index, kf)
		}
		rec += size
	}
	if rec != tail {
		// Torn-tail repair: truncate the log at the last valid record.
		t.Store64(hdrTail, rec, taint.None, taint.None)
		t.Persist(hdrTail, 8)
	}
	return nil
}

// Live returns the number of indexed keys (test oracle).
func (w *WAL) Live() int {
	w.mu.Lock() //pmvet:ignore missing-hook -- test oracle, called with no thread after the workload
	defer w.mu.Unlock()
	return len(w.index)
}
