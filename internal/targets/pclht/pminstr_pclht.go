// Code generated by pminstr from github.com/pmrace-go/pmrace/internal/targets/pclhtplain/pclht.go; DO NOT EDIT.
// persistent cache-line hash table, including the five bugs PMRace found
// in it (paper Table 2, Bugs 1-5), written against the plain pmplain
// dialect with no rt.Thread hooks and no taint labels. It is never run
// itself. The pminstr generator instruments it into internal/targets/pclht,
// the package registered as target "pclht":
//
//	go run ./cmd/pminstr -src internal/targets/pclhtplain -out internal/targets/pclht -pkg pclht
//
// Line numbers are PINNED. pminstr preserves them when rewriting, so bug
// fingerprints name lines of this file (the generated file's pminstr_
// prefix is stripped by internal/fuzz's fingerprint normalizer), and the
// seeded-bug sites pclht.go:334 (inter), :310 (intra) and :201
// (bucket-lock) are pinned by perfbench/expected.json and by
// TestPCLHTSeededBugs in internal/fuzz. Lines that only the instrumented
// form needs (label unions, annotation plumbing) appear here as comments
// or collapsed plain statements.
//
// When editing: keep those sites on their lines, then regenerate. CI runs
// the command above with -diff -check, which fails on drift between this
// source and the checked-in generated code. Rewrite rules: internal/instr.
package pclht

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/pmdk"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/taint"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// Registration lives in internal/targets/pclht's hand-written register.go
// — pminstr output carries no init — so regeneration never re-registers
// (targets.Register panics on duplicates).

const (
	slotsPerBucket = 3
	bucketSize     = 64 // lock + 3 keys + 3 vals + pad = one cache line
	initialBuckets = 8
	maxBuckets     = 1024

	// Root object field offsets. ht_off and table_new deliberately sit on
	// different cache lines, as in the original struct: flushing the
	// published table pointer must not incidentally persist table_new,
	// or Bug 3's dirty window would vanish.
	fldHtOff      = 0   // current table pointer (own line)
	fldTableNew   = 64  // new table pointer during resize
	fldGCHead     = 72  // GC bookkeeping slot (Bug 3 side effect)
	fldResizeLock = 128 // persistent resize lock (re-initialized on recovery)
	fldGCLock     = 136 // persistent GC lock (re-initialized on recovery)
	fldStatusLock = 144 // persistent status lock (re-initialized on recovery)
	fldItemCount  = 152 // persistent item counter
	rootSize      = 192

	// Bucket field offsets.
	bktLock = 0
	bktKey0 = 8
	bktVal0 = 32
)

// HT is one P-CLHT instance. All persistent state lives in the pool; the
// struct carries only volatile bookkeeping.
type HT struct {
	pool *pmdk.ObjPool
	root pmem.Addr

	resizeMu sync.Mutex // volatile helper serializing resize decisions
	puts     atomic.Int64
}

// New creates an unopened instance.
func New() *HT { return &HT{} }

// Name implements targets.Target.
func (h *HT) Name() string { return "pclht" }

// PoolSize implements targets.Target.
func (h *HT) PoolSize() uint64 { return 512 << 10 }

// Annotations implements targets.Target: bucket-lock, resize-lock, gc-lock
// and status-lock carry pm_sync_var_hint annotations (paper Table 3 reports
// 4 annotations for P-CLHT).
func (h *HT) Annotations() int { return 4 }

// Setup implements targets.Target: format the pool, allocate the root and
// the initial table.
func (h *HT) Setup(t *rt.Thread) error {
	h.pool = pmdk.Create(t)
	root, err := h.pool.Alloc(t, rootSize)
	if err != nil {
		return err
	}
	h.root = root
	table, err := h.newTable(t, initialBuckets)
	if err != nil {
		return err
	}
	t.Store64(root+fldHtOff, table, taint.None, taint.None)
	t.Store64(root+fldTableNew, 0, taint.None, taint.None)
	t.Store64(root+fldGCHead, 0, taint.None, taint.None)
	t.Store64(root+fldItemCount, 0, taint.None, taint.None)
	t.Persist(root, rootSize)
	h.pool.SetRoot(t, root)
	h.annotateRootLocks(t)
	return nil
}

func (h *HT) annotateRootLocks(t *rt.Thread) {
	// The three root locks are persistent sync variables (pm_sync_var_hint).
	t.Env().AnnotateSyncVar(core.SyncVar{Name: "resize-lock", Addr: h.root + fldResizeLock, Size: 8, InitVal: 0})
	t.Env().AnnotateSyncVar(core.SyncVar{Name: "gc-lock", Addr: h.root + fldGCLock, Size: 8, InitVal: 0})
	t.Env().AnnotateSyncVar(core.SyncVar{Name: "status-lock", Addr: h.root + fldStatusLock, Size: 8, InitVal: 0})
}

// newTable allocates and initializes a table with n buckets, annotating
// every in-PM bucket lock under the shared "bucket-lock" variable type.
func (h *HT) newTable(t *rt.Thread, n uint64) (pmem.Addr, error) {
	table, err := h.pool.Alloc(t, 64+n*bucketSize)
	if err != nil {
		return 0, err
	}
	t.NTStore64(table, n, taint.None, taint.None) // num_buckets
	// (the per-bucket lock hints are declared in the loop below)
	for i := uint64(0); i < n; i++ {
		b := table + 64 + i*bucketSize
		zero := make([]byte, bucketSize)
		t.NTStoreBytes(b, zero, taint.None, taint.None)
		t.Env().AnnotateSyncVar(core.SyncVar{Name: "bucket-lock", Addr: b + bktLock, Size: 8, InitVal: 0})
	}
	t.Fence()
	return table, nil
}

// Exec implements targets.Target.
func (h *HT) Exec(t *rt.Thread, op workload.Op) error {
	t.Branch()
	switch op.Kind {
	case workload.OpGet, workload.OpBGet:
		h.Get(t, op.Key)
	case workload.OpSet, workload.OpAdd:
		return h.Put(t, op.Key, op.Value)
	case workload.OpReplace, workload.OpAppend, workload.OpPrepend:
		h.Update(t, op.Key, op.Value)
	case workload.OpIncr, workload.OpDecr:
		n, _ := strconv.Atoi(op.Value)
		return h.Put(t, op.Key, strconv.Itoa(n+1))
	case workload.OpDelete:
		h.Delete(t, op.Key)
	}
	return nil
}

// table loads the current table pointer; the returned label taints every
// address derived from it. This is the read side of Bug 1 (the analogue of
// clht_lb_res.c:417 reading h->ht_off).
func (h *HT) table(t *rt.Thread) (pmem.Addr, taint.Label) {
	return t.Load64(h.root + fldHtOff)
}

// bucketFor hashes key into the table, returning the bucket address and the
// taint of the address computation.
func (h *HT) bucketFor(t *rt.Thread, key string) (pmem.Addr, taint.Label) {
	table, tableLab := h.table(t)
	n, nLab := t.Load64(table) // num_buckets (address derived from table ptr)
	// (pminstr unions the table-pointer and header taints into the result)
	idx := targets.Fingerprint(key) % n
	return table + 64 + idx*bucketSize, t.Env().Labels().Union(tableLab, nLab)
}

// Get performs a lock-free search (P-CLHT searches take no locks).
func (h *HT) Get(t *rt.Thread, key string) (uint64, bool) {
	t.Branch()
	b, _ := h.bucketFor(t, key)
	kf := targets.Fingerprint(key)
	for i := 0; i < slotsPerBucket; i++ {
		k, _ := t.Load64(b + bktKey0 + pmem.Addr(i*8))
		if k == kf {
			v, _ := t.Load64(b + bktVal0 + pmem.Addr(i*8))
			return v, true
		}
	}
	return 0, false
}

// Put inserts or updates a key. Inserts into a table located through a
// non-persisted table pointer are exactly the paper's Bug 1: the movnt64
// item writes are durable side effects whose target address derives from the
// dirty pointer.
func (h *HT) Put(t *rt.Thread, key, val string) error {
	t.Branch()
	kf, vf := targets.Fingerprint(key), targets.Fingerprint(val)
	for attempt := 0; attempt < 4; attempt++ {
		b, bLab := h.bucketFor(t, key)
		t.SpinLock(b + bktLock)
		free := -1
		for i := 0; i < slotsPerBucket; i++ {
			k, _ := t.Load64(b + bktKey0 + pmem.Addr(i*8))
			if k == kf {
				// Update in place (non-temporal, like the
				// original's value writes).
				t.NTStore64(b+bktVal0+pmem.Addr(i*8), vf, taint.None, bLab)
				t.Fence()
				t.SpinUnlock(b + bktLock)
				return nil
			}
			if k == 0 && free < 0 {
				free = i
			}
		}
		if free >= 0 {
			t.NTStore64(b+bktKey0+pmem.Addr(free*8), kf, taint.None, bLab)
			t.NTStore64(b+bktVal0+pmem.Addr(free*8), vf, taint.None, bLab)
			t.Fence()
			t.SpinUnlock(b + bktLock)
			h.bumpCount(t)
			return nil
		}
		// Bucket full: release and resize, then retry against the new
		// table.
		t.SpinUnlock(b + bktLock)
		if err := h.resize(t); err != nil {
			return err
		}
	}
	return errors.New("pclht: bucket still full after resize")
}

// Update is clht_update: it takes the bucket lock and overwrites an existing
// key. Bug 5: when the key is absent the function returns without releasing
// the lock, hanging every later writer to the bucket.
func (h *HT) Update(t *rt.Thread, key, val string) bool {
	t.Branch()
	kf, vf := targets.Fingerprint(key), targets.Fingerprint(val)
	b, bLab := h.bucketFor(t, key)
	t.SpinLock(b + bktLock)
	for i := 0; i < slotsPerBucket; i++ {
		k, _ := t.Load64(b + bktKey0 + pmem.Addr(i*8))
		if k == kf {
			t.NTStore64(b+bktVal0+pmem.Addr(i*8), vf, taint.None, bLab)
			t.Fence()
			t.SpinUnlock(b + bktLock)
			return true
		}
	}
	// BUG 5: missing SpinUnlock on the not-found path (the original's
	// missing unlock in clht_update, clht_lb_res.c:526).
	return false
}

// Delete removes a key under the bucket lock.
func (h *HT) Delete(t *rt.Thread, key string) bool {
	t.Branch()
	kf := targets.Fingerprint(key)
	b, bLab := h.bucketFor(t, key)
	t.SpinLock(b + bktLock)
	for i := 0; i < slotsPerBucket; i++ {
		k, _ := t.Load64(b + bktKey0 + pmem.Addr(i*8))
		if k == kf {
			t.NTStore64(b+bktKey0+pmem.Addr(i*8), 0, taint.None, bLab)
			t.Fence()
			t.SpinUnlock(b + bktLock)
			return true
		}
	}
	t.SpinUnlock(b + bktLock)
	return false
}

func (h *HT) bumpCount(t *rt.Thread) {
	// The status lock briefly serializes the persistent item counter.
	t.SpinLock(h.root + fldStatusLock)
	c, cLab := t.Load64(h.root + fldItemCount)
	t.Store64(h.root+fldItemCount, c+1, cLab, taint.None)
	t.Persist(h.root+fldItemCount, 8)
	t.SpinUnlock(h.root + fldStatusLock)
	h.puts.Add(1)
}

// resize migrates the table into one of twice the size. It contains the
// write side of Bug 1 (table pointer stored, flushed only after a window),
// Bug 3 (GC from the unflushed table_new) and Bug 4 (redundant bucket
// writes during migration).
func (h *HT) resize(t *rt.Thread) error {
	h.resizeMu.Lock()
	defer h.resizeMu.Unlock()
	t.Branch()
	t.SpinLock(h.root + fldResizeLock)
	defer t.SpinUnlock(h.root + fldResizeLock)

	oldTable, oldTableLab := h.table(t)
	n, nLab := t.Load64(oldTable)
	// (pminstr unions the pointer/header taints for the migration stores)
	if n*2 > maxBuckets {
		return errors.New("pclht: table at maximum size")
	}
	newTable, err := h.newTable(t, n*2)
	if err != nil {
		return err
	}

	// table_new is recorded for helpers/GC but not flushed yet (Bug 3's
	// dependency, the analogue of clht_lb_res.c:789).
	t.Store64(h.root+fldTableNew, newTable, nLab, taint.None)

	// Migrate all items into the new table.
	for i := uint64(0); i < n; i++ {
		ob := oldTable + 64 + i*bucketSize
		for s := 0; s < slotsPerBucket; s++ {
			k, kLab := t.Load64(ob + bktKey0 + pmem.Addr(s*8))
			if k == 0 {
				continue
			}
			v, _ := t.Load64(ob + bktVal0 + pmem.Addr(s*8))
			h.insertMigrated(t, newTable, n*2, k, v)
			// BUG 4: the original redundantly writes the old
			// bucket back (clht_lb_res.c:321) — an unnecessary PM
			// write surfaced by PMRace as a candidate report.
			//pmvet:ignore unflushed-store -- seeded BUG 4: the redundant write is the finding; the old table is discarded after migration
			t.Store64(ob+bktKey0+pmem.Addr(s*8), k, kLab, oldTableLab)
		}
	}

	// BUG 1 (write side): publish the new table with a regular store; the
	// flush comes only after the interleaving window (clht_lb_res.c:785
	// store, :786 flush). A reader scheduled inside the window inserts
	// into a table pointer that a crash would revert.
	t.Store64(h.root+fldHtOff, newTable, nLab, taint.None)
	t.Persist(h.root+fldHtOff, 8)

	// BUG 3: GC reads the thread's own unflushed table_new and makes a
	// durable record from it (clht_gc.c:190): the old table is leaked if
	// a crash drops table_new.
	h.gc(t)

	t.Persist(h.root+fldTableNew, 8)
	t.Store64(h.root+fldTableNew, 0, taint.None, taint.None)
	t.Persist(h.root+fldTableNew, 8)
	return nil
}

// insertMigrated inserts a migrated item into the new table with
// non-temporal stores (buckets in the new table are private to the resizer
// until publication, so no locks are needed).
func (h *HT) insertMigrated(t *rt.Thread, table pmem.Addr, n, kf, vf uint64) {
	idx := kf % n
	b := table + 64 + idx*bucketSize
	for i := 0; i < slotsPerBucket; i++ {
		k, _ := t.Load64(b + bktKey0 + pmem.Addr(i*8))
		if k == 0 || k == kf {
			t.NTStore64(b+bktKey0+pmem.Addr(i*8), kf, taint.None, taint.None)
			t.NTStore64(b+bktVal0+pmem.Addr(i*8), vf, taint.None, taint.None)
			t.Fence()
			return
		}
	}
	// Overflow during migration: drop into the first slot (the original
	// chains; the simplification does not affect the bug surface).
	t.NTStore64(b+bktKey0, kf, taint.None, taint.None)
	t.NTStore64(b+bktVal0, vf, taint.None, taint.None)
	t.Fence()
}

// gc performs the old-table garbage-collection bookkeeping of Bug 3.
func (h *HT) gc(t *rt.Thread) {
	t.SpinLock(h.root + fldGCLock)
	// Intra-thread dirty read: table_new was stored by this thread and
	// not flushed.
	tn, tnLab := t.Load64(h.root + fldTableNew)
	// Durable side effect based on it: the GC record is written with a
	// non-temporal store.
	t.NTStore64(h.root+fldGCHead, tn, tnLab, taint.None)
	t.Fence()
	t.SpinUnlock(h.root + fldGCLock)
}

// Recover implements targets.Target: it re-opens the pool and rebuilds the
// volatile state by scanning the persisted table. Bug 2: bucket locks are
// *not* re-initialized (the original forgets clht_lock_initialization), so a
// lock persisted as held hangs post-recovery accesses; the resize/gc/status
// locks *are* reset, which is why the paper reports those sync
// inconsistencies as validated false positives.
func (h *HT) Recover(t *rt.Thread) error {
	pool, err := pmdk.Open(t)
	if err != nil {
		return err
	}
	h.pool = pool
	root, rootLab := pool.Root(t)
	if root == 0 {
		return errors.New("pclht: no root object")
	}
	h.root = root
	// Re-initialize the global locks (but NOT the bucket locks — Bug 2).
	t.Store64(root+fldResizeLock, 0, taint.None, rootLab)
	t.Store64(root+fldGCLock, 0, taint.None, rootLab)
	t.Store64(root+fldStatusLock, 0, taint.None, rootLab)
	t.Persist(root+fldResizeLock, 24)
	h.annotateRootLocks(t)
	// Rebuild the volatile item count by scanning the recovered table.
	table, _ := t.Load64(root + fldHtOff)
	n, _ := t.Load64(table)
	count := int64(0)
	for i := uint64(0); i < n && i < maxBuckets; i++ {
		b := table + 64 + i*bucketSize
		t.Env().AnnotateSyncVar(core.SyncVar{Name: "bucket-lock", Addr: b + bktLock, Size: 8, InitVal: 0})
		for s := 0; s < slotsPerBucket; s++ {
			k, _ := t.Load64(b + bktKey0 + pmem.Addr(s*8))
			if k != 0 {
				count++
			}
		}
	}
	h.puts.Store(count)
	return nil
}

// Count returns the number of persistent items reachable from the current
// table pointer (volatile bookkeeping; tests use it as an oracle).
func (h *HT) Count(t *rt.Thread) int {
	table, _ := h.table(t)
	n, _ := t.Load64(table)
	count := 0
	for i := uint64(0); i < n; i++ {
		b := table + 64 + i*bucketSize
		for s := 0; s < slotsPerBucket; s++ {
			if k, _ := t.Load64(b + bktKey0 + pmem.Addr(s*8)); k != 0 {
				count++
			}
		}
	}
	return count
}
