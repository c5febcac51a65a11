// Package cceh reimplements CCEH (Cacheline-Conscious Extendible Hashing,
// FAST '19), one of the lock-based PM indexes the paper evaluates, seeded
// with the two bugs PMRace found in it (paper Table 2, Bugs 6-7):
//
//	Bug 6 (Sync): segment locks live in PM and are not released after a
//	  restart — post-recovery writers to the segment hang.
//	Bug 7 (Intra): directory doubling stores the new directory capacity and
//	  reads it back before flushing, allocating/initializing the new
//	  directory from the non-persisted value — PM leakage after a crash.
//
// The structure is extendible hashing: a directory of segment pointers
// indexed by the top bits of the key hash; segments carry a persistent lock,
// a local depth and a fixed array of key/value slots; a full segment splits,
// doubling the directory when its local depth reaches the global depth.
// Searches are lock-free (inter-thread inconsistency candidates without
// durable side effects — the paper reports 15 candidates and 0 confirmed
// inter-thread inconsistencies for CCEH).
package cceh

import (
	"errors"
	"math/bits"
	"strconv"
	"sync"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/pmdk"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/taint"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/workload"
)

func init() {
	targets.Register("cceh", func() targets.Target { return New() })
}

const (
	slotsPerSegment = 16
	segHeaderSize   = 64
	segSize         = segHeaderSize + slotsPerSegment*16 // lock|depth + (key,val) slots
	initialDepth    = 1
	maxDepth        = 8

	// Root object fields (separate cache lines where dirtiness matters).
	fldDirOff   = 0   // directory pointer
	fldDepth    = 8   // global depth
	fldCapacity = 64  // directory capacity — Bug 7's non-persisted field
	fldDirLock  = 128 // persistent directory lock (annotated, never left held)
	rootSize    = 192

	// Segment fields.
	segLock  = 0
	segDepth = 8
	segSlots = segHeaderSize
)

// HT is one CCEH instance.
type HT struct {
	pool *pmdk.ObjPool
	root pmem.Addr

	growMu sync.Mutex // volatile serialization of directory growth
}

// New creates an unopened instance.
func New() *HT { return &HT{} }

// Name implements targets.Target.
func (h *HT) Name() string { return "cceh" }

// PoolSize implements targets.Target.
func (h *HT) PoolSize() uint64 { return 512 << 10 }

// Annotations implements targets.Target: segment-lock and dir-lock carry
// annotations (paper Table 3: 2 annotations for CCEH).
func (h *HT) Annotations() int { return 2 }

// Setup implements targets.Target.
func (h *HT) Setup(t *rt.Thread) error {
	h.pool = pmdk.Create(t)
	root, err := h.pool.Alloc(t, rootSize)
	if err != nil {
		return err
	}
	h.root = root
	t.Env().AnnotateSyncVar(core.SyncVar{Name: "dir-lock", Addr: root + fldDirLock, Size: 8, InitVal: 0})

	// Two initial segments, directory of two entries.
	capacity := uint64(1) << initialDepth
	dir, err := h.newDirectory(t, capacity, taint.None)
	if err != nil {
		return err
	}
	for i := uint64(0); i < capacity; i++ {
		seg, err := h.newSegment(t, initialDepth, taint.None)
		if err != nil {
			return err
		}
		t.NTStore64(dir+8+i*8, seg, taint.None, taint.None)
	}
	t.Fence()
	t.Store64(root+fldDirOff, dir, taint.None, taint.None)
	t.Store64(root+fldDepth, initialDepth, taint.None, taint.None)
	t.Store64(root+fldCapacity, capacity, taint.None, taint.None)
	t.Persist(root, rootSize)
	h.pool.SetRoot(t, root)
	return nil
}

// newDirectory allocates a directory object: a capacity header followed by
// capacity segment pointers. The header write carries the taint of the
// capacity value — Bug 7's durable side effect when that value is dirty.
func (h *HT) newDirectory(t *rt.Thread, capacity uint64, capLab taint.Label) (pmem.Addr, error) {
	dir, err := h.pool.Alloc(t, 8+capacity*8)
	if err != nil {
		return 0, err
	}
	//pmvet:ignore fence-pairing -- callers fence after finishing directory initialization
	t.NTStore64(dir, capacity, capLab, taint.None)
	return dir, nil
}

// newSegment allocates a zeroed segment with the given local depth and
// annotates its persistent lock. depthLab carries the taint of the depth
// value, which split derives from a loaded local depth.
func (h *HT) newSegment(t *rt.Thread, depth uint64, depthLab taint.Label) (pmem.Addr, error) {
	seg, err := h.pool.Alloc(t, segSize)
	if err != nil {
		return 0, err
	}
	zero := make([]byte, segSize)
	t.NTStoreBytes(seg, zero, taint.None, taint.None)
	t.NTStore64(seg+segDepth, depth, depthLab, taint.None)
	t.Fence()
	t.Env().AnnotateSyncVar(core.SyncVar{Name: "segment-lock", Addr: seg + segLock, Size: 8, InitVal: 0})
	return seg, nil
}

// Exec implements targets.Target.
func (h *HT) Exec(t *rt.Thread, op workload.Op) error {
	t.Branch()
	switch op.Kind {
	case workload.OpGet, workload.OpBGet:
		h.Get(t, op.Key)
	case workload.OpSet, workload.OpAdd, workload.OpReplace, workload.OpAppend, workload.OpPrepend:
		return h.Put(t, op.Key, op.Value)
	case workload.OpIncr, workload.OpDecr:
		n, _ := strconv.Atoi(op.Value)
		return h.Put(t, op.Key, strconv.Itoa(n*2+1))
	case workload.OpDelete:
		h.Delete(t, op.Key)
	}
	return nil
}

// segmentFor resolves the segment for a key hash through the directory. The
// global depth is derived from the directory object's own capacity header
// rather than a separate root field: a lock-free reader must never combine
// an old directory pointer with a new depth (or vice versa), or it would
// index past the directory into unrelated memory.
func (h *HT) segmentFor(t *rt.Thread, kf uint64) (seg pmem.Addr, lab taint.Label, depth uint64) {
	dir, dlab := t.Load64(h.root + fldDirOff)
	cap64, clab := t.Load64(dir) // capacity header of this directory
	lab = t.Env().Labels().UnionAll([]taint.Label{dlab, clab})
	gd := uint64(bits.Len64(cap64))
	if gd > 0 {
		gd--
	}
	if gd > maxDepth {
		gd = maxDepth
	}
	idx := dirIndex(kf, gd)
	seg, slab := t.Load64(dir + 8 + idx*8)
	return seg, t.Env().Labels().Union(lab, slab), gd
}

// dirIndex takes the top gd bits of the hash.
func dirIndex(kf, gd uint64) uint64 {
	if gd == 0 {
		return 0
	}
	return kf >> (64 - gd)
}

// Get is a lock-free search; reads of in-flight (unflushed) slot writes are
// inter-thread inconsistency candidates without durable side effects.
func (h *HT) Get(t *rt.Thread, key string) (uint64, bool) {
	t.Branch()
	kf := targets.Fingerprint(key)
	seg, _, _ := h.segmentFor(t, kf)
	for i := 0; i < slotsPerSegment; i++ {
		slot := seg + segSlots + pmem.Addr(i*16)
		k, _ := t.Load64(slot)
		if k == kf {
			v, _ := t.Load64(slot + 8)
			return v, true
		}
	}
	return 0, false
}

// Put inserts or updates under the persistent segment lock.
func (h *HT) Put(t *rt.Thread, key, val string) error {
	t.Branch()
	kf, vf := targets.Fingerprint(key), targets.Fingerprint(val)
	for attempt := 0; attempt < maxDepth+2; attempt++ {
		seg, lab, gd := h.segmentFor(t, kf)
		t.SpinLock(seg + segLock)
		// Re-check that the segment was not split while waiting.
		cur, _, _ := h.segmentFor(t, kf)
		if cur != seg {
			t.SpinUnlock(seg + segLock)
			continue
		}
		free := -1
		for i := 0; i < slotsPerSegment; i++ {
			slot := seg + segSlots + pmem.Addr(i*16)
			k, _ := t.Load64(slot)
			if k == kf {
				// Update: a regular store followed by an
				// explicit flush (the dirty window Get readers
				// observe).
				t.Store64(slot+8, vf, taint.None, lab)
				t.Persist(slot+8, 8)
				t.SpinUnlock(seg + segLock)
				return nil
			}
			if k == 0 && free < 0 {
				free = i
			}
		}
		if free >= 0 {
			slot := seg + segSlots + pmem.Addr(free*16)
			t.Store64(slot+8, vf, taint.None, lab)
			t.Store64(slot, kf, taint.None, lab)
			t.Persist(slot, 16)
			t.SpinUnlock(seg + segLock)
			return nil
		}
		t.SpinUnlock(seg + segLock)
		if err := h.split(t, kf, gd); err != nil {
			return err
		}
	}
	return errors.New("cceh: segment still full after split")
}

// Delete zeroes the key slot under the segment lock.
func (h *HT) Delete(t *rt.Thread, key string) bool {
	t.Branch()
	kf := targets.Fingerprint(key)
	seg, lab, _ := h.segmentFor(t, kf)
	t.SpinLock(seg + segLock)
	for i := 0; i < slotsPerSegment; i++ {
		slot := seg + segSlots + pmem.Addr(i*16)
		k, _ := t.Load64(slot)
		if k == kf {
			t.Store64(slot, 0, taint.None, lab)
			t.Persist(slot, 8)
			t.SpinUnlock(seg + segLock)
			return true
		}
	}
	t.SpinUnlock(seg + segLock)
	return false
}

// split replaces a full segment with two of double local depth, doubling the
// directory when the local depth reaches the global depth (Bug 7 lives in
// the doubling path).
func (h *HT) split(t *rt.Thread, kf, gdSeen uint64) error {
	t.LockMutex(&h.growMu)
	defer t.UnlockMutex(&h.growMu)
	t.Branch()
	t.SpinLock(h.root + fldDirLock)
	defer t.SpinUnlock(h.root + fldDirLock)

	dir, dlab := t.Load64(h.root + fldDirOff)
	gd, _ := t.Load64(h.root + fldDepth)
	idx := dirIndex(kf, gd)
	seg, _ := t.Load64(dir + 8 + idx*8)
	ld, ldlab := t.Load64(seg + segDepth)

	if ld >= gd {
		if gd >= maxDepth {
			return errors.New("cceh: directory at maximum depth")
		}
		var err error
		dir, gd, err = h.doubleDirectory(t, dir, gd)
		if err != nil {
			return err
		}
		// The doubled directory comes fresh from Alloc.
		dlab = taint.None
		idx = dirIndex(kf, gd)
	}

	// Split seg into two segments of local depth ld+1.
	left, err := h.newSegment(t, ld+1, ldlab)
	if err != nil {
		return err
	}
	right, err := h.newSegment(t, ld+1, ldlab)
	if err != nil {
		return err
	}
	t.SpinLock(seg + segLock)
	for i := 0; i < slotsPerSegment; i++ {
		slot := seg + segSlots + pmem.Addr(i*16)
		k, klab := t.Load64(slot)
		if k == 0 {
			continue
		}
		v, vlab := t.Load64(slot + 8)
		dst := left
		if k>>(64-(ld+1))&1 == 1 {
			dst = right
		}
		h.placeInSegment(t, dst, k, v, t.Env().Labels().Union(klab, vlab))
	}
	t.SpinUnlock(seg + segLock)

	// Point every directory entry that referenced seg at the matching new
	// segment; entry updates are flushed immediately (the original's
	// clflush-per-entry), leaving no dirty directory window.
	cap64, _ := t.Load64(dir)
	for i := uint64(0); i < cap64; i++ {
		e, _ := t.Load64(dir + 8 + i*8)
		if e != seg {
			continue
		}
		dst := left
		if i>>(gd-(ld+1))&1 == 1 {
			dst = right
		}
		t.NTStore64(dir+8+i*8, dst, taint.None, dlab)
	}
	t.Fence()
	return nil
}

// doubleDirectory doubles the directory. BUG 7: the new capacity is stored
// (CCEH.h:165 analogue), read back before any flush (CCEH.cpp:171 analogue)
// and used to allocate and initialize the new directory — a durable side
// effect based on non-persisted data. If the crash drops the capacity store,
// the allocated directory is unreachable garbage: PM leakage.
func (h *HT) doubleDirectory(t *rt.Thread, dir, gd uint64) (pmem.Addr, uint64, error) {
	oldCap, oclab := t.Load64(dir)
	t.Store64(h.root+fldCapacity, oldCap*2, oclab, taint.None) // not flushed yet
	// Intra-thread dirty read of the capacity just stored.
	newCap, capLab := t.Load64(h.root + fldCapacity)
	newDir, err := h.newDirectory(t, newCap, capLab) // durable side effect
	if err != nil {
		return 0, 0, err
	}
	for i := uint64(0); i < oldCap; i++ {
		e, elab := t.Load64(dir + 8 + i*8)
		t.NTStore64(newDir+8+2*i*8, e, elab, capLab)
		t.NTStore64(newDir+8+(2*i+1)*8, e, elab, capLab)
	}
	t.Fence()
	// CCEH publishes the new directory with immediately flushed stores
	// (MSB-tagged pointer + clflush in the original): no dirty window, so
	// — matching the paper — PMRace finds no inter-thread bug here.
	t.NTStore64(h.root+fldDirOff, newDir, taint.None, taint.None)
	t.NTStore64(h.root+fldDepth, gd+1, taint.None, taint.None)
	t.Fence()
	t.Persist(h.root+fldCapacity, 8)
	return newDir, gd + 1, nil
}

func (h *HT) placeInSegment(t *rt.Thread, seg pmem.Addr, k, v uint64, lab taint.Label) {
	for i := 0; i < slotsPerSegment; i++ {
		slot := seg + segSlots + pmem.Addr(i*16)
		cur, _ := t.Load64(slot)
		if cur == 0 || cur == k {
			t.NTStore64(slot, k, taint.None, lab)
			t.NTStore64(slot+8, v, taint.None, lab)
			t.Fence()
			return
		}
	}
	// Pathological skew: overwrite the last slot rather than silently
	// dropping the item (the original chains via probing; the
	// simplification does not affect the bug surface).
	slot := seg + segSlots + pmem.Addr((slotsPerSegment-1)*16)
	t.NTStore64(slot, k, taint.None, lab)
	t.NTStore64(slot+8, v, taint.None, lab)
	t.Fence()
}

// Recover implements targets.Target. BUG 6: segment locks are not released
// — a lock persisted as held hangs post-recovery writers. The directory
// lock is re-initialized (its sync inconsistencies validate as benign).
func (h *HT) Recover(t *rt.Thread) error {
	pool, err := pmdk.Open(t)
	if err != nil {
		return err
	}
	h.pool = pool
	root, _ := pool.Root(t)
	if root == 0 {
		return errors.New("cceh: no root object")
	}
	h.root = root
	t.Store64(root+fldDirLock, 0, taint.None, taint.None)
	t.Persist(root+fldDirLock, 8)
	t.Env().AnnotateSyncVar(core.SyncVar{Name: "dir-lock", Addr: root + fldDirLock, Size: 8, InitVal: 0})
	// Walk the directory to re-annotate segment locks (but never reset
	// them — Bug 6).
	dir, _ := t.Load64(root + fldDirOff)
	cap64, _ := t.Load64(dir)
	seen := map[pmem.Addr]bool{}
	for i := uint64(0); i < cap64 && i < (1<<maxDepth); i++ {
		seg, _ := t.Load64(dir + 8 + i*8)
		if seg == 0 || seen[seg] {
			continue
		}
		seen[seg] = true
		t.Env().AnnotateSyncVar(core.SyncVar{Name: "segment-lock", Addr: seg + segLock, Size: 8, InitVal: 0})
	}
	return nil
}

// Depth returns the current global depth (test oracle).
func (h *HT) Depth(t *rt.Thread) uint64 {
	gd, _ := t.Load64(h.root + fldDepth)
	return gd
}
