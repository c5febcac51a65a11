// Package pmdk is a miniature re-implementation of the parts of Intel's
// Persistent Memory Development Kit (libpmemobj) that the evaluated PM
// systems rely on: pool creation/opening with a root object, a persistent
// heap allocator, and undo-log transactions whose recovery reverts
// uncommitted modifications. It exists so that the reproduction exhibits the
// recovery behaviours the paper's post-failure validation and default
// whitelist depend on (§4.4): undo-logged data is restored on open (turning
// detected inconsistencies into validated false positives) and transactional
// allocation is redo-log-protected (covered by the default whitelist).
package pmdk

import (
	"errors"
	"fmt"
	"sync"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/taint"
)

// Pool layout (offsets in bytes).
const (
	offMagic   = 0
	offRoot    = 8
	offHeapTop = 16

	// Undo log region.
	offTxActive  = 64                // 1 while a transaction is open
	offTxCount   = 72                // number of undo entries
	logEntryOff  = 128               // first undo entry
	logEntrySize = 16 + maxUndoRange // 256 bytes, keeping HeapBase line aligned
	maxUndoRange = 240               // max bytes captured per AddRange
	maxUndoEnts  = 62

	// offRedoTop is the redo-log slot backing AllocRedo: the intended
	// heap top is persisted here before the bump pointer itself is
	// (lazily) persisted, making the allocation crash-consistent even
	// though readers may observe a dirty bump pointer.
	offRedoTop = 80

	// HeapBase is where allocations start.
	HeapBase = logEntryOff + maxUndoEnts*logEntrySize
)

// Magic tags a formatted pool.
const Magic = 0x504d444b2d4d494e // "PMDK-MIN"

// ErrNotFormatted is returned by Open on a pool without the expected magic.
var ErrNotFormatted = errors.New("pmdk: pool not formatted")

// ErrOutOfMemory is returned when the heap is exhausted.
var ErrOutOfMemory = errors.New("pmdk: out of persistent memory")

// ObjPool is a formatted persistent object pool. Its volatile mutexes are
// taken through rt.Thread.LockMutex, so a thread blocked on one is visible to
// the interleaving strategy as parked.
type ObjPool struct {
	allocMu sync.Mutex
	txMu    sync.Mutex
	size    uint64
}

// Create formats the pool backing t's environment: it writes the header,
// clears the undo log and initializes the heap. Like libpmemobj's
// pmemobj_create, formatting touches and persists a significant region,
// which is exactly the initialization cost the in-memory checkpoints of the
// fuzzer amortize (paper §5, Figure 10).
func Create(t *rt.Thread) *ObjPool {
	p := &ObjPool{size: t.Env().Pool().Size()}
	// Format the whole pool line by line, persisting as real pool
	// formatting does (pmemobj_create lays out lanes and per-chunk heap
	// headers across the entire file — this is the cost Figure 10's
	// checkpoints amortize).
	zero := make([]byte, pmem.LineSize)
	for off := uint64(0); off < p.size; off += pmem.LineSize {
		t.NTStoreBytes(off, zero, taint.None, taint.None)
	}
	t.NTStore64(offHeapTop, HeapBase, taint.None, taint.None)
	t.NTStore64(offRoot, 0, taint.None, taint.None)
	t.NTStore64(offMagic, Magic, taint.None, taint.None)
	t.Fence()
	return p
}

// Open maps an existing pool and runs recovery: if a transaction was active
// at crash time, every undo-logged range is reverted to its logged contents
// and the log is cleared. This is the custom recovery mechanism that fixes
// clevel hashing's construction-time inconsistencies (paper Figure 7).
func Open(t *rt.Thread) (*ObjPool, error) {
	magic, _ := t.Load64(offMagic)
	if magic != Magic {
		return nil, fmt.Errorf("%w: magic %#x", ErrNotFormatted, magic)
	}
	p := &ObjPool{size: t.Env().Pool().Size()}
	active, _ := t.Load64(offTxActive)
	if active != 0 {
		p.recover(t)
	}
	// Replay the AllocRedo redo slot: the persisted intention wins over a
	// possibly stale bump pointer.
	redo, _ := t.Load64(offRedoTop)
	top, _ := t.Load64(offHeapTop)
	if redo > top && redo <= p.size {
		t.Store64(offHeapTop, redo, taint.None, taint.None)
		t.Persist(offHeapTop, 8)
	}
	return p, nil
}

// recover reverts uncommitted undo-logged ranges.
func (p *ObjPool) recover(t *rt.Thread) {
	count, _ := t.Load64(offTxCount)
	if count > maxUndoEnts {
		count = maxUndoEnts
	}
	// Revert in reverse order so overlapping ranges restore the oldest
	// image.
	for i := int64(count) - 1; i >= 0; i-- {
		ent := uint64(logEntryOff) + uint64(i)*logEntrySize
		off, _ := t.Load64(ent)
		n, _ := t.Load64(ent + 8)
		if n > maxUndoRange || off+n > p.size {
			continue
		}
		data, _ := t.LoadBytes(ent+16, n)
		t.StoreBytes(off, data, taint.None, taint.None)
		t.Persist(off, n)
	}
	t.Store64(offTxCount, 0, taint.None, taint.None)
	t.Store64(offTxActive, 0, taint.None, taint.None)
	t.Persist(offTxActive, 16)
}

// Root returns the root object offset (0 when unset) and its taint label.
func (p *ObjPool) Root(t *rt.Thread) (pmem.Addr, taint.Label) {
	return t.Load64(offRoot)
}

// SetRoot durably points the pool's root object at off.
func (p *ObjPool) SetRoot(t *rt.Thread, off pmem.Addr) {
	t.Store64(offRoot, off, taint.None, taint.None)
	t.Persist(offRoot, 8)
}

// Alloc carves size bytes (rounded up to a cache line) off the persistent
// heap and durably advances the bump pointer before returning. Because the
// new top is persisted under the allocator lock, concurrent allocations
// never observe a dirty heap pointer.
func (p *ObjPool) Alloc(t *rt.Thread, size uint64) (pmem.Addr, error) {
	t.LockMutex(&p.allocMu)
	defer t.UnlockMutex(&p.allocMu)
	return p.allocLocked(t, size, true)
}

func (p *ObjPool) allocLocked(t *rt.Thread, size uint64, persist bool) (pmem.Addr, error) {
	if rem := size % pmem.LineSize; rem != 0 {
		size += pmem.LineSize - rem
	}
	top, lab := t.Load64(offHeapTop)
	if top+size > p.size {
		return 0, ErrOutOfMemory
	}
	t.Store64(offHeapTop, top+size, lab, taint.None)
	if persist {
		t.Persist(offHeapTop, 8)
	}
	return top, nil
}

// AllocRedo is a redo-logged allocation, the concurrency-friendly analogue
// of PMDK's transactional allocation: the intended new heap top is persisted
// into a redo slot first, then the bump pointer is stored *without* an
// immediate flush. Readers of the bump pointer may observe non-persisted
// data — an inconsistency candidate — but recovery replays the redo slot, so
// the pattern is crash-consistent and covered by the default whitelist
// (paper §4.4: "the default whitelist of PMRace includes the transactional
// allocations in PMDK").
func (p *ObjPool) AllocRedo(t *rt.Thread, size uint64) (pmem.Addr, error) {
	t.LockMutex(&p.allocMu)
	defer t.UnlockMutex(&p.allocMu)
	if rem := size % pmem.LineSize; rem != 0 {
		size += pmem.LineSize - rem
	}
	top, lab := t.Load64(offHeapTop)
	if top+size > p.size {
		return 0, ErrOutOfMemory
	}
	// Redo record first (durable), then the unflushed bump update.
	t.NTStore64(offRedoTop, top+size, lab, taint.None)
	t.Store64(offHeapTop, top+size, lab, taint.None)
	return top, nil
}

// HeapUsed returns the number of allocated heap bytes.
func (p *ObjPool) HeapUsed(t *rt.Thread) uint64 {
	top, _ := t.Load64(offHeapTop)
	return top - HeapBase
}

// Tx is an undo-log transaction. PMRace's post-failure validation relies on
// its recovery semantics; note that, like real PMDK, it provides atomicity
// with respect to crashes but no isolation between threads — in-transaction
// PM writes are immediately visible to other threads (paper §4.4).
type Tx struct {
	p          *rt.Thread
	pool       *ObjPool
	count      uint64
	closed     bool
	heapLogged bool
}

// Begin opens a transaction. Only one transaction may be open at a time
// (the mini-PMDK equivalent of a single lane).
func (p *ObjPool) Begin(t *rt.Thread) *Tx {
	t.LockMutex(&p.txMu)
	t.Store64(offTxCount, 0, taint.None, taint.None)
	t.Store64(offTxActive, 1, taint.None, taint.None)
	t.Persist(offTxActive, 16)
	return &Tx{p: t, pool: p}
}

// AddRange undo-logs [off, off+n) so that a crash before Commit reverts it.
// n must be at most 256 bytes (split larger ranges).
func (tx *Tx) AddRange(off pmem.Addr, n uint64) error {
	if tx.closed {
		return errors.New("pmdk: transaction closed")
	}
	if n > maxUndoRange {
		return fmt.Errorf("pmdk: AddRange of %d bytes exceeds %d", n, maxUndoRange)
	}
	if tx.count >= maxUndoEnts {
		return errors.New("pmdk: undo log full")
	}
	t := tx.p
	ent := uint64(logEntryOff) + tx.count*logEntrySize
	data, _ := t.LoadBytes(off, n)
	t.Store64(ent, off, taint.None, taint.None)
	t.Store64(ent+8, n, taint.None, taint.None)
	t.StoreBytes(ent+16, data, taint.None, taint.None)
	t.Persist(ent, 16+n)
	tx.count++
	t.Store64(offTxCount, tx.count, taint.None, taint.None)
	t.Persist(offTxCount, 8)
	return nil
}

// Alloc performs a transactional allocation. Real PMDK implements this with
// a redo log that makes it crash-consistent even though the bump pointer is
// not persisted until commit; the default whitelist therefore marks this
// function as benign (paper §4.4: "the default whitelist of PMRace includes
// the transactional allocations in PMDK"). The heap pointer is undo-logged,
// so a crash before Commit rolls the allocation back.
func (tx *Tx) Alloc(size uint64) (pmem.Addr, error) {
	if tx.closed {
		return 0, errors.New("pmdk: transaction closed")
	}
	tx.p.LockMutex(&tx.pool.allocMu)
	defer tx.p.UnlockMutex(&tx.pool.allocMu)
	if !tx.heapLogged {
		if err := tx.addHeapTop(); err != nil {
			return 0, err
		}
	}
	// The bump pointer stays unpersisted until commit: reads of it are
	// inconsistency candidates, protected (whitelisted) by redo logging.
	return tx.pool.allocLocked(tx.p, size, false)
}

func (tx *Tx) addHeapTop() error {
	if err := tx.AddRange(offHeapTop, 8); err != nil {
		return err
	}
	tx.heapLogged = true
	return nil
}

// Commit makes the transaction's effects durable and clears the undo log.
func (tx *Tx) Commit() {
	if tx.closed {
		return
	}
	t := tx.p
	// Persist everything the transaction touched: mini-PMDK persists the
	// undo-logged ranges (real PMDK flushes the modified ranges at
	// tx_commit).
	count, _ := t.Load64(offTxCount)
	for i := uint64(0); i < count && i < maxUndoEnts; i++ {
		ent := uint64(logEntryOff) + i*logEntrySize
		off, _ := t.Load64(ent)
		n, _ := t.Load64(ent + 8)
		if n <= maxUndoRange && off+n <= tx.pool.size {
			t.Persist(off, n)
		}
	}
	t.Persist(offHeapTop, 8)
	t.Store64(offTxActive, 0, taint.None, taint.None)
	t.Store64(offTxCount, 0, taint.None, taint.None)
	t.Persist(offTxActive, 16)
	tx.closed = true
	t.UnlockMutex(&tx.pool.txMu)
}

// Abort rolls the transaction back immediately using the undo log, exactly
// as crash recovery would.
func (tx *Tx) Abort() {
	if tx.closed {
		return
	}
	tx.pool.recover(tx.p)
	tx.closed = true
	tx.p.UnlockMutex(&tx.pool.txMu)
}

// DefaultWhitelist returns the default benign-pattern whitelist entries
// (paper §4.4): mini-PMDK's redo-log-protected transactional allocation and
// the undo-log machinery itself.
func DefaultWhitelist() []string {
	return []string{
		"pmdk.(*Tx).Alloc",
		"pmdk.(*Tx).AddRange",
		"pmdk.(*ObjPool).AllocRedo",
		"pmdk.(*ObjPool).recover",
	}
}
