package rt

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/cover"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/taint"
)

// fastPC reports whether the frame-pointer caller-PC capture verified at
// startup; when false every hook falls back to the runtime.Callers unwind.
var fastPC = site.VerifyReturnPC()

// logSize is the capacity of a thread's access log. 256 records (~8 KiB)
// cover a typical critical section; a full log self-drains, so the bound
// only sets drain granularity, never drops records.
const logSize = 256

// logPool recycles access logs: Spawn takes one, Exit returns it after its
// final drain, so executions and recovery runs do not allocate ~8 KiB per
// thread.
var logPool = sync.Pool{New: func() any { return new([logSize]core.LogRecord) }}

// Thread is the hook handle one simulated program thread uses for every PM
// access. Each hook call site is one "instrumented instruction": the hook
// resolves its caller to a site ID that plays the role of PMRace's LLVM
// instruction ID.
//
// Every exported hook is marked go:noinline — the hook must own a real stack
// frame so the one-instruction frame-pointer walk in site.ReturnPC lands on
// the instrumented call site (the fallback unwind needs the fixed frame depth
// too).
//
// A Thread is used by a single goroutine.
type Thread struct {
	// ID is the simulated thread ID; it appears in the paper's
	// (instruction, persistency state, thread) access triples.
	ID  pmem.ThreadID
	env *Env

	// log is the thread's epoch-append access log: hooks append one record
	// per access with no lock and no inline analysis; the deferred
	// analyses (alias pairs, statistics, redundant stores) run in batches
	// when the log drains at a sync point (lock, unlock, fence, exit) or
	// when it fills. clock is the FastTrack-style epoch counter advancing
	// once per drain, so all records of a batch share one epoch. The log
	// comes from logPool; Exit returns it and leaves log nil with logN at
	// logSize, so a hook after Exit sees a full log and its drain takes a
	// fresh one, without an extra branch on the append path.
	log   *[logSize]core.LogRecord
	logN  int
	clock uint32

	branchPrev uint32
}

// Env returns the environment the thread runs in.
func (t *Thread) Env() *Env { return t.env }

// Exit drains the thread's access log, returns it to logPool and unregisters
// the thread from the interleaving strategy. It is a sync point: after Exit,
// every deferred analysis result from this thread is published.
func (t *Thread) Exit() {
	t.drainLog()
	logPool.Put(t.log)
	t.log, t.logN = nil, logSize
	t.env.noteThreadExit(t.ID)
	t.env.strat.ThreadExit(t.ID)
}

// HangError is panicked when a spin lock or a LockMutex-acquired mutex can
// never be granted, or a spin lock exceeds the hang timeout; the campaign
// executor recovers it and records a hang (e.g. a deadlock from a
// conventional concurrency bug, or a never-released persistent lock after
// recovery).
type HangError struct{ Report HangReport }

// Error implements error.
func (h HangError) Error() string {
	if h.Report.Mutex {
		return fmt.Sprintf("rt: thread %d hung acquiring a volatile mutex (%s): %s", h.Report.Thread, h.Report.Site, h.Report.Reason)
	}
	return fmt.Sprintf("rt: thread %d hung acquiring lock at PM offset %#x (%s): %s", h.Report.Thread, h.Report.Addr, h.Report.Site, h.Report.Reason)
}

// siteFromPC resolves a hook's instrumented call site from the raw return PC
// the hook captured with site.ReturnPC, through the global registry's
// lock-free map. Kept out of line so the fallback's unwind depth is fixed
// whether or not the compiler would inline it: Here(1) resolves the caller of
// this function's caller, i.e. the instrumented site.
//
//go:noinline
func siteFromPC(pc uintptr) site.ID {
	if fastPC && pc != 0 {
		return site.ResolvePC(pc)
	}
	return site.Here(1)
}

// logAccess appends one record to the thread's access log, draining first if
// the log is full. No lock: the log is as thread-local as the Thread.
func (t *Thread) logAccess(addr pmem.Addr, prev pmem.Accessor, s site.ID, kind uint8) {
	if t.logN == logSize {
		t.drainLog()
	}
	t.log[t.logN] = core.LogRecord{Addr: addr, Prev: prev, Site: s, Kind: kind}
	t.logN++
}

// drainLog hands the accumulated records to the environment's batch analyzer
// and advances the thread's epoch clock. On a thread past Exit, which holds
// no log, it takes a fresh one instead.
func (t *Thread) drainLog() {
	if t.logN == 0 {
		return
	}
	if t.log == nil {
		t.log, t.logN = logPool.Get().(*[logSize]core.LogRecord), 0
		return
	}
	t.env.batch.Process(t.ID, t.clock, t.log[:t.logN])
	t.logN = 0
	t.clock++
}

// --- loads ---

// Load64 performs an instrumented 8-byte PM load. It returns the loaded
// value and its taint label: the union of the shadow label of the stored
// value and, when the word is dirty, a fresh label for the inconsistency
// candidate created by this read (paper §4.3, "PM Inter-thread Inconsistency
// Candidate" checker).
//
//go:noinline
func (t *Thread) Load64(addr pmem.Addr) (uint64, taint.Label) {
	s := siteFromPC(site.ReturnPC())
	return t.load64At(addr, s)
}

func (t *Thread) load64At(addr pmem.Addr, s site.ID) (uint64, taint.Label) {
	e := t.env
	e.checkCancel()
	if !e.stratNone {
		e.strat.BeforeLoad(t.ID, addr, s)
	}
	val, meta, shadow, prev := e.pool.InstrLoad64(t.ID, uint32(s), addr)
	var kind uint8
	if meta.Dirty {
		kind = core.KindDirty
	}
	t.logAccess(addr, prev, s, kind)
	return val, t.dirtyRead(taint.Label(shadow), addr&^(pmem.WordSize-1), meta, s)
}

// dirtyRead records the inconsistency candidate of a read at site s that
// observed the word at waddr in state meta, when the word is dirty, and
// returns lab unioned with the candidate's fresh label.
func (t *Thread) dirtyRead(lab taint.Label, waddr pmem.Addr, meta pmem.WordMeta, s site.ID) taint.Label {
	if !meta.Dirty || meta.Writer == pmem.NoThread {
		return lab
	}
	e := t.env
	ev := taint.Event{
		Addr:      waddr,
		Epoch:     meta.Epoch,
		WriteSite: meta.Site,
		ReadSite:  uint32(s),
		Writer:    int32(meta.Writer),
		Reader:    int32(t.ID),
	}
	return e.labels.Union(lab, e.det.OnDirtyRead(ev))
}

// LoadBytes performs an instrumented PM load of n bytes. Dirty words in the
// range produce inconsistency candidates exactly like Load64.
//
//go:noinline
func (t *Thread) LoadBytes(addr pmem.Addr, n uint64) ([]byte, taint.Label) {
	s := siteFromPC(site.ReturnPC())
	e := t.env
	e.checkCancel()
	if !e.stratNone {
		e.strat.BeforeLoad(t.ID, addr, s)
	}
	out, meta, waddr, dirty, rawLabels, prev := e.pool.InstrLoadBytes(t.ID, uint32(s), addr, n)
	var kind uint8
	if dirty {
		kind = core.KindDirty
	}
	t.logAccess(addr, prev, s, kind)
	return out, t.dirtyRead(e.labels.UnionAll(labelsOf(rawLabels)), waddr, meta, s)
}

// --- stores ---

// Store64 performs an instrumented 8-byte PM store. valLab is the taint
// label of the stored value; addrLab is the label of the address computation
// (non-None when the target address derives from loaded PM data, e.g.
// indexing through a table pointer). A non-None label whose source is still
// non-persisted makes this store a durable side effect: a PM inter- or
// intra-thread inconsistency (paper Definition 2).
//
//go:noinline
func (t *Thread) Store64(addr pmem.Addr, val uint64, valLab, addrLab taint.Label) {
	s := siteFromPC(site.ReturnPC())
	t.store64At(addr, val, valLab, addrLab, s)
}

func (t *Thread) store64At(addr pmem.Addr, val uint64, valLab, addrLab taint.Label, s site.ID) {
	t.store64NoSignal(addr, val, valLab, addrLab, s)
	if !t.env.stratNone {
		t.env.strat.AfterStore(t.ID, addr, s)
	}
}

// store64NoSignal is store64At without the strategy's AfterStore call.
func (t *Thread) store64NoSignal(addr pmem.Addr, val uint64, valLab, addrLab taint.Label, s site.ID) {
	e := t.env
	e.checkCancel()
	if !e.stratNone {
		e.strat.BeforeStore(t.ID, addr, s)
	}
	t.checkSideEffect(s, addr, 8, valLab, addrLab)
	old, prev := e.pool.InstrStore64(t.ID, uint32(s), addr, val, uint32(valLab))
	kind := core.KindStore | core.KindDirty
	if old == val && old != 0 {
		kind |= core.KindRedundant
	}
	t.logAccess(addr, prev, s, kind)
	t.checkSyncVar(s, addr, 8, old, val)
}

// StoreBytes performs an instrumented PM store of a byte slice. An empty
// slice stores nothing and is no access.
//
//go:noinline
func (t *Thread) StoreBytes(addr pmem.Addr, data []byte, valLab, addrLab taint.Label) {
	if len(data) == 0 {
		return
	}
	s := siteFromPC(site.ReturnPC())
	e := t.env
	e.checkCancel()
	n := uint64(len(data))
	if !e.stratNone {
		e.strat.BeforeStore(t.ID, addr, s)
	}
	t.checkSideEffect(s, addr, n, valLab, addrLab)
	prev := e.pool.InstrStoreBytes(t.ID, uint32(s), addr, data, uint32(valLab))
	t.logAccess(addr, prev, s, core.KindStore|core.KindDirty)
	if !e.stratNone {
		e.strat.AfterStore(t.ID, addr, s)
	}
}

// NTStore64 performs an instrumented non-temporal 8-byte store: the write is
// durable immediately (PM_CLEAN), so it is itself a durable side effect if
// its value or address is tainted — the movnt64 pattern of the P-CLHT bug.
//
//go:noinline
func (t *Thread) NTStore64(addr pmem.Addr, val uint64, valLab, addrLab taint.Label) {
	s := siteFromPC(site.ReturnPC())
	e := t.env
	e.checkCancel()
	if !e.stratNone {
		e.strat.BeforeStore(t.ID, addr, s)
	}
	t.checkSideEffect(s, addr, 8, valLab, addrLab)
	old, prev := e.pool.InstrNTStore64(t.ID, uint32(s), addr, val, uint32(valLab))
	t.logAccess(addr, prev, s, core.KindStore)
	t.checkSyncVar(s, addr, 8, old, val)
}

// NTStoreBytes performs an instrumented non-temporal store of a byte slice.
// An empty slice stores nothing and is no access.
//
//go:noinline
func (t *Thread) NTStoreBytes(addr pmem.Addr, data []byte, valLab, addrLab taint.Label) {
	if len(data) == 0 {
		return
	}
	s := siteFromPC(site.ReturnPC())
	e := t.env
	e.checkCancel()
	n := uint64(len(data))
	if !e.stratNone {
		e.strat.BeforeStore(t.ID, addr, s)
	}
	t.checkSideEffect(s, addr, n, valLab, addrLab)
	prev := e.pool.InstrNTStoreBytes(t.ID, uint32(s), addr, data, uint32(valLab))
	t.logAccess(addr, prev, s, core.KindStore)
}

// CAS64 performs an instrumented compare-and-swap. On success it has store
// semantics (side-effect and sync-variable checks apply); on failure it has
// load semantics. The returned label covers the observed value.
//
//go:noinline
func (t *Thread) CAS64(addr pmem.Addr, old, new uint64, valLab, addrLab taint.Label) (bool, uint64, taint.Label) {
	s := siteFromPC(site.ReturnPC())
	return t.cas64At(addr, old, new, valLab, addrLab, s)
}

func (t *Thread) cas64At(addr pmem.Addr, old, new uint64, valLab, addrLab taint.Label, s site.ID) (bool, uint64, taint.Label) {
	e := t.env
	e.checkCancel()
	if !e.stratNone {
		e.strat.BeforeStore(t.ID, addr, s)
	}
	ok, observed, meta, shadow, prev := e.pool.InstrCAS64(t.ID, uint32(s), addr, old, new, uint32(valLab))
	t.logAccess(addr, prev, s, core.KindStore|core.KindDirty)
	lab := t.dirtyRead(taint.Label(shadow), addr&^(pmem.WordSize-1), meta, s)
	if ok {
		t.checkSideEffect(s, addr, 8, valLab, addrLab)
		t.checkSyncVar(s, addr, 8, observed, new)
		if !e.stratNone {
			e.strat.AfterStore(t.ID, addr, s)
		}
	}
	return ok, observed, lab
}

// ExternSideEffect reports a durable side effect outside the pool: writing
// to disk, sending data to another process, answering a client. Definition 2
// counts these alongside PM writes — if the outgoing data derives from
// still-non-persisted PM state, a crash leaves the external world ahead of
// PM. The label is the taint of the escaping data.
//
//go:noinline
func (t *Thread) ExternSideEffect(lab taint.Label) {
	if lab == taint.None {
		return
	}
	s := siteFromPC(site.ReturnPC())
	t.drainLog()
	e := t.env
	found := e.det.OnStore(core.StoreCheck{
		Thread:    t.ID,
		Site:      s,
		Addr:      0,
		Size:      0,
		ValLab:    lab,
		External:  true,
		Stack:     captureStack,
		Known:     e.cfg.KnownInconsistency,
		WordState: e.pool.WordState,
	})
	if e.cfg.OnInconsistency != nil {
		for _, in := range found {
			e.cfg.OnInconsistency(e, in)
		}
	}
}

// --- persistency ---

// Flush issues CLWB over the lines covering [addr, addr+n). The written-back
// words become durable at this thread's next Fence.
//
//go:noinline
func (t *Thread) Flush(addr pmem.Addr, n uint64) {
	t.flushAt(siteFromPC(site.ReturnPC()), addr, n)
}

func (t *Thread) flushAt(s site.ID, addr pmem.Addr, n uint64) {
	t.env.checkCancel()
	t.env.pool.Flush(t.ID, addr, n)
}

// Fence issues SFENCE: the thread's pending flushes reach the persistence
// domain. A fence is a sync point — the thread's access log drains here.
//
//go:noinline
func (t *Thread) Fence() {
	t.env.checkCancel()
	t.env.pool.Fence(t.ID)
	t.drainLog()
}

// Persist is the common flush+fence sequence.
//
//go:noinline
func (t *Thread) Persist(addr pmem.Addr, n uint64) {
	t.flushAt(siteFromPC(site.ReturnPC()), addr, n)
	t.env.pool.Fence(t.ID)
	t.drainLog()
}

// --- control flow ---

// Branch records an edge-coverage event at the caller's location,
// corresponding to the branch instrumentation of the LLVM pass.
//
//go:noinline
func (t *Thread) Branch() {
	s := siteFromPC(site.ReturnPC())
	t.env.cov.Branch.Set(cover.EdgeHash(t.branchPrev, uint32(s)))
	t.branchPrev = uint32(s)
}

// --- locking ---

// SpinLock acquires a test-and-set lock stored in PM at addr (0 = free,
// 1 = held) by spinning on CAS64. If acquisition exceeds the environment's
// hang timeout the thread reports a hang and panics with HangError — this is
// how never-released persistent locks (PM Synchronization Inconsistency
// consequences) and conventional missing-unlock bugs manifest. Lock
// acquisition is a sync point: the access log drains before the thread
// enters the critical section.
//
//go:noinline
func (t *Thread) SpinLock(addr pmem.Addr) {
	s := siteFromPC(site.ReturnPC())
	t.drainLog()
	// The hang deadline is taken at the first contended iteration:
	// most acquisitions never wait, and they skip the clock read.
	var deadline time.Time
	spins := 0
	for {
		// Test-and-test-and-set: attempt the fully instrumented CAS
		// only when an uninstrumented peek shows the lock free.
		// Contended spinning then costs one plain pool read per iteration
		// instead of an accessor swap, taint union and detector call
		// — and stops flooding the access log with failed attempts.
		// The first CAS after every release is still instrumented, so
		// lock-word alias pairs and statistics are recorded exactly
		// once per acquisition attempt that could have succeeded.
		if t.env.pool.Load64(addr) == 0 {
			ok, _, _ := t.cas64At(addr, 0, 1, taint.None, taint.None, s)
			if ok {
				t.env.noteLockAcquired(addr, t.ID)
				return
			}
			continue
		}
		t.env.checkCancel()
		if spins == 0 {
			deadline = time.Now().Add(t.env.cfg.HangTimeout)
		}
		spins++
		// A lock that can never be granted — its owner is this very
		// thread (a lock it leaked earlier in its own op stream), has
		// exited, or waits in a cycle of parked lock waiters back to
		// this thread — fails fast: waiting out the full hang
		// timeout would report the same hang ~80ms later (and cascade
		// across every thread queued behind the leak). Locks with no
		// recorded owner — e.g. a persistent lock word set in a crash
		// image that recovery trips over — and owners blocked outside
		// the tracked locks still take the timeout path.
		// Past the yield phase every wake-up re-checks at once.
		if spins%32 == 0 || spins >= yieldSpins {
			reason := t.env.lockUnacquirable(addr, t.ID)
			if reason == "" && time.Now().After(deadline) {
				reason = HangDeadline
			}
			if reason != "" {
				t.drainLog()
				panic(HangError{Report: HangReport{
					Thread: t.ID,
					Addr:   addr,
					Site:   site.Lookup(s).String(),
					Reason: reason,
				}})
			}
		}
		if spins < yieldSpins {
			runtime.Gosched()
		} else {
			// Past the yield phase the holder is genuinely stalled
			// (usually a cond_wait window): park until it releases
			// the lock or exits, rather than burn the CPU it needs.
			t.env.parkOnLock(addr, t.ID, deadline)
		}
	}
}

// yieldSpins is how many contended iterations SpinLock yields the processor
// before it parks.
const yieldSpins = 128

// SpinUnlock releases a SpinLock-acquired lock. Lock release is a sync
// point: the critical section's accesses drain to the batch analyzer here.
// The threads parked on the lock are woken before the strategy sees the
// release store (a writer stall there must count them as runnable), and a
// release that woke one yields once so the waiter runs inside the window
// between this unlock and the releaser's next flush.
//
//go:noinline
func (t *Thread) SpinUnlock(addr pmem.Addr) {
	s := siteFromPC(site.ReturnPC())
	e := t.env
	t.store64NoSignal(addr, 0, taint.None, taint.None, s)
	woke := e.noteLockReleased(addr, t.ID)
	if !e.stratNone {
		e.strat.AfterStore(t.ID, addr, s)
	}
	t.drainLog()
	if woke {
		runtime.Gosched()
	}
}

// LockMutex acquires a volatile mutex of the program under test. A thread
// that finds it held by another live thread parks, reported to the strategy
// as parked, until the holder unlocks it or exits, so the scheduler can tell
// that it cannot run. A mutex that can never be granted fails fast with
// HangError, as a spin lock does: its holder is this thread, has exited
// (a hang unwound a critical section whose unlock is not deferred), or waits
// in a cycle back to this thread. A mutex held outside LockMutex has no
// recorded holder and no release event, and is waited for with a plain
// blocking Lock.
//
//go:noinline
func (t *Thread) LockMutex(mu *sync.Mutex) {
	pc := site.ReturnPC()
	e := t.env
	ref := lockRef{mu: mu}
	for {
		e.lockMu.Lock()
		if mu.TryLock() {
			e.mutexHolders[mu] = t.ID
			e.lockMu.Unlock()
			return
		}
		if e.cancelled.Load() {
			e.lockMu.Unlock()
			panic(CancelError{})
		}
		if _, held := e.mutexHolders[mu]; !held {
			e.lockMu.Unlock()
			mu.Lock()
			e.lockMu.Lock()
			e.mutexHolders[mu] = t.ID
			e.lockMu.Unlock()
			return
		}
		if reason := e.unacquirableLocked(ref, t.ID); reason != "" {
			e.lockMu.Unlock()
			t.drainLog()
			panic(HangError{Report: HangReport{
				Thread: t.ID,
				Mutex:  true,
				Site:   site.Lookup(siteFromPC(pc)).String(),
				Reason: reason,
			}})
		}
		w := e.parkLocked(ref, t.ID)
		e.lockMu.Unlock()
		<-w.wake
	}
}

// UnlockMutex releases a LockMutex-acquired mutex and wakes the threads
// parked on it; they stop being reported parked before the mutex is
// unlocked, and a release that woke one yields once, as SpinUnlock does.
//
//go:noinline
func (t *Thread) UnlockMutex(mu *sync.Mutex) {
	e := t.env
	ref := lockRef{mu: mu}
	e.lockMu.Lock()
	delete(e.mutexHolders, mu)
	woke := e.wakeLocked(ref)
	mu.Unlock()
	e.lockMu.Unlock()
	if woke {
		runtime.Gosched()
	}
}

// --- internal helpers ---

// checkSideEffect runs the durable-side-effect checker for a store with the
// given labels and dispatches newly found inconsistencies to the campaign
// callback while the pool still reflects the buggy state.
func (t *Thread) checkSideEffect(s site.ID, addr pmem.Addr, n uint64, valLab, addrLab taint.Label) {
	if valLab == taint.None && addrLab == taint.None {
		return
	}
	e := t.env
	found := e.det.OnStore(core.StoreCheck{
		Thread:    t.ID,
		Site:      s,
		Addr:      addr,
		Size:      n,
		ValLab:    valLab,
		AddrLab:   addrLab,
		Stack:     captureStack,
		Known:     e.cfg.KnownInconsistency,
		WordState: e.pool.WordState,
	})
	if e.cfg.OnInconsistency != nil {
		for _, in := range found {
			e.cfg.OnInconsistency(e, in)
		}
	}
}

func (t *Thread) checkSyncVar(s site.ID, addr pmem.Addr, n uint64, old, new uint64) {
	if !t.env.det.HasSyncVars() {
		return
	}
	si := t.env.det.OnSyncStore(t.ID, s, addr, n, old, new, nil)
	if si == nil {
		return
	}
	if known := t.env.cfg.KnownSync; known == nil || !known(si) {
		si.Stack = captureStack()
	}
	if t.env.cfg.OnSync != nil {
		t.env.cfg.OnSync(t.env, si)
	}
}

func labelsOf(raw []uint32) []taint.Label {
	if len(raw) == 0 {
		return nil
	}
	out := make([]taint.Label, len(raw))
	for i, r := range raw {
		out[i] = taint.Label(r)
	}
	return out
}
