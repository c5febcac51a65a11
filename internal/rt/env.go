package rt

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/cover"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/taint"
)

// DefaultHangTimeout is the spin-lock hang bound used when Config leaves
// HangTimeout zero. Every campaign execution, replay, post-failure
// validation and protocol crash-point recovery runs with it, so no two
// layers disagree about when a spinning thread counts as hung.
const DefaultHangTimeout = 80 * time.Millisecond

// Config configures an execution environment.
type Config struct {
	// Strategy is the interleaving exploration strategy; nil means
	// sched.None.
	Strategy sched.Strategy
	// HangTimeout bounds spin-lock acquisition; a thread spinning longer
	// is reported as hung. Zero selects DefaultHangTimeout.
	HangTimeout time.Duration
	// OnInconsistency, when set, is invoked synchronously at the moment a
	// durable side effect based on non-persisted data is detected, while
	// the pool still reflects the buggy state; the fuzzer uses it to
	// duplicate the pool at the crash point (paper §4.4).
	OnInconsistency func(*Env, *core.Inconsistency)
	// OnSync is the synchronization-inconsistency analogue.
	OnSync func(*Env, *core.SyncInconsistency)
	// KnownInconsistency and KnownSync, when set, report whether a finding
	// is already recorded beyond this environment (the campaign's dedup
	// database); the hooks then skip capturing its stack, which nothing
	// reads for a duplicate. KnownInconsistency is called under the
	// detector's lock.
	KnownInconsistency func([3]uint32) bool
	KnownSync          func(*core.SyncInconsistency) bool
	// CollectStats enables per-address access statistics (needed to build
	// the priority queue; costs memory on large pools).
	CollectStats bool
}

// HangReport describes a hung lock acquisition.
type HangReport struct {
	Thread pmem.ThreadID
	// Addr is the PM lock word, unless Mutex reports a volatile mutex
	// taken with LockMutex.
	Addr  pmem.Addr
	Mutex bool
	Site  string
	// Reason says why the wait ended: HangCycle, HangDeadOwner,
	// HangOwnLock or HangDeadline.
	Reason string
}

// Hang reasons. The first three are fast failures, decided the moment the
// lock can never be granted; HangDeadline is the hang timeout expiring.
const (
	// HangCycle: the lock's holder waits, through a chain of parked
	// spin-lock and mutex waiters, on a lock the waiter holds (a deadlock
	// cycle).
	HangCycle = "cycle"
	// HangDeadOwner: the lock's recorded holder has exited.
	HangDeadOwner = "dead owner"
	// HangOwnLock: the waiter already holds the (non-recursive) lock.
	HangOwnLock = "own lock"
	// HangDeadline: a spin lock's hang timeout expired, e.g. on a lock word
	// with no recorded holder or a holder blocked outside the tracked locks.
	HangDeadline = "deadline"
)

// Env is one instrumented execution environment: a pool plus the detection
// and exploration machinery shared by all threads of a fuzz campaign
// execution.
type Env struct {
	pool   *pmem.Pool
	labels *taint.Table
	det    *core.Detector
	cov    *cover.Coverage
	strat  sched.Strategy
	cfg    Config

	// stratNone records that the strategy is the no-op sched.None, letting
	// hooks skip the per-access interface calls entirely.
	stratNone bool

	// batch runs the deferred per-access analyses (alias pairs, statistics,
	// redundant stores) over thread log drains.
	batch *core.BatchAnalyzer

	// cancelled is checked at the top of every pool-mutating hook; the
	// validation watchdog sets it to stop an abandoned recovery goroutine
	// from mutating its pool after the wall-clock deadline expired.
	cancelled atomic.Bool

	// lockMu guards thread-ID assignment (nextTID) and the volatile
	// lock-ownership bookkeeping below, which is not part of the PM image.
	// It covers both kinds of lock the runtime tracks (lockRef): PM lock
	// words taken by SpinLock and volatile mutexes taken by LockMutex.
	// Holders and parked waits are recorded so a waiter fails fast,
	// instead of waiting forever or burning the full hang timeout, when no
	// live thread can ever release the lock: its holder is the waiter
	// itself, its holder has exited (a leaked lock from a missing-unlock
	// bug, or an owner abandoned after its own hang), or its holder is
	// parked, through a chain of parked waiters, on a lock the waiter holds
	// (a deadlock cycle, see cycleLocked). A held lock word with NO
	// recorded holder (e.g. a persistent lock word left set in a crash
	// image that recovery then trips over) keeps the timeout path: absence
	// of an owner is exactly the recovery-hang case the timeout exists to
	// report.
	//
	// It also guards parking: a thread blocked on a lock held by another
	// live thread records itself in waiters and its edge in parkedOn, and
	// is reported to the strategy as parked. Parking and waking both
	// happen under lockMu, so the strategy never sees a woken thread as
	// parked, and no stale parkedOn edge outlives a wake.
	//
	// Holders are kept per lock kind, keyed by the word's offset and the
	// mutex pointer: every SpinLock and LockMutex records and clears one,
	// and one-word keys keep that on the maps' fast paths.
	lockMu       sync.Mutex
	nextTID      pmem.ThreadID
	wordHolders  map[pmem.Addr]pmem.ThreadID
	mutexHolders map[*sync.Mutex]pmem.ThreadID
	liveThreads  map[pmem.ThreadID]struct{}
	waiters      map[lockRef]*lockWaiters
	parkedOn     map[pmem.ThreadID]lockRef
}

// lockRef names one lock the runtime tracks: the PM lock word at addr when
// mu is nil, else the volatile mutex mu.
type lockRef struct {
	addr pmem.Addr
	mu   *sync.Mutex
}

// lockWaiters is the set of threads parked on one lock; wake is closed when
// they should re-try it.
type lockWaiters struct {
	wake    chan struct{}
	threads []pmem.ThreadID
}

// unownedLockPoll bounds one wait on a lock word that is held with no
// recorded holder (a lock left set in a crash image). No release event
// exists for such a lock, so its waiters re-check it at this period until
// the hang deadline.
const unownedLockPoll = time.Millisecond

// NewEnv creates an environment over the given pool.
func NewEnv(pool *pmem.Pool, cfg Config) *Env {
	return makeEnv(pool, cfg, cover.New())
}

// recoverySink is the coverage every recovery environment records into.
// Nothing reads it: sharing it spares each recovery run two 8 KiB bitmaps.
// Its bitmaps are atomic, so concurrent runs may write it.
var recoverySink = cover.New()

// NewRecoveryEnv creates an environment for running a target's recovery on
// a crash image (post-failure validation, protocol crash points), where only
// the pool is inspected afterwards. Its coverage goes to a process-wide sink
// nobody reads; it collects no statistics and reports no findings.
func NewRecoveryEnv(pool *pmem.Pool) *Env {
	return makeEnv(pool, Config{}, recoverySink)
}

func makeEnv(pool *pmem.Pool, cfg Config, cov *cover.Coverage) *Env {
	if cfg.Strategy == nil {
		cfg.Strategy = sched.None{}
	}
	if cfg.HangTimeout <= 0 {
		cfg.HangTimeout = DefaultHangTimeout
	}
	labels := taint.NewTable()
	e := &Env{
		pool:   pool,
		labels: labels,
		det:    core.NewDetector(labels),
		cov:    cov,
		strat:  cfg.Strategy,
		cfg:    cfg,
	}
	_, e.stratNone = cfg.Strategy.(sched.None)
	e.wordHolders = make(map[pmem.Addr]pmem.ThreadID)
	e.mutexHolders = make(map[*sync.Mutex]pmem.ThreadID)
	e.liveThreads = make(map[pmem.ThreadID]struct{})
	e.waiters = make(map[lockRef]*lockWaiters)
	e.parkedOn = make(map[pmem.ThreadID]lockRef)
	e.batch = core.NewBatchAnalyzer(e.det, e.cov.Alias, cfg.CollectStats)
	return e
}

// Pool returns the environment's pool.
func (e *Env) Pool() *pmem.Pool { return e.pool }

// Detector returns the environment's PM checkers.
func (e *Env) Detector() *core.Detector { return e.det }

// Coverage returns the environment's coverage maps.
func (e *Env) Coverage() *cover.Coverage { return e.cov }

// Labels returns the environment's taint table.
func (e *Env) Labels() *taint.Table { return e.labels }

// Strategy returns the interleaving strategy in use.
func (e *Env) Strategy() sched.Strategy { return e.strat }

// BeginExec notifies the strategy that an execution with n worker threads is
// starting.
func (e *Env) BeginExec(n int) { e.strat.BeginExec(n) }

// EndExec notifies the strategy that the execution finished.
func (e *Env) EndExec() { e.strat.EndExec() }

// Spawn allocates the next thread handle, with an access log from logPool,
// and registers it with the strategy.
func (e *Env) Spawn() *Thread {
	e.lockMu.Lock()
	id := e.nextTID
	e.nextTID++
	e.liveThreads[id] = struct{}{}
	e.lockMu.Unlock()
	e.strat.ThreadStart(id)
	return &Thread{ID: id, env: e, log: logPool.Get().(*[logSize]core.LogRecord)}
}

// AnnotateSyncVar registers a persistent synchronization variable annotation
// (the pm_sync_var_hint equivalent, paper §5).
func (e *Env) AnnotateSyncVar(v core.SyncVar) { e.det.AnnotateSyncVar(v) }

// noteLockAcquired records t as the volatile owner of the lock word.
func (e *Env) noteLockAcquired(addr pmem.Addr, t pmem.ThreadID) {
	e.lockMu.Lock()
	e.wordHolders[addr] = t
	e.lockMu.Unlock()
}

// noteLockReleased clears the volatile owner of the lock word after thread
// self stored the release, and wakes the threads parked on it. The owner is
// cleared only if it is still self: another thread may have acquired the
// word between the release store and this call. It reports whether any
// parked thread was woken.
func (e *Env) noteLockReleased(addr pmem.Addr, self pmem.ThreadID) bool {
	e.lockMu.Lock()
	defer e.lockMu.Unlock()
	if e.wordHolders[addr] == self {
		delete(e.wordHolders, addr)
	}
	return e.wakeLocked(lockRef{addr: addr})
}

// noteThreadExit removes t from the live set. Locks t still holds keep t as
// their holder, a dead thread, which is what lets their waiters fail fast;
// the threads parked on them are woken to do so.
func (e *Env) noteThreadExit(t pmem.ThreadID) {
	e.lockMu.Lock()
	defer e.lockMu.Unlock()
	delete(e.liveThreads, t)
	if len(e.waiters) > 0 {
		for addr, h := range e.wordHolders {
			if h == t {
				e.wakeLocked(lockRef{addr: addr})
			}
		}
		for mu, h := range e.mutexHolders {
			if h == t {
				e.wakeLocked(lockRef{mu: mu})
			}
		}
	}
}

// parkable reports whether a thread waiting for a lock held by holder may
// park: the holder is live, is not the waiter, and can therefore release
// it. The caller holds lockMu.
func (e *Env) parkable(holder, self pmem.ThreadID) bool {
	if holder == self || e.cancelled.Load() {
		return false
	}
	_, live := e.liveThreads[holder]
	return live
}

// setParked reports thread t's parked state to the strategy. The caller
// holds lockMu.
func (e *Env) setParked(t pmem.ThreadID, parked bool) {
	if !e.stratNone {
		e.strat.Park(t, parked)
	}
}

// parkLocked records thread self as parked on ref, with its wait edge, and
// returns the waiter set whose wake channel ends the wait. The caller holds
// lockMu and has checked that the holder is parkable and no cycle closes.
func (e *Env) parkLocked(ref lockRef, self pmem.ThreadID) *lockWaiters {
	w := e.waiters[ref]
	if w == nil {
		w = &lockWaiters{wake: make(chan struct{})}
		e.waiters[ref] = w
	}
	w.threads = append(w.threads, self)
	e.parkedOn[self] = ref
	e.setParked(self, true)
	return w
}

// parkOnLock blocks thread self on the held lock word at addr until the
// word's holder releases it or exits, the environment is cancelled, or the
// hang deadline passes. It returns at once when the word is free or when its
// holder cannot release it (self, exited, or waiting in a cycle back to
// self): the caller re-checks the lock and fails fast. A word held with no
// recorded holder is re-checked every unownedLockPoll instead.
func (e *Env) parkOnLock(addr pmem.Addr, self pmem.ThreadID, deadline time.Time) {
	ref := lockRef{addr: addr}
	e.lockMu.Lock()
	if e.cancelled.Load() || e.pool.Load64(addr) == 0 {
		e.lockMu.Unlock()
		return
	}
	holder, held := e.wordHolders[addr]
	if !held {
		e.lockMu.Unlock()
		<-time.After(min(time.Until(deadline), unownedLockPoll))
		return
	}
	if !e.parkable(holder, self) || e.cycleLocked(ref, self) {
		e.lockMu.Unlock()
		return
	}
	w := e.parkLocked(ref, self)
	e.lockMu.Unlock()

	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-w.wake:
	case <-t.C:
		// Hang deadline: unpark unless a waker got here first.
		e.lockMu.Lock()
		if e.waiters[ref] == w {
			for i, id := range w.threads {
				if id == self {
					w.threads = append(w.threads[:i], w.threads[i+1:]...)
					delete(e.parkedOn, self)
					e.setParked(self, false)
					break
				}
			}
			if len(w.threads) == 0 {
				delete(e.waiters, ref)
			}
		}
		e.lockMu.Unlock()
	}
}

// wakeLocked wakes every thread parked on ref, clearing their parked state
// and wait edges before they can run. It reports whether any thread was
// woken. The caller holds lockMu.
func (e *Env) wakeLocked(ref lockRef) bool {
	w := e.waiters[ref]
	if w == nil {
		return false
	}
	delete(e.waiters, ref)
	for _, id := range w.threads {
		delete(e.parkedOn, id)
		e.setParked(id, false)
	}
	close(w.wake)
	return len(w.threads) > 0
}

// lockUnacquirable reports why the lock word can never be granted to thread
// self, or "" while some live thread may still release it.
func (e *Env) lockUnacquirable(addr pmem.Addr, self pmem.ThreadID) string {
	e.lockMu.Lock()
	defer e.lockMu.Unlock()
	return e.unacquirableLocked(lockRef{addr: addr}, self)
}

// unacquirableLocked reports why ref can never be granted to thread self, or
// "" while some live thread may still release it: its recorded owner is self
// (the locks are non-recursive, so a thread waiting on a lock it already
// holds — the classic consequence of a missing-unlock bug earlier in its own
// op stream, or of a hang that unwound a critical section whose unlock is
// not deferred — waits forever), has exited, or waits in a cycle back to
// self. Each way the waiter is hung no matter how long it waits. The caller
// holds lockMu.
func (e *Env) unacquirableLocked(ref lockRef, self pmem.ThreadID) string {
	holder, held := e.holderLocked(ref)
	switch {
	case !held:
		return ""
	case holder == self:
		return HangOwnLock
	}
	if _, live := e.liveThreads[holder]; !live {
		return HangDeadOwner
	}
	if e.cycleLocked(ref, self) {
		return HangCycle
	}
	return ""
}

// holderLocked returns the recorded holder of ref. The caller holds lockMu.
func (e *Env) holderLocked(ref lockRef) (pmem.ThreadID, bool) {
	if ref.mu != nil {
		h, ok := e.mutexHolders[ref.mu]
		return h, ok
	}
	h, ok := e.wordHolders[ref.addr]
	return h, ok
}

// cycleLocked reports whether thread self, waiting on ref, closes a deadlock
// cycle: ref's holder is parked on a lock whose holder is parked on a lock
// ... that self holds. Parked waits on lock words and on mutexes are both
// edges, and every wake clears its edge under lockMu, so each edge is a wait
// still in progress. The walk is bounded by the number of live threads. The
// caller holds lockMu.
func (e *Env) cycleLocked(ref lockRef, self pmem.ThreadID) bool {
	for range len(e.liveThreads) {
		holder, held := e.holderLocked(ref)
		if !held {
			return false
		}
		if holder == self {
			return true
		}
		next, parked := e.parkedOn[holder]
		if !parked {
			return false
		}
		ref = next
	}
	return false
}

// TakeStats hands over the per-address access statistics collected so far;
// the caller owns them, and the environment starts an empty set. With the
// epoch-log hooks, statistics become visible when a thread's log drains
// (sync points, full log, thread exit); callers take them at quiescent
// points.
func (e *Env) TakeStats() map[pmem.Addr]*sched.AddrStats {
	return e.batch.TakeStats()
}

// Batch returns the environment's batch analyzer; tests use it to inspect
// drain clocks.
func (e *Env) Batch() *core.BatchAnalyzer { return e.batch }

// CancelError is panicked by a hook call on a cancelled environment. The
// goroutine driving the cancelled execution recovers it and exits; unlike
// HangError it is not a finding, only a teardown signal.
type CancelError struct{}

// Error implements error.
func (CancelError) Error() string { return "rt: execution environment cancelled" }

// Cancel marks the environment cancelled: every subsequent pool-mutating hook
// call panics CancelError, so a goroutine stuck in an instrumented loop stops
// touching the pool at its next access. The validation watchdog calls it when
// a recovery run exceeds its wall-clock deadline. Goroutines that never call
// another hook (a plain `for {}`) cannot be stopped — Go has no goroutine
// kill — but they also cannot corrupt the pool. Threads parked on a spin
// lock or a mutex are woken to see the cancellation.
func (e *Env) Cancel() {
	e.cancelled.Store(true)
	e.lockMu.Lock()
	defer e.lockMu.Unlock()
	for ref := range e.waiters {
		e.wakeLocked(ref)
	}
}

// Cancelled reports whether Cancel was called.
func (e *Env) Cancelled() bool { return e.cancelled.Load() }

// checkCancel panics CancelError when the environment is cancelled. One
// atomic load on the hot path.
func (e *Env) checkCancel() {
	if e.cancelled.Load() {
		panic(CancelError{})
	}
}
