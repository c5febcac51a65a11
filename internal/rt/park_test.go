package rt

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/taint"
)

// parkRecorder is a strategy that records which threads the runtime reports
// parked, and counts hook calls made by a thread while it is reported
// parked: a running thread must never be.
type parkRecorder struct {
	sched.None
	mu     sync.Mutex
	parked map[pmem.ThreadID]bool
	stale  int
}

func newParkRecorder() *parkRecorder {
	return &parkRecorder{parked: map[pmem.ThreadID]bool{}}
}

func (r *parkRecorder) Park(t pmem.ThreadID, parked bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.parked[t] = parked
}

func (r *parkRecorder) check(t pmem.ThreadID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.parked[t] {
		r.stale++
	}
}

func (r *parkRecorder) BeforeLoad(t pmem.ThreadID, _ pmem.Addr, _ site.ID)  { r.check(t) }
func (r *parkRecorder) BeforeStore(t pmem.ThreadID, _ pmem.Addr, _ site.ID) { r.check(t) }
func (r *parkRecorder) AfterStore(t pmem.ThreadID, _ pmem.Addr, _ site.ID)  { r.check(t) }

func (r *parkRecorder) isParked(t pmem.ThreadID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.parked[t]
}

func (r *parkRecorder) staleHooks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stale
}

// waitParked yields until the recorder reports th parked.
func waitParked(t *testing.T, r *parkRecorder, th pmem.ThreadID) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !r.isParked(th) {
		if time.Now().After(deadline) {
			t.Fatalf("thread %d never parked", th)
		}
		runtime.Gosched()
	}
}

// spinLockAsync runs th.SpinLock(addr) on a goroutine and delivers what it
// panicked with (nil when it acquired the lock).
func spinLockAsync(th *Thread, addr pmem.Addr) <-chan any {
	out := make(chan any, 1)
	go func() {
		defer func() { out <- recover() }()
		th.SpinLock(addr)
	}()
	return out
}

// within waits for one value from ch, failing the test after d.
func within(t *testing.T, ch <-chan any, d time.Duration, what string) any {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
		return nil
	}
}

// hangReason returns the reason of the HangError v, failing the test when v
// is anything else.
func hangReason(t *testing.T, v any, what string) string {
	t.Helper()
	h, ok := v.(HangError)
	if !ok {
		t.Fatalf("%s panicked %v, want HangError", what, v)
	}
	return h.Report.Reason
}

func newParkEnv(t *testing.T) (*Env, *parkRecorder) {
	r := newParkRecorder()
	return newEnv(t, Config{Strategy: r, HangTimeout: 10 * time.Second}), r
}

func TestParkedSpinLockWakesOnUnlock(t *testing.T) {
	e, r := newParkEnv(t)
	t1, t2 := e.Spawn(), e.Spawn()
	t1.SpinLock(64)
	done := spinLockAsync(t2, 64)
	waitParked(t, r, t2.ID)
	t1.SpinUnlock(64)
	if v := within(t, done, time.Second, "parked SpinLock"); v != nil {
		t.Fatalf("SpinLock panicked: %v", v)
	}
	if r.isParked(t2.ID) {
		t.Fatalf("thread holding the lock is still reported parked")
	}
	if n := r.staleHooks(); n != 0 {
		t.Fatalf("%d hook calls from a thread reported parked", n)
	}
	t2.SpinUnlock(64)
}

func TestParkedSpinLockFailsFastOnHolderExit(t *testing.T) {
	e, r := newParkEnv(t)
	t1, t2 := e.Spawn(), e.Spawn()
	t1.SpinLock(64)
	done := spinLockAsync(t2, 64)
	waitParked(t, r, t2.ID)
	t1.Exit() // leaks the lock
	v := within(t, done, time.Second, "SpinLock on a leaked lock")
	if r := hangReason(t, v, "SpinLock on a leaked lock"); r != HangDeadOwner {
		t.Fatalf("hang reason = %q, want %q", r, HangDeadOwner)
	}
	if r.isParked(t2.ID) {
		t.Fatalf("woken thread is still reported parked")
	}
}

func TestParkedSpinLockWakesOnCancel(t *testing.T) {
	e, r := newParkEnv(t)
	t1, t2 := e.Spawn(), e.Spawn()
	t1.SpinLock(64)
	done := spinLockAsync(t2, 64)
	waitParked(t, r, t2.ID)
	e.Cancel()
	v := within(t, done, time.Second, "SpinLock on a cancelled env")
	if _, ok := v.(CancelError); !ok {
		t.Fatalf("SpinLock on a cancelled env panicked %v, want CancelError", v)
	}
	if r.isParked(t2.ID) {
		t.Fatalf("woken thread is still reported parked")
	}
}

func TestSpinLockNeverParksOnOwnLock(t *testing.T) {
	e, r := newParkEnv(t)
	t1 := e.Spawn()
	t1.SpinLock(64)
	v := within(t, spinLockAsync(t1, 64), time.Second, "SpinLock on an own lock")
	if r := hangReason(t, v, "re-locking"); r != HangOwnLock {
		t.Fatalf("hang reason = %q, want %q", r, HangOwnLock)
	}
	if r.isParked(t1.ID) {
		t.Fatalf("a thread spinning on its own lock was reported parked")
	}
}

// testSpinLockCycle builds a ring of n threads: thread i holds lock word
// lock(i) and waits for lock(i+1 mod n). The last waiter closes the cycle and
// must fail fast with reason cycle, though the hang timeout is 10 s. Exiting
// it, as the executor does with a hung thread, leaks its lock, and the others
// then fail one after another on a dead owner.
func testSpinLockCycle(t *testing.T, n int) {
	e, r := newParkEnv(t)
	lock := func(i int) pmem.Addr { return pmem.Addr(64 * (1 + i%n)) }
	ths := make([]*Thread, n)
	for i := range ths {
		ths[i] = e.Spawn()
		ths[i].SpinLock(lock(i))
	}
	done := make([]<-chan any, n)
	for i := range n - 1 {
		done[i] = spinLockAsync(ths[i], lock(i+1))
		waitParked(t, r, ths[i].ID)
	}
	done[n-1] = spinLockAsync(ths[n-1], lock(n))
	v := within(t, done[n-1], time.Second, "SpinLock closing the cycle")
	if got := hangReason(t, v, "SpinLock closing the cycle"); got != HangCycle {
		t.Fatalf("hang reason = %q, want %q", got, HangCycle)
	}
	ths[n-1].Exit()
	for i := n - 2; i >= 0; i-- {
		v := within(t, done[i], time.Second, "SpinLock behind the cycle")
		if got := hangReason(t, v, "SpinLock behind the cycle"); got != HangDeadOwner {
			t.Fatalf("thread %d: hang reason = %q, want %q", ths[i].ID, got, HangDeadOwner)
		}
		ths[i].Exit()
	}
	for _, th := range ths {
		if r.isParked(th.ID) {
			t.Fatalf("thread %d is still reported parked after the cycle", th.ID)
		}
	}
	if n := r.staleHooks(); n != 0 {
		t.Fatalf("%d hook calls from a thread reported parked", n)
	}
}

func TestSpinLockCycleABBA(t *testing.T) { testSpinLockCycle(t, 2) }

func TestSpinLockCycleRing(t *testing.T) { testSpinLockCycle(t, 3) }

// TestSpinLockParkRefusesCycle: a holder may park on one of the waiter's
// locks between the waiter's last fast-fail check and its park. parkOnLock
// must then return at once rather than park both threads until the deadline;
// SpinLock's re-check names the cycle.
func TestSpinLockParkRefusesCycle(t *testing.T) {
	e, r := newParkEnv(t)
	a, b := e.Spawn(), e.Spawn()
	a.SpinLock(64)
	b.SpinLock(128)
	doneA := spinLockAsync(a, 128)
	waitParked(t, r, a.ID)
	parked := make(chan any, 1)
	go func() {
		e.parkOnLock(64, b.ID, time.Now().Add(10*time.Second))
		parked <- nil
	}()
	within(t, parked, time.Second, "parkOnLock closing a cycle")
	if r.isParked(b.ID) {
		t.Fatalf("a waiter closing a cycle is reported parked")
	}
	if got := e.lockUnacquirable(64, b.ID); got != HangCycle {
		t.Fatalf("lockUnacquirable = %q, want %q", got, HangCycle)
	}
	b.Exit()
	if got := hangReason(t, within(t, doneA, time.Second, "A's SpinLock"), "A's SpinLock"); got != HangDeadOwner {
		t.Fatalf("hang reason = %q, want %q", got, HangDeadOwner)
	}
}

// TestSpinLockNoFalseCycleAfterWake: a wake clears the woken thread's wait
// edge. A parks on L1 held by B; B releases L1 and A is granted it, then
// hands it back to B. If A's edge to L1 survived the wake, B waiting on L2,
// which A holds, would see the chain L2 → A → L1 → B and hang on a cycle that
// does not exist. B must park instead, and proceed once A unlocks L2.
func TestSpinLockNoFalseCycleAfterWake(t *testing.T) {
	const l1, l2 = 64, 128
	e, r := newParkEnv(t)
	a, b := e.Spawn(), e.Spawn()
	a.SpinLock(l2)
	b.SpinLock(l1)
	doneA := spinLockAsync(a, l1)
	waitParked(t, r, a.ID)
	b.SpinUnlock(l1)
	if v := within(t, doneA, time.Second, "A's SpinLock"); v != nil {
		t.Fatalf("A's SpinLock panicked: %v", v)
	}
	a.SpinUnlock(l1)
	b.SpinLock(l1)
	doneB := spinLockAsync(b, l2)
	waitParked(t, r, b.ID)
	a.SpinUnlock(l2)
	if v := within(t, doneB, time.Second, "B's SpinLock"); v != nil {
		t.Fatalf("B's SpinLock panicked: %v", v)
	}
	if n := r.staleHooks(); n != 0 {
		t.Fatalf("%d hook calls from a thread reported parked", n)
	}
}

// TestSpinLockUnownedTakesDeadline: a lock word set by a plain store has no
// recorded holder (a lock left set in a crash image), so no fast-fail rule
// applies and the wait ends on the hang deadline.
func TestSpinLockUnownedTakesDeadline(t *testing.T) {
	const timeout = 30 * time.Millisecond
	e := newEnv(t, Config{Strategy: newParkRecorder(), HangTimeout: timeout})
	th := e.Spawn()
	th.Store64(64, 1, taint.None, taint.None)
	start := time.Now()
	v := within(t, spinLockAsync(th, 64), 5*time.Second, "SpinLock on an unowned lock")
	if got := hangReason(t, v, "SpinLock on an unowned lock"); got != HangDeadline {
		t.Fatalf("hang reason = %q, want %q", got, HangDeadline)
	}
	if d := time.Since(start); d < timeout {
		t.Fatalf("unowned lock hung after %v, before the %v deadline", d, timeout)
	}
}

func TestLockMutexRoundTrip(t *testing.T) {
	e, r := newParkEnv(t)
	t1, t2 := e.Spawn(), e.Spawn()
	var mu sync.Mutex
	t1.LockMutex(&mu)
	done := make(chan any, 1)
	go func() {
		t2.LockMutex(&mu)
		done <- r.isParked(t2.ID)
		t2.UnlockMutex(&mu)
	}()
	waitParked(t, r, t2.ID)
	t1.UnlockMutex(&mu)
	if parked := within(t, done, time.Second, "parked LockMutex"); parked != false {
		t.Fatalf("thread holding the mutex is still reported parked")
	}
	// t2 releases it on its way out; the mutex must be free again.
	deadline := time.Now().Add(5 * time.Second)
	for !mu.TryLock() {
		if time.Now().After(deadline) {
			t.Fatalf("mutex never released")
		}
		runtime.Gosched()
	}
	mu.Unlock()
}

// lockMutexAsync runs th.LockMutex(mu) on a goroutine and delivers what it
// panicked with (nil when it acquired the mutex).
func lockMutexAsync(th *Thread, mu *sync.Mutex) <-chan any {
	out := make(chan any, 1)
	go func() {
		defer func() { out <- recover() }()
		th.LockMutex(mu)
	}()
	return out
}

// mutexHangReason is hangReason for a LockMutex hang, which must say that
// it names a mutex and where it was taken.
func mutexHangReason(t *testing.T, v any, what string) string {
	t.Helper()
	reason := hangReason(t, v, what)
	if h := v.(HangError).Report; !h.Mutex || h.Site == "" {
		t.Fatalf("%s: report %+v, want Mutex and a site", what, h)
	}
	return reason
}

func TestLockMutexFailsFastOnOwnLock(t *testing.T) {
	e, r := newParkEnv(t)
	t1 := e.Spawn()
	var mu sync.Mutex
	t1.LockMutex(&mu)
	v := within(t, lockMutexAsync(t1, &mu), time.Second, "LockMutex on an own mutex")
	if got := mutexHangReason(t, v, "re-locking"); got != HangOwnLock {
		t.Fatalf("hang reason = %q, want %q", got, HangOwnLock)
	}
	if r.isParked(t1.ID) {
		t.Fatalf("a thread locking its own mutex was reported parked")
	}
}

// TestLockMutexFailsFastOnDeadOwner: a hang that unwinds a critical section
// whose unlock is not deferred leaves the mutex held by an exited thread.
// The next LockMutex must fail at once, not block forever.
func TestLockMutexFailsFastOnDeadOwner(t *testing.T) {
	e, r := newParkEnv(t)
	t1, t2 := e.Spawn(), e.Spawn()
	var mu sync.Mutex
	t1.LockMutex(&mu)
	t1.Exit() // leaks the mutex
	v := within(t, lockMutexAsync(t2, &mu), time.Second, "LockMutex on a leaked mutex")
	if got := mutexHangReason(t, v, "LockMutex on a leaked mutex"); got != HangDeadOwner {
		t.Fatalf("hang reason = %q, want %q", got, HangDeadOwner)
	}
	if r.isParked(t2.ID) {
		t.Fatalf("a thread failing fast was reported parked")
	}
}

func TestParkedLockMutexFailsFastOnHolderExit(t *testing.T) {
	e, r := newParkEnv(t)
	t1, t2 := e.Spawn(), e.Spawn()
	var mu sync.Mutex
	t1.LockMutex(&mu)
	done := lockMutexAsync(t2, &mu)
	waitParked(t, r, t2.ID)
	t1.Exit()
	v := within(t, done, time.Second, "parked LockMutex behind an exiting holder")
	if got := mutexHangReason(t, v, "parked LockMutex"); got != HangDeadOwner {
		t.Fatalf("hang reason = %q, want %q", got, HangDeadOwner)
	}
	if r.isParked(t2.ID) {
		t.Fatalf("woken thread is still reported parked")
	}
}

func TestParkedLockMutexWakesOnCancel(t *testing.T) {
	e, r := newParkEnv(t)
	t1, t2 := e.Spawn(), e.Spawn()
	var mu sync.Mutex
	t1.LockMutex(&mu)
	done := lockMutexAsync(t2, &mu)
	waitParked(t, r, t2.ID)
	e.Cancel()
	v := within(t, done, time.Second, "LockMutex on a cancelled env")
	if _, ok := v.(CancelError); !ok {
		t.Fatalf("LockMutex on a cancelled env panicked %v, want CancelError", v)
	}
	if r.isParked(t2.ID) {
		t.Fatalf("woken thread is still reported parked")
	}
}

// TestLockMutexClosesSpinLockCycle: A holds mutex M and parks on lock word L
// held by B; B then asks for M. B closes the cycle and must fail at once,
// though the hang timeout is 10 s. Exiting B leaks L, and A then fails on a
// dead owner.
func TestLockMutexClosesSpinLockCycle(t *testing.T) {
	const l = 64
	e, r := newParkEnv(t)
	a, b := e.Spawn(), e.Spawn()
	var m sync.Mutex
	a.LockMutex(&m)
	b.SpinLock(l)
	doneA := spinLockAsync(a, l)
	waitParked(t, r, a.ID)
	v := within(t, lockMutexAsync(b, &m), time.Second, "LockMutex closing the cycle")
	if got := mutexHangReason(t, v, "LockMutex closing the cycle"); got != HangCycle {
		t.Fatalf("hang reason = %q, want %q", got, HangCycle)
	}
	b.Exit()
	if got := hangReason(t, within(t, doneA, time.Second, "A's SpinLock"), "A's SpinLock"); got != HangDeadOwner {
		t.Fatalf("hang reason = %q, want %q", got, HangDeadOwner)
	}
	if n := r.staleHooks(); n != 0 {
		t.Fatalf("%d hook calls from a thread reported parked", n)
	}
}

// TestSpinLockClosesMutexCycle is the mirror image: A holds lock word L and
// parks on mutex M held by B; B's SpinLock(L) closes the cycle through A's
// mutex wait. Exiting B leaks M, and A, parked on it, wakes and fails on a
// dead owner instead of blocking forever.
func TestSpinLockClosesMutexCycle(t *testing.T) {
	const l = 64
	e, r := newParkEnv(t)
	a, b := e.Spawn(), e.Spawn()
	var m sync.Mutex
	a.SpinLock(l)
	b.LockMutex(&m)
	doneA := lockMutexAsync(a, &m)
	waitParked(t, r, a.ID)
	v := within(t, spinLockAsync(b, l), time.Second, "SpinLock closing the cycle")
	if got := hangReason(t, v, "SpinLock closing the cycle"); got != HangCycle {
		t.Fatalf("hang reason = %q, want %q", got, HangCycle)
	}
	b.Exit()
	if got := mutexHangReason(t, within(t, doneA, time.Second, "A's LockMutex"), "A's LockMutex"); got != HangDeadOwner {
		t.Fatalf("hang reason = %q, want %q", got, HangDeadOwner)
	}
	if r.isParked(a.ID) {
		t.Fatalf("woken thread is still reported parked")
	}
}
