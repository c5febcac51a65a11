package rt

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/site"
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
	if _, ok := v.(HangError); !ok {
		t.Fatalf("SpinLock on a leaked lock panicked %v, want HangError", v)
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
	if _, ok := v.(HangError); !ok {
		t.Fatalf("re-locking panicked %v, want HangError", v)
	}
	if r.isParked(t1.ID) {
		t.Fatalf("a thread spinning on its own lock was reported parked")
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
