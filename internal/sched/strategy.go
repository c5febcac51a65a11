package sched

import (
	"math/rand"
	"sync"
	"time"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
)

// Strategy is the hook interface the instrumentation runtime calls around PM
// accesses. Implementations must be safe for concurrent use: hooks are
// invoked from all worker threads of the program under test.
type Strategy interface {
	// BeginExec resets per-execution state; n is the number of worker
	// threads that will run.
	BeginExec(n int)
	// ThreadStart and ThreadExit bracket one worker thread's execution.
	ThreadStart(t pmem.ThreadID)
	ThreadExit(t pmem.ThreadID)
	// BeforeLoad runs before an instrumented PM load.
	BeforeLoad(t pmem.ThreadID, addr pmem.Addr, s site.ID)
	// BeforeStore runs before an instrumented PM store.
	BeforeStore(t pmem.ThreadID, addr pmem.Addr, s site.ID)
	// AfterStore runs after an instrumented PM store, before any flush of
	// the stored data.
	AfterStore(t pmem.ThreadID, addr pmem.Addr, s site.ID)
	// Park reports that thread t blocked on a lock held by another live
	// thread (parked true), or that it was woken (parked false). The
	// runtime calls it under its lock-ownership mutex, so a thread is never
	// reported parked after the release that wakes it.
	Park(t pmem.ThreadID, parked bool)
	// EndExec finishes the execution.
	EndExec()
}

// None is the no-op strategy: the program runs under the Go scheduler alone.
type None struct{}

// BeginExec implements Strategy.
func (None) BeginExec(int) {}

// ThreadStart implements Strategy.
func (None) ThreadStart(pmem.ThreadID) {}

// ThreadExit implements Strategy.
func (None) ThreadExit(pmem.ThreadID) {}

// BeforeLoad implements Strategy.
func (None) BeforeLoad(pmem.ThreadID, pmem.Addr, site.ID) {}

// BeforeStore implements Strategy.
func (None) BeforeStore(pmem.ThreadID, pmem.Addr, site.ID) {}

// AfterStore implements Strategy.
func (None) AfterStore(pmem.ThreadID, pmem.Addr, site.ID) {}

// Park implements Strategy.
func (None) Park(pmem.ThreadID, bool) {}

// EndExec implements Strategy.
func (None) EndExec() {}

// DelayInjector implements the evaluation's Delay Inj baseline (§6.1):
// before each PM access it injects a random delay drawn uniformly from
// [0, MaxDelay). It is PM-oblivious: every access is equally likely to be
// delayed, regardless of persistency state. The delay is a time.Sleep, and
// the Go runtime rounds any sleep under a millisecond up to about 1 ms on a
// Linux host with idle processors (1.05–1.10 ms measured on a 2-CPU
// container), so the default 200 µs bound injects delays of about 1 ms.
type DelayInjector struct {
	// MaxDelay bounds the injected delay. The paper uses 1 ms on real
	// systems; the simulation scales it down by default.
	MaxDelay time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewDelayInjector creates a delay injector with the given bound and seed.
func NewDelayInjector(maxDelay time.Duration, seed int64) *DelayInjector {
	if maxDelay <= 0 {
		maxDelay = 200 * time.Microsecond
	}
	return &DelayInjector{MaxDelay: maxDelay, rng: rand.New(rand.NewSource(seed))}
}

func (d *DelayInjector) delay() {
	d.mu.Lock()
	n := time.Duration(d.rng.Int63n(int64(d.MaxDelay)))
	d.mu.Unlock()
	time.Sleep(n)
}

// BeginExec implements Strategy.
func (d *DelayInjector) BeginExec(int) {}

// ThreadStart implements Strategy.
func (d *DelayInjector) ThreadStart(pmem.ThreadID) {}

// ThreadExit implements Strategy.
func (d *DelayInjector) ThreadExit(pmem.ThreadID) {}

// BeforeLoad implements Strategy.
func (d *DelayInjector) BeforeLoad(pmem.ThreadID, pmem.Addr, site.ID) { d.delay() }

// BeforeStore implements Strategy.
func (d *DelayInjector) BeforeStore(pmem.ThreadID, pmem.Addr, site.ID) { d.delay() }

// AfterStore implements Strategy.
func (d *DelayInjector) AfterStore(pmem.ThreadID, pmem.Addr, site.ID) {}

// Park implements Strategy.
func (d *DelayInjector) Park(pmem.ThreadID, bool) {}

// EndExec implements Strategy.
func (d *DelayInjector) EndExec() {}

var (
	_ Strategy = None{}
	_ Strategy = (*DelayInjector)(nil)
	_ Strategy = (*PMAware)(nil)
)
