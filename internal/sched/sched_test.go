package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
)

func testConfig() Config {
	return Config{
		WriterWait: 500 * time.Microsecond,
		MaxWait:    100 * time.Millisecond,
		Seed:       1,
	}
}

func entryFor(addr pmem.Addr, loads, stores []site.ID) *Entry {
	e := &Entry{Addr: addr, LoadSites: map[site.ID]struct{}{}, StoreSites: map[site.ID]struct{}{}}
	for _, s := range loads {
		e.LoadSites[s] = struct{}{}
	}
	for _, s := range stores {
		e.StoreSites[s] = struct{}{}
	}
	return e
}

func TestAddrStatsRecordAndShared(t *testing.T) {
	st := NewAddrStats()
	st.Record(1, 10, false)
	if st.Shared() {
		t.Fatalf("single-thread access must not be shared")
	}
	st.Record(2, 11, true)
	if !st.Shared() || st.Total != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Loads[10] != 1 || st.Stores[11] != 1 {
		t.Fatalf("site counts wrong: %+v", st)
	}
}

func TestAddrStatsMerge(t *testing.T) {
	a, b := NewAddrStats(), NewAddrStats()
	a.Record(1, 10, false)
	b.Record(2, 10, false)
	b.Record(2, 11, true)
	a.Merge(b)
	if a.Total != 3 || a.Loads[10] != 2 || !a.Shared() {
		t.Fatalf("merged = %+v", a)
	}
}

func TestBuildQueueFiltersAndOrders(t *testing.T) {
	stats := map[pmem.Addr]*AddrStats{}
	// Hot shared address with loads and stores.
	hot := NewAddrStats()
	for i := 0; i < 10; i++ {
		hot.Record(1, 1, false)
		hot.Record(2, 2, true)
	}
	stats[100] = hot
	// Cooler shared address.
	cool := NewAddrStats()
	cool.Record(1, 3, false)
	cool.Record(2, 4, true)
	stats[200] = cool
	// Shared but load-only: no read-after-write to force.
	loadOnly := NewAddrStats()
	loadOnly.Record(1, 5, false)
	loadOnly.Record(2, 6, false)
	stats[300] = loadOnly
	// Unshared.
	solo := NewAddrStats()
	solo.Record(1, 7, false)
	solo.Record(1, 8, true)
	stats[400] = solo

	q := BuildQueue(stats)
	if q.Len() != 2 {
		t.Fatalf("queue length = %d, want 2", q.Len())
	}
	first := q.Pop()
	if first.Addr != 100 {
		t.Fatalf("first entry addr = %d, want hottest (100)", first.Addr)
	}
	second := q.Pop()
	if second.Addr != 200 {
		t.Fatalf("second entry addr = %d", second.Addr)
	}
	if q.Pop() != nil {
		t.Fatalf("exhausted queue must return nil")
	}
	if q.Remaining() != 0 {
		t.Fatalf("remaining = %d", q.Remaining())
	}
}

func TestBuildQueueDeterministicTieBreak(t *testing.T) {
	stats := map[pmem.Addr]*AddrStats{}
	for _, addr := range []pmem.Addr{300, 100, 200} {
		st := NewAddrStats()
		st.Record(1, 1, false)
		st.Record(2, 2, true)
		stats[addr] = st
	}
	q := BuildQueue(stats)
	if a := q.Pop().Addr; a != 100 {
		t.Fatalf("tie-break must order by address, got %d", a)
	}
}

func TestNoneStrategyIsNoop(t *testing.T) {
	var s Strategy = None{}
	s.BeginExec(4)
	s.ThreadStart(1)
	s.BeforeLoad(1, 0, 0)
	s.BeforeStore(1, 0, 0)
	s.AfterStore(1, 0, 0)
	s.ThreadExit(1)
	s.EndExec()
}

func TestDelayInjectorBounded(t *testing.T) {
	d := NewDelayInjector(100*time.Microsecond, 42)
	start := time.Now()
	for i := 0; i < 20; i++ {
		d.BeforeLoad(1, 0, 0)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("delays unreasonably long: %v", elapsed)
	}
}

func TestDelayInjectorDefaultBound(t *testing.T) {
	d := NewDelayInjector(0, 1)
	if d.MaxDelay <= 0 {
		t.Fatalf("default MaxDelay must be positive")
	}
}

func TestPMAwareWaitReleasedBySignal(t *testing.T) {
	loadSite, storeSite := site.Named("pw-load"), site.Named("pw-store")
	p := NewPMAware(testConfig(), entryFor(64, []site.ID{loadSite}, []site.ID{storeSite}), 0)
	p.BeginExec(2)
	p.ThreadStart(1)
	p.ThreadStart(2)

	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // reader
		defer wg.Done()
		p.BeforeLoad(1, 64, loadSite)
		mu.Lock()
		order = append(order, "read")
		mu.Unlock()
		p.ThreadExit(1)
	}()
	go func() { // writer
		defer wg.Done()
		waitFor(t, func() bool { return p.waiting.Load() != 0 })
		mu.Lock()
		order = append(order, "write")
		mu.Unlock()
		p.AfterStore(2, 64, storeSite)
		p.ThreadExit(2)
	}()
	wg.Wait()
	p.EndExec()

	if len(order) != 2 || order[0] != "write" || order[1] != "read" {
		t.Fatalf("order = %v, want write before read", order)
	}
	out := p.Outcome()
	if !out.Signalled || out.CondWaits != 1 || out.Disabled {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestPMAwareSignalDisablesFutureWaits(t *testing.T) {
	loadSite, storeSite := site.Named("pd-load"), site.Named("pd-store")
	p := NewPMAware(testConfig(), entryFor(64, []site.ID{loadSite}, []site.ID{storeSite}), 0)
	p.BeginExec(1)
	p.ThreadStart(1)
	p.AfterStore(1, 64, storeSite) // signal first (Pitfall-1)
	done := make(chan struct{})
	go func() {
		p.BeforeLoad(1, 64, loadSite) // must not block
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("cond_wait after signal must not block")
	}
}

func TestPMAwareSkipCount(t *testing.T) {
	loadSite := site.Named("ps-load")
	p := NewPMAware(testConfig(), entryFor(64, []site.ID{loadSite}, []site.ID{site.Named("ps-store")}), 2)
	p.BeginExec(1)
	p.ThreadStart(1)
	done := make(chan struct{})
	go func() {
		p.BeforeLoad(1, 64, loadSite) // skipped (skip 2 -> 1)
		p.BeforeLoad(1, 64, loadSite) // skipped (skip 1 -> 0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("skipped cond_waits must not block")
	}
	if got := p.Outcome().CondWaits; got != 0 {
		t.Fatalf("skipped waits must not count, got %d", got)
	}
}

func TestPMAwareAllBlockedElectsPrivileged(t *testing.T) {
	loadSite := site.Named("pp-load")
	cfg := testConfig()
	cfg.MaxWait = 10 * time.Second // privileged election must fire first
	p := NewPMAware(cfg, entryFor(64, []site.ID{loadSite}, []site.ID{site.Named("pp-store")}), 0)
	p.BeginExec(2)
	p.ThreadStart(1)
	p.ThreadStart(2)
	var released atomic.Int32
	var wg sync.WaitGroup
	for _, tid := range []pmem.ThreadID{1, 2} {
		wg.Add(1)
		go func(tid pmem.ThreadID) {
			defer wg.Done()
			p.BeforeLoad(tid, 64, loadSite)
			released.Add(1)
		}(tid)
	}
	// One thread must be elected privileged and released; the other stays
	// blocked until we signal.
	waitFor(t, func() bool { return released.Load() != 0 })
	p.condSignal(3) // release the rest
	wg.Wait()
	if !p.Outcome().PrivilegedUsed {
		t.Fatalf("outcome must record privileged use")
	}
}

func TestPMAwareBlockedThreadDisablesSyncPoint(t *testing.T) {
	loadSite := site.Named("pb-load")
	cfg := testConfig()
	cfg.MaxWait = time.Millisecond
	p := NewPMAware(cfg, entryFor(64, []site.ID{loadSite}, []site.ID{site.Named("pb-store")}), 0)
	p.BeginExec(2)
	p.ThreadStart(1)
	p.ThreadStart(2) // second thread never waits, so not "all blocked"
	done := make(chan struct{})
	go func() {
		p.BeforeLoad(1, 64, loadSite)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("blocked thread must give up after MaxWait")
	}
	out := p.Outcome()
	if !out.Disabled || out.CondWaits != 1 {
		t.Fatalf("outcome = %+v, want disabled with one wait", out)
	}
	// Once disabled, further waits return immediately.
	start := time.Now()
	p.BeforeLoad(1, 64, loadSite)
	if time.Since(start) > 100*time.Millisecond {
		t.Fatalf("disabled sync point must not wait")
	}
}

func TestPMAwareIgnoresOtherAddressesAndSites(t *testing.T) {
	loadSite := site.Named("pi-load")
	p := NewPMAware(testConfig(), entryFor(64, []site.ID{loadSite}, []site.ID{site.Named("pi-store")}), 0)
	p.BeginExec(1)
	p.ThreadStart(1)
	done := make(chan struct{})
	go func() {
		p.BeforeLoad(1, 128, loadSite)            // wrong address
		p.BeforeLoad(1, 64, site.Named("other"))  // wrong site
		p.AfterStore(1, 64, site.Named("other2")) // wrong store site: no signal
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("non-entry accesses must not block")
	}
	if p.Outcome().Signalled {
		t.Fatalf("non-entry store must not signal")
	}
}

func TestPMAwareNilEntryIsNoop(t *testing.T) {
	p := NewPMAware(testConfig(), nil, 0)
	p.BeginExec(1)
	p.ThreadStart(1)
	p.BeforeLoad(1, 64, 1)
	p.AfterStore(1, 64, 1)
	if p.Outcome().Signalled || p.Outcome().CondWaits != 0 {
		t.Fatalf("nil entry must be inert: %+v", p.Outcome())
	}
}

func TestPMAwareZeroConfigGetsDefaults(t *testing.T) {
	p := NewPMAware(Config{}, nil, 0)
	if p.cfg.MaxWait <= 0 || p.cfg.WriterWait <= 0 {
		t.Fatalf("zero config must be replaced by defaults: %+v", p.cfg)
	}
}

// waitFor yields until cond holds, failing the test after five seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Errorf("condition not reached within 5s")
			return
		}
		runtime.Gosched()
	}
}

// returnsWithin runs f and fails the test unless it returns within d.
func returnsWithin(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

func TestPMAwareQuiescentWaitDisables(t *testing.T) {
	loadSite := site.Named("pq-load")
	cfg := testConfig()
	cfg.MaxWait = 10 * time.Second
	p := NewPMAware(cfg, entryFor(64, []site.ID{loadSite}, []site.ID{site.Named("pq-store")}), 0)
	p.BeginExec(2)
	p.ThreadStart(1)
	p.ThreadStart(2)
	// Thread 2 is parked on a lock thread 1 holds; thread 1's wait can
	// never be signalled, so it takes the Pitfall-3 exit at once.
	p.Park(2, true)
	returnsWithin(t, time.Second, "quiescent cond_wait", func() { p.BeforeLoad(1, 64, loadSite) })
	out := p.Outcome()
	if !out.Disabled || out.CondWaits != 1 || out.PrivilegedUsed {
		t.Fatalf("outcome = %+v, want disabled with one wait and no privileged thread", out)
	}
}

func TestPMAwareParkWakesWaiter(t *testing.T) {
	loadSite := site.Named("pw2-load")
	cfg := testConfig()
	cfg.MaxWait = 10 * time.Second
	p := NewPMAware(cfg, entryFor(64, []site.ID{loadSite}, []site.ID{site.Named("pw2-store")}), 0)
	p.BeginExec(2)
	p.ThreadStart(1)
	p.ThreadStart(2)
	go func() {
		// Let thread 1 block first, so the park must wake it.
		waitFor(t, func() bool { return p.waiting.Load() != 0 })
		p.Park(2, true)
	}()
	returnsWithin(t, time.Second, "cond_wait woken by a park", func() { p.BeforeLoad(1, 64, loadSite) })
	if out := p.Outcome(); !out.Disabled || out.CondWaits != 1 {
		t.Fatalf("outcome = %+v, want disabled with one wait", out)
	}
}

func TestPMAwareUnparkedThreadKeepsWaiting(t *testing.T) {
	loadSite := site.Named("pu-load")
	cfg := testConfig()
	cfg.MaxWait = 50 * time.Millisecond
	p := NewPMAware(cfg, entryFor(64, []site.ID{loadSite}, []site.ID{site.Named("pu-store")}), 0)
	p.BeginExec(2)
	p.ThreadStart(1)
	p.ThreadStart(2)
	p.Park(2, true)
	p.Park(2, false) // woken: runnable, so the wait is not quiescent
	start := time.Now()
	p.BeforeLoad(1, 64, loadSite)
	if elapsed := time.Since(start); elapsed < cfg.MaxWait {
		t.Fatalf("wait ended after %v, before MaxWait %v, with a runnable thread", elapsed, cfg.MaxWait)
	}
	if out := p.Outcome(); !out.Disabled {
		t.Fatalf("outcome = %+v, want disabled by MaxWait", out)
	}
}

func TestPMAwareWriterStallEndsWhenOthersPark(t *testing.T) {
	loadSite, storeSite := site.Named("ws-load"), site.Named("ws-store")
	cfg := testConfig()
	cfg.WriterWait, cfg.MaxWait = 10*time.Second, 10*time.Second
	p := NewPMAware(cfg, entryFor(64, []site.ID{loadSite}, []site.ID{storeSite}), 0)
	p.BeginExec(2)
	p.ThreadStart(1)
	p.ThreadStart(2)
	read := make(chan struct{})
	go func() {
		p.BeforeLoad(1, 64, loadSite)
		close(read)
		p.Park(1, true) // the reader goes on to block on a lock
	}()
	waitFor(t, func() bool { return p.waiting.Load() != 0 })
	returnsWithin(t, time.Second, "writer stall", func() { p.AfterStore(2, 64, storeSite) })
	<-read
	if out := p.Outcome(); !out.Signalled || out.Disabled {
		t.Fatalf("outcome = %+v, want signalled", out)
	}
}

func TestPMAwareWriterStallEndsWhenOthersExit(t *testing.T) {
	loadSite, storeSite := site.Named("we-load"), site.Named("we-store")
	cfg := testConfig()
	cfg.WriterWait, cfg.MaxWait = 10*time.Second, 10*time.Second
	p := NewPMAware(cfg, entryFor(64, []site.ID{loadSite}, []site.ID{storeSite}), 0)
	p.BeginExec(2)
	p.ThreadStart(1)
	p.ThreadStart(2)
	go func() {
		p.BeforeLoad(1, 64, loadSite)
		p.ThreadExit(1)
	}()
	waitFor(t, func() bool { return p.waiting.Load() != 0 })
	returnsWithin(t, time.Second, "writer stall", func() { p.AfterStore(2, 64, storeSite) })
}

func TestPMAwareQuiescentExitTakenByLongestWaiter(t *testing.T) {
	loadSite := site.Named("pl-load")
	cfg := testConfig()
	cfg.MaxWait = 10 * time.Second
	p := NewPMAware(cfg, entryFor(64, []site.ID{loadSite}, []site.ID{site.Named("pl-store")}), 0)
	p.BeginExec(3)
	for _, tid := range []pmem.ThreadID{1, 2, 3} {
		p.ThreadStart(tid)
	}
	p.Park(3, true)
	// Thread 1 waits first; thread 2's arrival makes the execution
	// quiescent, but the exit belongs to thread 1, as MaxWait would have
	// expired for it first.
	st1, st2 := p.threads[1], p.threads[2]
	st1.waiting.Store(true)
	st1.since = 1
	st2.waiting.Store(true)
	st2.since = 2
	if _, done := p.waitStep(2, st2, true); done || p.Outcome().Disabled {
		t.Fatalf("the later waiter took the quiescent exit")
	}
	if _, done := p.waitStep(1, st1, false); !done || !p.Outcome().Disabled {
		t.Fatalf("the longest waiter did not take the quiescent exit")
	}

	// End to end: both waits return, the sync point disabled once.
	p = NewPMAware(cfg, entryFor(64, []site.ID{loadSite}, []site.ID{site.Named("pl-store")}), 0)
	p.BeginExec(3)
	for _, tid := range []pmem.ThreadID{1, 2, 3} {
		p.ThreadStart(tid)
	}
	p.Park(3, true)
	first := make(chan struct{})
	go func() {
		waitFor(t, func() bool { return p.waiting.Load() != 0 })
		p.BeforeLoad(2, 64, loadSite)
		close(first)
	}()
	returnsWithin(t, time.Second, "longest waiter", func() { p.BeforeLoad(1, 64, loadSite) })
	select {
	case <-first:
	case <-time.After(time.Second):
		t.Fatalf("later waiter did not return")
	}
	if out := p.Outcome(); !out.Disabled || out.CondWaits != 2 {
		t.Fatalf("outcome = %+v, want disabled with two waits", out)
	}
}
