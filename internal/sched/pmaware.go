package sched

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
)

// Config tunes the PM-aware thread scheduling. Durations are scaled for the
// simulation; the algorithm is the one in the paper's Figure 6. Both waits
// block on the event that ends them (a signal, a thread parking on a lock or
// exiting); the durations only bound them.
type Config struct {
	// WriterWait is how long cond_signal stalls the writer thread so that
	// reader threads can execute their loads against the still-unflushed
	// store (the paper sets it to the typical total execution time of the
	// original program). The stall ends early once every other thread is
	// parked on a lock or has exited: no reader can load any more.
	WriterWait time.Duration
	// MaxWait is the wall-clock bound on one cond_wait after which the
	// waiting thread is considered blocked (Pitfall-3): the sync point is
	// disabled and the wait abandoned. It is a duration rather than a
	// loop count because a waiter may hold application-level locks — the
	// bound must stay well under the runtime's hang timeout. A wait whose
	// every other live thread is waiting or parked takes the same exit at
	// once: no thread can issue the store that would end it.
	MaxWait time.Duration
	// Seed seeds the privileged-thread selection.
	Seed int64
}

// DefaultConfig returns simulation-scale defaults.
func DefaultConfig() Config {
	return Config{
		WriterWait: 2 * time.Millisecond,
		MaxWait:    4 * time.Millisecond,
		Seed:       1,
	}
}

// Outcome summarizes one execution under the PM-aware strategy, feeding the
// skip bookkeeping (Pitfall-3): when a sync point was disabled, the fuzzer
// raises the skip count it keeps for that sync-point address, campaign-wide
// and across seeds, so later executions targeting the address do not block
// on the same cond_wait executions.
type Outcome struct {
	// CondWaits is the number of cond_wait executions that entered the
	// waiting path.
	CondWaits int
	// Signalled reports whether any cond_signal fired.
	Signalled bool
	// Disabled reports whether the sync point was disabled because a
	// thread blocked too long.
	Disabled bool
	// PrivilegedUsed reports whether a privileged thread was selected
	// because all threads blocked (Pitfall-2).
	PrivilegedUsed bool
	// CondWaitTimeouts counts cond_waits that ended on MaxWait, and
	// WriterStallTimeouts writer stalls that ended on WriterWait, rather
	// than on an event.
	CondWaitTimeouts    int
	WriterStallTimeouts int
}

// Starved reports whether the execution's readers all ended up waiting for
// a store that never came: a privileged thread was elected (Pitfall-2) and
// no cond_signal fired. The seed reached the entry's load sites but not its
// store sites while a reader waited, so the execution tested the seed, not
// the read-after-write window the entry stands for.
func (o Outcome) Starved() bool { return o.PrivilegedUsed && !o.Signalled }

type waiterState struct {
	bypass  atomic.Bool
	waiting atomic.Bool
	parked  atomic.Bool
	// since orders the current wait among all waits of the execution
	// (guarded by mu).
	since uint64
}

// PMAware is the PM-aware interleaving exploration strategy (paper §4.2.2,
// Figure 6). For the selected priority-queue entry it injects cond_wait
// before the entry's load sites (sync points) and cond_signal after the
// entry's store sites, stalling the writer before its flush so readers
// observe non-persisted data. It mitigates the three pitfalls described in
// the paper: cond_wait is a no-op once signalled; if all threads block, a
// randomly selected privileged thread bypasses every wait; if one thread
// blocks too long, the sync point is disabled and the skip count reported in
// the Outcome.
//
// Waits never poll. Every event that can end a wait — the signal, a
// privileged election, the sync point being disabled, a thread exiting or
// parking on a lock — closes the wake channel, and each waiter re-evaluates
// its condition under mu.
type PMAware struct {
	cfg      Config
	entry    *Entry
	initSkip int

	m        atomic.Int32 // the condition variable of Figure 6
	armed    atomic.Bool  // true only between BeginExec and EndExec
	enabled  atomic.Bool  // sync.is_enabled
	skip     atomic.Int32 // sync.skip
	disabled atomic.Bool
	signal   atomic.Bool
	privUsed atomic.Bool
	waits    atomic.Int32
	waiting  atomic.Int32 // threads currently inside cond_wait

	waitTimeouts  atomic.Int32
	stallTimeouts atomic.Int32

	mu      sync.Mutex
	rng     *rand.Rand
	threads map[pmem.ThreadID]*waiterState
	active  int
	waitSeq uint64
	// wake is closed (and reset to nil) by broadcast; it is created only
	// when a waiter needs it, so events nobody waits for cost nothing.
	wake chan struct{}
}

// NewPMAware creates the strategy for one campaign targeting the given
// priority-queue entry with the given initial skip count (0 for a fresh
// entry).
func NewPMAware(cfg Config, entry *Entry, skip int) *PMAware {
	if cfg.MaxWait <= 0 {
		cfg = DefaultConfig()
	}
	p := &PMAware{
		cfg:      cfg,
		entry:    entry,
		initSkip: skip,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		threads:  make(map[pmem.ThreadID]*waiterState),
	}
	p.enabled.Store(true)
	p.skip.Store(int32(skip))
	return p
}

// BeginExec implements Strategy. Hooks are inert until BeginExec so that the
// setup/recovery phase (which runs the same instrumented code) cannot trip
// sync points before worker threads exist.
func (p *PMAware) BeginExec(int) {
	p.m.Store(0)
	p.signal.Store(false)
	p.armed.Store(true)
}

// ThreadStart implements Strategy.
func (p *PMAware) ThreadStart(t pmem.ThreadID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.threads[t] = &waiterState{}
	p.active++
}

// ThreadExit implements Strategy.
func (p *PMAware) ThreadExit(t pmem.ThreadID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.threads[t]; ok {
		delete(p.threads, t)
		p.active--
		p.broadcast()
	}
}

// Park implements Strategy. A thread parking may leave every waiter with no
// thread able to signal it, so parking wakes the waiters to re-evaluate; a
// thread unparking can only make progress possible, so it wakes nobody.
func (p *PMAware) Park(t pmem.ThreadID, parked bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.threads[t]
	if st == nil {
		return
	}
	st.parked.Store(parked)
	if parked {
		p.broadcast()
	}
}

// broadcast wakes every goroutine blocked in cond_wait or a writer stall.
// The caller holds mu.
func (p *PMAware) broadcast() {
	if p.wake != nil {
		close(p.wake)
		p.wake = nil
	}
}

// wakeChan returns the channel the next broadcast closes. The caller holds
// mu, so no event can slip between its condition check and the wait.
func (p *PMAware) wakeChan() <-chan struct{} {
	if p.wake == nil {
		p.wake = make(chan struct{})
	}
	return p.wake
}

func (p *PMAware) state(t pmem.ThreadID) *waiterState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.threads[t]
}

// BeforeLoad implements Strategy: it injects cond_wait before the entry's
// sync points.
func (p *PMAware) BeforeLoad(t pmem.ThreadID, addr pmem.Addr, s site.ID) {
	if p.entry == nil || !p.armed.Load() || addr != p.entry.Addr {
		return
	}
	if !slices.Contains(p.entry.LoadSites, s) {
		return
	}
	p.condWait(t)
}

// BeforeStore implements Strategy.
func (p *PMAware) BeforeStore(pmem.ThreadID, pmem.Addr, site.ID) {}

// AfterStore implements Strategy: it fires cond_signal after the entry's
// store sites, before the writer flushes.
func (p *PMAware) AfterStore(t pmem.ThreadID, addr pmem.Addr, s site.ID) {
	if p.entry == nil || !p.armed.Load() || addr != p.entry.Addr {
		return
	}
	if !slices.Contains(p.entry.StoreSites, s) {
		return
	}
	p.condSignal(t)
}

// EndExec implements Strategy.
func (p *PMAware) EndExec() { p.armed.Store(false) }

// Description captures the schedule parameters of one PMAware instance for
// forensic bug artifacts: which sync point it targeted and with what skip.
type Description struct {
	Addr        pmem.Addr
	Priority    int
	InitialSkip int
	LoadSites   []site.ID
	StoreSites  []site.ID
}

// Describe returns the strategy's schedule parameters.
func (p *PMAware) Describe() Description {
	d := Description{InitialSkip: p.initSkip}
	if p.entry == nil {
		return d
	}
	d.Addr = p.entry.Addr
	d.Priority = p.entry.Priority
	d.LoadSites = slices.Clone(p.entry.LoadSites)
	d.StoreSites = slices.Clone(p.entry.StoreSites)
	return d
}

// Outcome returns the campaign summary used for skip bookkeeping.
func (p *PMAware) Outcome() Outcome {
	return Outcome{
		CondWaits:           int(p.waits.Load()),
		Signalled:           p.signal.Load(),
		Disabled:            p.disabled.Load(),
		PrivilegedUsed:      p.privUsed.Load(),
		CondWaitTimeouts:    int(p.waitTimeouts.Load()),
		WriterStallTimeouts: int(p.stallTimeouts.Load()),
	}
}

// condWait is Figure 6's wait: block until the condition variable is set,
// handling skip counts, privileged bypass and blocked-thread disabling.
func (p *PMAware) condWait(t pmem.ThreadID) {
	st := p.state(t)
	if st == nil || !p.enabled.Load() || st.bypass.Load() {
		return
	}
	// sync.skip > 0: this cond_wait execution is skipped (Pitfall-3
	// bookkeeping: the skip count the fuzzer keeps for this sync-point
	// address, accumulated over the campaign's earlier executions).
	for {
		cur := p.skip.Load()
		if cur == 0 {
			break
		}
		if p.skip.CompareAndSwap(cur, cur-1) {
			return
		}
	}
	p.waits.Add(1)
	p.waiting.Add(1)
	defer p.waiting.Add(-1)
	p.mu.Lock()
	st.waiting.Store(true)
	p.waitSeq++
	st.since = p.waitSeq
	p.mu.Unlock()
	defer st.waiting.Store(false)
	timer := time.NewTimer(p.cfg.MaxWait)
	defer timer.Stop()
	for first := true; ; first = false {
		wake, done := p.waitStep(t, st, first)
		if done {
			return
		}
		select {
		case <-wake:
		case <-timer.C:
			// Pitfall-3: this thread blocked too long.
			p.waitTimeouts.Add(1)
			p.disable()
			return
		}
	}
}

// waitStep evaluates one waiter's condition under mu. It reports done when
// the wait is over, and otherwise returns the channel to block on. first
// marks the evaluation on entry to the wait, before any wake-up.
func (p *PMAware) waitStep(t pmem.ThreadID, st *waiterState, first bool) (<-chan struct{}, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m.Load() != 0 || st.bypass.Load() || !p.enabled.Load() {
		return nil, true
	}
	if p.allBlocked() {
		// Pitfall-2: every thread is waiting for a writer that does
		// not exist; a random thread becomes privileged and bypasses
		// all waits.
		p.electPrivileged()
		if st.bypass.Load() {
			return nil, true
		}
	}
	if p.quiescent(t) {
		// Pitfall-3, reached without waiting out MaxWait: every other
		// thread waits or is parked on a lock, so no store can end
		// this wait. The exit is taken by the waiter whose MaxWait
		// would have expired first, the longest-waiting one, as the
		// timeout would have done: it runs first, and a store it makes
		// to the sync point still signals the later waiters.
		if p.longestWaiting(st) {
			p.disableLocked()
			return nil, true
		}
		if first {
			// This wait made the execution quiescent; every
			// earlier waiter is blocked, so wake them to see it.
			p.broadcast()
		}
	}
	return p.wakeChan(), false
}

// longestWaiting reports whether st has waited longer than every other
// waiter without bypass. The caller holds mu.
func (p *PMAware) longestWaiting(st *waiterState) bool {
	for _, o := range p.threads {
		if o.waiting.Load() && !o.bypass.Load() && o.since < st.since {
			return false
		}
	}
	return true
}

// quiescent reports whether at least one live thread other than self is
// parked on a lock and every other one is waiting without bypass: none of
// them can run. With no thread parked, every thread is waiting, and that is
// Pitfall-2's case: the waiter that sets the last waiting flag sees it and
// elects a privileged thread. The caller holds mu.
func (p *PMAware) quiescent(self pmem.ThreadID) bool {
	parked := false
	for id, st := range p.threads {
		switch {
		case id == self:
		case st.parked.Load():
			parked = true
		case !st.waiting.Load() || st.bypass.Load():
			return false
		}
	}
	return parked
}

// disable is the Pitfall-3 exit: the sync point is disabled for the rest of
// the campaign and every waiter released.
func (p *PMAware) disable() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.disableLocked()
}

func (p *PMAware) disableLocked() {
	p.enabled.Store(false)
	p.disabled.Store(true)
	p.broadcast()
}

// condSignal is Figure 6's signal: set the condition and stall the writer so
// readers can consume the unflushed store. Two refinements over the paper's
// pseudo-code keep the one-shot useful: the signal only fires while a reader
// is actually waiting (a store nobody observes — e.g. the first write that
// creates the shared object — must not burn the campaign's signal), and only
// the first successful signal stalls the writer (Pitfall-1: once m is set,
// waits are disabled, so further stalls would only starve threads queued on
// the writer's application-level locks). The stall ends after WriterWait, or
// as soon as every other thread is parked on a lock or has exited.
func (p *PMAware) condSignal(writer pmem.ThreadID) {
	if p.waiting.Load() == 0 {
		return
	}
	if p.m.Swap(1) != 0 {
		return
	}
	p.signal.Store(true)
	p.mu.Lock()
	p.broadcast() // release the waiters
	p.mu.Unlock()
	timer := time.NewTimer(p.cfg.WriterWait)
	defer timer.Stop()
	for {
		wake, done := p.stallStep(writer)
		if done {
			return
		}
		select {
		case <-wake:
		case <-timer.C:
			p.stallTimeouts.Add(1)
			return
		}
	}
}

// stallStep reports whether the writer's stall can end because no other
// thread can run; otherwise it returns the channel to block on.
func (p *PMAware) stallStep(writer pmem.ThreadID) (<-chan struct{}, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, st := range p.threads {
		if id != writer && !st.parked.Load() {
			return p.wakeChan(), false
		}
	}
	return nil, true
}

// allBlocked reports whether every live thread is waiting. The caller holds
// mu.
func (p *PMAware) allBlocked() bool {
	if p.active == 0 {
		return false
	}
	for _, st := range p.threads {
		if !st.waiting.Load() {
			return false
		}
	}
	return true
}

// electPrivileged selects a random waiting thread to bypass every wait,
// unless one already does. The caller holds mu.
func (p *PMAware) electPrivileged() {
	var waiting []*waiterState
	for _, st := range p.threads {
		if st.bypass.Load() {
			return // already have a privileged thread
		}
		if st.waiting.Load() {
			waiting = append(waiting, st)
		}
	}
	if len(waiting) == 0 {
		return
	}
	waiting[p.rng.Intn(len(waiting))].bypass.Store(true)
	p.privUsed.Store(true)
	p.broadcast()
}
