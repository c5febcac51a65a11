package pmem

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Addr is a byte offset within a pool. Pools are position independent: all
// recorded addresses are offsets so that crash images can be re-mapped
// without worrying about address space layout randomization (paper §4.4).
type Addr = uint64

// ThreadID identifies a simulated thread of the instrumented program.
// Thread 0 is conventionally the main/setup thread.
type ThreadID int32

// NoThread marks a word that has never been written.
const NoThread ThreadID = -1

const (
	// WordSize is the granularity of persistency-state tracking.
	WordSize = 8
	// LineSize is the cache-line granularity of flush operations.
	LineSize = 64
	// numStripes is the number of line-lock stripes. A power of two so the
	// stripe index is a mask; 64 stripes let a full stripe set be tracked
	// in one uint64 mask and acquired in ascending order (deadlock-free).
	numStripes = 64
)

// Range is a byte range [Off, Off+Len) within a pool.
type Range struct {
	Off Addr
	Len uint64
}

// End returns the exclusive upper bound of the range.
func (r Range) End() Addr { return r.Off + r.Len }

// WordMeta is the persistency state of one 8-byte word.
type WordMeta struct {
	// Dirty reports whether the word holds data that is visible in the
	// cache but not yet persisted (PM_DIRTY in the paper).
	Dirty bool
	// Writer is the thread that performed the most recent store.
	Writer ThreadID
	// Site is the instruction site of the most recent store.
	Site uint32
	// Epoch increments on every store to the word. Inconsistency
	// candidates record the epoch they observed.
	Epoch uint32
	// CleanEpoch is the store epoch at the word's most recent transition
	// to the persisted state. A candidate event with Epoch > CleanEpoch
	// on a still-dirty word has a continuously non-persisted dependency:
	// later overwrites do not persist the observed value, only a flush
	// does.
	CleanEpoch uint32
}

// Accessor records the most recent access to a word, used to form PM alias
// instruction pairs: two back-to-back accesses to the same address by
// different threads.
type Accessor struct {
	Site   uint32
	Thread ThreadID
	Dirty  bool
	Valid  bool
}

// pendingLine is one cache line flushed by a thread and awaiting its fence.
// Flush does not copy the line: as long as nothing stores to it, the line's
// flush-time contents ARE its current contents, so Fence can commit straight
// from the cache image. Only when a store hits a line with pending flushes is
// the flush-time view materialized into cap (copy-on-write), keeping the
// common flush→fence sequence free of per-line data copies.
//
// Invariant: cap == nil ⟺ the line's data and word epochs are unchanged
// since this entry's flush. Every store path calls capturePending before
// mutating the cache, which fills cap for all uncaptured entries of the line.
type pendingLine struct {
	line Addr // line-aligned offset
	cap  *lineCapture
}

// lineCapture is the materialized flush-time view of a pending line. All
// uncaptured entries of a line share one capture (their views are identical
// by the pendingLine invariant), so a store allocates at most one per line.
type lineCapture struct {
	data   [LineSize]byte
	epochs [LineSize / WordSize]uint32
}

// Pool is a simulated persistent memory pool.
//
// All methods are safe for concurrent use.
type Pool struct {
	// guard is the writer-preference guard: striped fast paths hold it
	// shared, whole-pool operations hold it exclusively. Go's RWMutex
	// blocks new readers once a writer waits, so Snapshot/Restore cannot
	// starve under a steady hook stream.
	guard   sync.RWMutex
	stripes [numStripes]sync.Mutex

	size      uint64
	cache     []byte
	persisted []byte
	meta      []WordMeta
	shadow    []uint32 // taint label per word
	last      []Accessor

	pendingMu sync.Mutex
	pending   map[ThreadID][]pendingLine
	// linePending counts, per cache line, how many pendingLine entries
	// reference the line. Store paths consult it (one atomic load, under the
	// line's stripe) to decide whether a copy-on-write capture is needed;
	// with no flush in flight the check is the only overhead.
	linePending []atomic.Uint32

	// touched is a bitmap with one bit per cache line, set when the line's
	// data, metadata, shadow labels or accessor records changed since the
	// last Restore. Checkpoint restore copies back only touched lines, so
	// its cost is proportional to the execution's dirty set instead of the
	// pool size.
	touched  []atomic.Uint64
	baseSnap *Snapshot // snapshot the pool state is based on (guarded by guard)

	// stores counts all store operations, used by tests and stats.
	stores atomic.Uint64
	// flushes and fences count persistency operations.
	flushes atomic.Uint64
	fences  atomic.Uint64

	evictMu   sync.Mutex
	evictRNG  *rand.Rand
	evictProb float64
	eadr      bool
}

// Options configure pool construction.
type Options struct {
	// EvictProb, when positive, enables random cache eviction: on each
	// store, with this probability one dirty line is written back to the
	// persisted image. Eviction does not clear the dirty bit because the
	// program cannot rely on it (the paper's checkers conservatively
	// treat unflushed data as non-persisted).
	EvictProb float64
	// EvictSeed seeds the eviction RNG for reproducibility.
	EvictSeed int64
	// EADR models a platform with extended ADR (paper §6.6): CPU caches
	// are battery-backed and inside the persistence domain, so every
	// store is durable at visibility and no word is ever dirty. PM
	// Inter-thread Inconsistency cannot occur; PM Synchronization
	// Inconsistency still can — locks persisted in PM outlive the
	// threads that held them regardless of cache durability.
	EADR bool
}

// New creates a zeroed pool of the given size in bytes. The size is rounded
// up to a multiple of the cache-line size.
func New(size uint64) *Pool { return NewWithOptions(size, Options{}) }

// NewWithOptions creates a pool with explicit options.
func NewWithOptions(size uint64, opt Options) *Pool {
	if size == 0 {
		size = LineSize
	}
	if rem := size % LineSize; rem != 0 {
		size += LineSize - rem
	}
	lines := size / LineSize
	p := &Pool{
		size:        size,
		cache:       make([]byte, size),
		persisted:   make([]byte, size),
		meta:        make([]WordMeta, size/WordSize),
		shadow:      make([]uint32, size/WordSize),
		last:        make([]Accessor, size/WordSize),
		pending:     make(map[ThreadID][]pendingLine),
		linePending: make([]atomic.Uint32, lines),
		touched:     make([]atomic.Uint64, (lines+63)/64),
	}
	for i := range p.meta {
		p.meta[i].Writer = NoThread
	}
	if opt.EvictProb > 0 {
		p.evictProb = opt.EvictProb
		p.evictRNG = rand.New(rand.NewSource(opt.EvictSeed))
	}
	p.eadr = opt.EADR
	return p
}

// EADR reports whether the pool models battery-backed (persistent) caches.
func (p *Pool) EADR() bool { return p.eadr }

// FromImage creates a pool whose cache and persisted images both equal the
// given crash image, as if the file had been re-mapped after a restart. All
// words start clean with no writer, matching a freshly mapped file.
func FromImage(img []byte) *Pool {
	p := New(uint64(len(img)))
	copy(p.cache, img)
	copy(p.persisted, img)
	return p
}

// Size returns the pool size in bytes.
func (p *Pool) Size() uint64 { return p.size }

func (p *Pool) check(addr Addr, n uint64) {
	if addr+n > p.size || addr+n < addr {
		panic(fmt.Sprintf("pmem: access [%#x,%#x) out of pool bounds %#x", addr, addr+n, p.size))
	}
}

func lineOf(addr Addr) Addr { return addr &^ (LineSize - 1) }

// --- striped locking ---

// lockSpan acquires the stripe mutexes covering [addr, addr+n) in ascending
// stripe order and returns the stripe mask to pass to unlockSpan. The caller
// must hold guard shared (RLock) and must have bounds-checked the range.
func (p *Pool) lockSpan(addr Addr, n uint64) uint64 {
	if n == 0 {
		n = 1
	}
	first := addr / LineSize
	last := (addr + n - 1) / LineSize
	if first == last {
		s := first % numStripes
		p.stripes[s].Lock()
		return 1 << s
	}
	var mask uint64
	if last-first >= numStripes-1 {
		mask = ^uint64(0)
	} else {
		for l := first; l <= last; l++ {
			mask |= 1 << (l % numStripes)
		}
	}
	for m := mask; m != 0; {
		i := bits.TrailingZeros64(m)
		p.stripes[i].Lock()
		m &^= 1 << i
	}
	return mask
}

// unlockSpan releases the stripes acquired by lockSpan.
func (p *Pool) unlockSpan(mask uint64) {
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		p.stripes[i].Unlock()
		mask &^= 1 << i
	}
}

// markTouched records that the lines covering [addr, addr+n) diverged from
// the base snapshot. Bits are set with a CAS loop because one touched word
// covers 64 lines spread across all stripes.
func (p *Pool) markTouched(addr Addr, n uint64) {
	if n == 0 {
		return
	}
	first := addr / LineSize
	last := (addr + n - 1) / LineSize
	for l := first; l <= last; l++ {
		w := &p.touched[l/64]
		mask := uint64(1) << (l % 64)
		for {
			old := w.Load()
			if old&mask != 0 {
				break
			}
			if w.CompareAndSwap(old, old|mask) {
				break
			}
		}
	}
}

// --- loads ---

// Load64 reads an 8-byte little-endian word from the cache image.
func (p *Pool) Load64(addr Addr) uint64 {
	p.check(addr, 8)
	p.guard.RLock()
	m := p.lockSpan(addr, 8)
	v := le64(p.cache[addr:])
	p.unlockSpan(m)
	p.guard.RUnlock()
	return v
}

// LoadBytes copies n bytes starting at addr from the cache image.
func (p *Pool) LoadBytes(addr Addr, n uint64) []byte {
	p.check(addr, n)
	out := make([]byte, n)
	p.guard.RLock()
	m := p.lockSpan(addr, n)
	copy(out, p.cache[addr:addr+n])
	p.unlockSpan(m)
	p.guard.RUnlock()
	return out
}

// --- stores ---

// Store64 writes an 8-byte word to the cache image and marks the containing
// words dirty on behalf of thread t at instruction site.
func (p *Pool) Store64(t ThreadID, site uint32, addr Addr, val uint64) {
	p.check(addr, 8)
	p.guard.RLock()
	m := p.lockSpan(addr, 8)
	p.capturePending(addr, 8)
	putLE64(p.cache[addr:], val)
	p.markStored(t, site, addr, 8)
	p.unlockSpan(m)
	p.guard.RUnlock()
	p.maybeEvict()
}

// StoreBytes writes data to the cache image and marks the covered words
// dirty.
func (p *Pool) StoreBytes(t ThreadID, site uint32, addr Addr, data []byte) {
	n := uint64(len(data))
	p.check(addr, n)
	p.guard.RLock()
	m := p.lockSpan(addr, n)
	p.capturePending(addr, n)
	copy(p.cache[addr:], data)
	p.markStored(t, site, addr, n)
	p.unlockSpan(m)
	p.guard.RUnlock()
	p.maybeEvict()
}

// NTStore64 performs a non-temporal store: the write bypasses the cache
// hierarchy and is considered persisted immediately (PM_CLEAN per the paper's
// checker semantics). The value still becomes visible in the cache image.
func (p *Pool) NTStore64(t ThreadID, site uint32, addr Addr, val uint64) {
	p.check(addr, 8)
	p.guard.RLock()
	m := p.lockSpan(addr, 8)
	p.capturePending(addr, 8)
	putLE64(p.cache[addr:], val)
	putLE64(p.persisted[addr:], val)
	p.markNT(t, site, addr, 8)
	p.unlockSpan(m)
	p.guard.RUnlock()
}

// NTStoreBytes performs a non-temporal store of a byte range.
func (p *Pool) NTStoreBytes(t ThreadID, site uint32, addr Addr, data []byte) {
	n := uint64(len(data))
	p.check(addr, n)
	p.guard.RLock()
	m := p.lockSpan(addr, n)
	p.capturePending(addr, n)
	copy(p.cache[addr:], data)
	copy(p.persisted[addr:], data)
	p.markNT(t, site, addr, n)
	p.unlockSpan(m)
	p.guard.RUnlock()
}

// CAS64 performs an atomic compare-and-swap on a word, returning whether the
// swap happened and the value observed. A successful CAS is a store (the
// word becomes dirty); a failed CAS is only a load.
func (p *Pool) CAS64(t ThreadID, site uint32, addr Addr, old, new uint64) (bool, uint64) {
	p.check(addr, 8)
	p.guard.RLock()
	m := p.lockSpan(addr, 8)
	cur := le64(p.cache[addr:])
	ok := cur == old
	if ok {
		p.capturePending(addr, 8)
		putLE64(p.cache[addr:], new)
		p.markStored(t, site, addr, 8)
	}
	p.unlockSpan(m)
	p.guard.RUnlock()
	return ok, cur
}

// Flush simulates CLWB over the cache lines covering [addr, addr+n): each
// line is staged on thread t and will reach the persistence domain at t's
// next Fence. Words stored after the flush but before the fence keep their
// dirty state (their epoch advanced). Flush itself copies no data — it raises
// the lines' pending counters and appends entries; the flush-time contents
// are materialized lazily (capturePending) only if a store hits the line
// before the fence. A flush racing a store linearizes at its entry append,
// matching per-line CLWB semantics.
func (p *Pool) Flush(t ThreadID, addr Addr, n uint64) {
	p.check(addr, n)
	p.flushes.Add(1)
	p.guard.RLock()
	first := lineOf(addr)
	for line := first; line < addr+n; line += LineSize {
		// Raise the counter before publishing the entry: a store that
		// misses the counter is ordered before this flush; one that sees
		// it scans the pending entries under pendingMu.
		p.linePending[line/LineSize].Add(1)
	}
	p.pendingMu.Lock()
	entries := p.pending[t]
	for line := first; line < addr+n; line += LineSize {
		entries = append(entries, pendingLine{line: line})
	}
	p.pending[t] = entries
	p.pendingMu.Unlock()
	p.guard.RUnlock()
}

// capturePending materializes the flush-time view of every uncaptured pending
// entry covering [addr, addr+n). Store paths call it before mutating the
// cache; the caller holds the guard shared and the stripes covering the
// range, so the copied data is the pre-store state the flushes observed.
func (p *Pool) capturePending(addr Addr, n uint64) {
	if n == 0 {
		return
	}
	first := addr / LineSize
	last := (addr + n - 1) / LineSize
	for l := first; l <= last; l++ {
		if p.linePending[l].Load() == 0 {
			continue
		}
		line := l * LineSize
		var view *lineCapture
		p.pendingMu.Lock()
		for _, entries := range p.pending {
			for i := range entries {
				if entries[i].line != line || entries[i].cap != nil {
					continue
				}
				if view == nil {
					view = &lineCapture{}
					copy(view.data[:], p.cache[line:line+LineSize])
					for w := 0; w < LineSize/WordSize; w++ {
						view.epochs[w] = p.meta[(line+Addr(w*WordSize))/WordSize].Epoch
					}
				}
				entries[i].cap = view
			}
		}
		p.pendingMu.Unlock()
	}
}

// Fence simulates SFENCE on thread t: every line staged by t's previous
// flushes is committed to the persisted image, and each word whose epoch is
// unchanged since the flush becomes clean. Captured entries commit their
// materialized flush-time view; uncaptured entries commit the current line
// directly — by the pendingLine invariant the two are identical, so lazy
// capture preserves exact eager-copy semantics.
func (p *Pool) Fence(t ThreadID) {
	p.fences.Add(1)
	p.guard.RLock()
	p.pendingMu.Lock()
	count := len(p.pending[t])
	p.pendingMu.Unlock()
	// Entries stay visible in the map until committed so concurrent stores
	// keep capturing them; thread t is sequential, so no new entries for t
	// appear while its fence runs.
	for i := 0; i < count; i++ {
		p.pendingMu.Lock()
		e := p.pending[t][i]
		p.pendingMu.Unlock()
		line := e.line
		m := p.lockSpan(line, LineSize)
		// A store may have captured this entry after the peek above;
		// re-read the capture pointer under the line's stripe, which
		// orders the commit against any capturing store.
		p.pendingMu.Lock()
		view := p.pending[t][i].cap
		p.pendingMu.Unlock()
		if view != nil {
			copy(p.persisted[line:line+LineSize], view.data[:])
			for w := 0; w < LineSize/WordSize; w++ {
				wi := (line + Addr(w*WordSize)) / WordSize
				if p.meta[wi].Epoch == view.epochs[w] {
					p.meta[wi].Dirty = false
					p.meta[wi].CleanEpoch = p.meta[wi].Epoch
				}
			}
		} else {
			// Unchanged since flush: current contents are the
			// flush-time contents and every epoch matches.
			copy(p.persisted[line:line+LineSize], p.cache[line:line+LineSize])
			for w := 0; w < LineSize/WordSize; w++ {
				wi := (line + Addr(w*WordSize)) / WordSize
				p.meta[wi].Dirty = false
				p.meta[wi].CleanEpoch = p.meta[wi].Epoch
			}
		}
		p.linePending[line/LineSize].Add(^uint32(0))
		p.markTouched(line, LineSize)
		p.unlockSpan(m)
	}
	if count > 0 {
		p.pendingMu.Lock()
		p.pending[t] = p.pending[t][:0]
		p.pendingMu.Unlock()
	}
	p.guard.RUnlock()
}

// PersistNow force-persists a byte range, marking its words clean. It models
// flush immediately followed by fence and is used by recovery code and tests.
func (p *Pool) PersistNow(t ThreadID, addr Addr, n uint64) {
	p.check(addr, n)
	p.flushes.Add(1)
	p.fences.Add(1)
	p.guard.RLock()
	for line := lineOf(addr); line < addr+n; line += LineSize {
		m := p.lockSpan(line, LineSize)
		copy(p.persisted[line:line+LineSize], p.cache[line:line+LineSize])
		for w := 0; w < LineSize/WordSize; w++ {
			mw := &p.meta[(line+Addr(w*WordSize))/WordSize]
			mw.Dirty = false
			mw.CleanEpoch = mw.Epoch
		}
		p.markTouched(line, LineSize)
		p.unlockSpan(m)
	}
	p.guard.RUnlock()
}

// markStored marks the words covering a store dirty. Callers hold the guard
// shared and the stripes covering the range.
func (p *Pool) markStored(t ThreadID, site uint32, addr Addr, n uint64) {
	if p.eadr {
		// Persistent caches: every store is durable at visibility.
		from, to := addr&^(WordSize-1), ((addr+n-1)|(WordSize-1))+1
		copy(p.persisted[from:to], p.cache[from:to])
		p.markNT(t, site, addr, n)
		return
	}
	p.stores.Add(1)
	for wi := addr / WordSize; wi <= (addr+n-1)/WordSize; wi++ {
		m := &p.meta[wi]
		m.Dirty = true
		m.Writer = t
		m.Site = site
		m.Epoch++
	}
	p.markTouched(addr, n)
}

func (p *Pool) markNT(t ThreadID, site uint32, addr Addr, n uint64) {
	p.stores.Add(1)
	for wi := addr / WordSize; wi <= (addr+n-1)/WordSize; wi++ {
		m := &p.meta[wi]
		m.Dirty = false
		m.Writer = t
		m.Site = site
		m.Epoch++
		m.CleanEpoch = m.Epoch
	}
	p.markTouched(addr, n)
}

// maybeEvict runs after a store completes (no stripes held): with the
// configured probability it picks a random line and, if dirty, writes it back
// to the persisted image. The dirty bits stay set: programs must not depend
// on eviction.
func (p *Pool) maybeEvict() {
	if p.evictRNG == nil {
		return
	}
	p.evictMu.Lock()
	hit := p.evictRNG.Float64() < p.evictProb
	var line Addr
	if hit {
		line = Addr(p.evictRNG.Int63n(int64(p.size/LineSize))) * LineSize
	}
	p.evictMu.Unlock()
	if !hit {
		return
	}
	p.guard.RLock()
	m := p.lockSpan(line, LineSize)
	for w := 0; w < LineSize/WordSize; w++ {
		if p.meta[(line+Addr(w*WordSize))/WordSize].Dirty {
			copy(p.persisted[line:line+LineSize], p.cache[line:line+LineSize])
			p.markTouched(line, LineSize)
			break
		}
	}
	p.unlockSpan(m)
	p.guard.RUnlock()
}

// WordState returns the persistency state of the word containing addr.
func (p *Pool) WordState(addr Addr) WordMeta {
	p.check(addr, 1)
	p.guard.RLock()
	m := p.lockSpan(addr, 1)
	st := p.meta[addr/WordSize]
	p.unlockSpan(m)
	p.guard.RUnlock()
	return st
}

// ShadowLabel returns the taint label stored for the word containing addr.
func (p *Pool) ShadowLabel(addr Addr) uint32 {
	p.check(addr, 1)
	p.guard.RLock()
	m := p.lockSpan(addr, 1)
	l := p.shadow[addr/WordSize]
	p.unlockSpan(m)
	p.guard.RUnlock()
	return l
}

// SetShadowLabel stores a taint label for every word covering [addr, addr+n).
func (p *Pool) SetShadowLabel(addr Addr, n uint64, label uint32) {
	p.check(addr, n)
	p.guard.RLock()
	m := p.lockSpan(addr, n)
	for wi := addr / WordSize; wi <= (addr+n-1)/WordSize; wi++ {
		p.shadow[wi] = label
	}
	p.markTouched(addr, n)
	p.unlockSpan(m)
	p.guard.RUnlock()
}

// ShadowLabelRange returns the shadow labels of all words covering the range,
// deduplicated, excluding zero.
func (p *Pool) ShadowLabelRange(addr Addr, n uint64) []uint32 {
	p.check(addr, n)
	p.guard.RLock()
	m := p.lockSpan(addr, n)
	var out []uint32
	for wi := addr / WordSize; wi <= (addr+n-1)/WordSize; wi++ {
		l := p.shadow[wi]
		if l == 0 {
			continue
		}
		dup := false
		for _, e := range out {
			if e == l {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	p.unlockSpan(m)
	p.guard.RUnlock()
	return out
}

// SwapAccessor atomically replaces the last-accessor record of the word
// containing addr and returns the previous record. The runtime uses it to
// form PM alias pairs.
func (p *Pool) SwapAccessor(addr Addr, a Accessor) Accessor {
	p.check(addr, 1)
	p.guard.RLock()
	m := p.lockSpan(addr, 1)
	wi := addr / WordSize
	prev := p.last[wi]
	p.last[wi] = a
	// Accessor records are cleared by Restore, so the line counts as
	// diverged from the checkpoint even without a data write.
	p.markTouched(addr, 1)
	p.unlockSpan(m)
	p.guard.RUnlock()
	return prev
}

// --- fused instrumented accessors ---
//
// One instrumented PM access needs several pieces of pool state: the value,
// the word's persistency metadata, its shadow taint label, the last-accessor
// swap for alias-pair coverage, and (for stores) the dirty marking and label
// update. Composing those from the fine-grained primitives above costs one
// guard+stripe round trip per piece; the Instr* variants perform the whole
// per-access protocol in a single striped critical section, keeping
// single-thread hook cost close to a single-lock design. The fine-grained
// primitives remain for tests, validators and recovery code.

// InstrLoad64 performs the instrumented-load protocol on the word containing
// addr: read the 8-byte value, the word's metadata and shadow label, and
// record thread t at the given site as the word's last accessor (tagged with
// the observed persistency state). The previous accessor is returned for
// alias-pair coverage.
func (p *Pool) InstrLoad64(t ThreadID, site uint32, addr Addr) (val uint64, meta WordMeta, shadow uint32, prev Accessor) {
	p.check(addr, 8)
	p.guard.RLock()
	m := p.lockSpan(addr, 8)
	wi := addr / WordSize
	val = le64(p.cache[addr:])
	meta = p.meta[wi]
	shadow = p.shadow[wi]
	prev = p.last[wi]
	p.last[wi] = Accessor{Site: site, Thread: t, Dirty: meta.Dirty, Valid: true}
	p.markTouched(addr, 1)
	p.unlockSpan(m)
	p.guard.RUnlock()
	return
}

// InstrLoadBytes is the byte-range load protocol: copy the range, find the
// first dirty word (if any), collect the deduplicated non-zero shadow labels
// and swap the first word's accessor, all atomically.
func (p *Pool) InstrLoadBytes(t ThreadID, site uint32, addr Addr, n uint64) (out []byte, meta WordMeta, waddr Addr, dirty bool, labels []uint32, prev Accessor) {
	p.check(addr, n)
	out = make([]byte, n)
	p.guard.RLock()
	m := p.lockSpan(addr, n)
	copy(out, p.cache[addr:addr+n])
	for wi := addr / WordSize; wi <= (addr+n-1)/WordSize; wi++ {
		if !dirty && p.meta[wi].Dirty {
			meta, waddr, dirty = p.meta[wi], wi*WordSize, true
		}
		l := p.shadow[wi]
		if l == 0 {
			continue
		}
		dup := false
		for _, e := range labels {
			if e == l {
				dup = true
				break
			}
		}
		if !dup {
			labels = append(labels, l)
		}
	}
	wi := addr / WordSize
	prev = p.last[wi]
	p.last[wi] = Accessor{Site: site, Thread: t, Dirty: dirty, Valid: true}
	p.markTouched(addr, 1)
	p.unlockSpan(m)
	p.guard.RUnlock()
	return
}

// InstrStore64 performs the instrumented-store protocol: read the previous
// value, write the new one, mark the covered words dirty, replace their
// shadow label and record the access as last accessor, in one critical
// section. It returns the overwritten value and the previous accessor.
func (p *Pool) InstrStore64(t ThreadID, site uint32, addr Addr, val uint64, label uint32) (old uint64, prev Accessor) {
	p.check(addr, 8)
	p.guard.RLock()
	m := p.lockSpan(addr, 8)
	old = le64(p.cache[addr:])
	p.capturePending(addr, 8)
	putLE64(p.cache[addr:], val)
	p.markStored(t, site, addr, 8)
	for wi := addr / WordSize; wi <= (addr+7)/WordSize; wi++ {
		p.shadow[wi] = label
	}
	wi := addr / WordSize
	prev = p.last[wi]
	p.last[wi] = Accessor{Site: site, Thread: t, Dirty: true, Valid: true}
	p.unlockSpan(m)
	p.guard.RUnlock()
	p.maybeEvict()
	return
}

// InstrStoreBytes is the byte-range store protocol.
func (p *Pool) InstrStoreBytes(t ThreadID, site uint32, addr Addr, data []byte, label uint32) (prev Accessor) {
	n := uint64(len(data))
	p.check(addr, n)
	p.guard.RLock()
	m := p.lockSpan(addr, n)
	p.capturePending(addr, n)
	copy(p.cache[addr:], data)
	p.markStored(t, site, addr, n)
	for wi := addr / WordSize; wi <= (addr+n-1)/WordSize; wi++ {
		p.shadow[wi] = label
	}
	wi := addr / WordSize
	prev = p.last[wi]
	p.last[wi] = Accessor{Site: site, Thread: t, Dirty: true, Valid: true}
	p.unlockSpan(m)
	p.guard.RUnlock()
	p.maybeEvict()
	return
}

// InstrNTStore64 is the non-temporal store protocol: the write reaches the
// persisted image immediately and the words end clean.
func (p *Pool) InstrNTStore64(t ThreadID, site uint32, addr Addr, val uint64, label uint32) (old uint64, prev Accessor) {
	p.check(addr, 8)
	p.guard.RLock()
	m := p.lockSpan(addr, 8)
	old = le64(p.cache[addr:])
	p.capturePending(addr, 8)
	putLE64(p.cache[addr:], val)
	putLE64(p.persisted[addr:], val)
	p.markNT(t, site, addr, 8)
	for wi := addr / WordSize; wi <= (addr+7)/WordSize; wi++ {
		p.shadow[wi] = label
	}
	wi := addr / WordSize
	prev = p.last[wi]
	p.last[wi] = Accessor{Site: site, Thread: t, Dirty: false, Valid: true}
	p.unlockSpan(m)
	p.guard.RUnlock()
	return
}

// InstrNTStoreBytes is the byte-range non-temporal store protocol.
func (p *Pool) InstrNTStoreBytes(t ThreadID, site uint32, addr Addr, data []byte, label uint32) (prev Accessor) {
	n := uint64(len(data))
	p.check(addr, n)
	p.guard.RLock()
	m := p.lockSpan(addr, n)
	p.capturePending(addr, n)
	copy(p.cache[addr:], data)
	copy(p.persisted[addr:], data)
	p.markNT(t, site, addr, n)
	for wi := addr / WordSize; wi <= (addr+n-1)/WordSize; wi++ {
		p.shadow[wi] = label
	}
	wi := addr / WordSize
	prev = p.last[wi]
	p.last[wi] = Accessor{Site: site, Thread: t, Dirty: false, Valid: true}
	p.unlockSpan(m)
	p.guard.RUnlock()
	return
}

// InstrCAS64 is the compare-and-swap protocol: the pre-CAS metadata, shadow
// label and accessor swap plus the CAS itself in one critical section. On
// success the covered words' shadow label is replaced; a failed CAS has load
// semantics and leaves data, metadata and labels untouched.
func (p *Pool) InstrCAS64(t ThreadID, site uint32, addr Addr, old, new uint64, label uint32) (ok bool, observed uint64, meta WordMeta, shadow uint32, prev Accessor) {
	p.check(addr, 8)
	p.guard.RLock()
	m := p.lockSpan(addr, 8)
	wi := addr / WordSize
	meta = p.meta[wi]
	shadow = p.shadow[wi]
	prev = p.last[wi]
	p.last[wi] = Accessor{Site: site, Thread: t, Dirty: true, Valid: true}
	observed = le64(p.cache[addr:])
	ok = observed == old
	if ok {
		p.capturePending(addr, 8)
		putLE64(p.cache[addr:], new)
		p.markStored(t, site, addr, 8)
		for w := addr / WordSize; w <= (addr+7)/WordSize; w++ {
			p.shadow[w] = label
		}
	} else {
		// Only the accessor record diverged from the checkpoint.
		p.markTouched(addr, 1)
	}
	p.unlockSpan(m)
	p.guard.RUnlock()
	return
}

// EpochAt returns the store epoch of the word containing addr.
func (p *Pool) EpochAt(addr Addr) uint32 {
	p.check(addr, 1)
	p.guard.RLock()
	m := p.lockSpan(addr, 1)
	e := p.meta[addr/WordSize].Epoch
	p.unlockSpan(m)
	p.guard.RUnlock()
	return e
}

// Stats returns operation counters: stores, flushes and fences performed.
func (p *Pool) Stats() (stores, flushes, fences uint64) {
	return p.stores.Load(), p.flushes.Load(), p.fences.Load()
}

// PersistedEquals reports whether the persisted image of [addr, addr+n)
// equals the cache image, i.e. whether the range is fully durable.
func (p *Pool) PersistedEquals(addr Addr, n uint64) bool {
	p.check(addr, n)
	p.guard.RLock()
	m := p.lockSpan(addr, n)
	eq := true
	for i := addr; i < addr+n; i++ {
		if p.cache[i] != p.persisted[i] {
			eq = false
			break
		}
	}
	p.unlockSpan(m)
	p.guard.RUnlock()
	return eq
}

// PersistedLoad64 reads a word from the persisted image (what a crash would
// preserve), bypassing the cache. Tests and validators use it.
func (p *Pool) PersistedLoad64(addr Addr) uint64 {
	p.check(addr, 8)
	p.guard.RLock()
	m := p.lockSpan(addr, 8)
	v := le64(p.persisted[addr:])
	p.unlockSpan(m)
	p.guard.RUnlock()
	return v
}

// PersistedBytes copies n bytes starting at addr from the persisted image.
func (p *Pool) PersistedBytes(addr Addr, n uint64) []byte {
	p.check(addr, n)
	out := make([]byte, n)
	p.guard.RLock()
	m := p.lockSpan(addr, n)
	copy(out, p.persisted[addr:addr+n])
	p.unlockSpan(m)
	p.guard.RUnlock()
	return out
}

// DirtyWord is one word that is visible in the cache but not yet persisted,
// with both images' values: the PM-state diff a crash at this moment would
// expose. Forensic artifact bundles attach the dirty set at detection time.
type DirtyWord struct {
	Addr      Addr     `json:"addr"`
	Cache     uint64   `json:"cache"`
	Persisted uint64   `json:"persisted"`
	Writer    ThreadID `json:"writer"`
	Site      uint32   `json:"site"`
	Epoch     uint32   `json:"epoch"`
}

// DirtyWords returns the dirty words of the pool in address order, capped at
// max entries when max > 0. It takes the whole-pool guard exclusively so the
// returned diff is a consistent cut across all stripes.
func (p *Pool) DirtyWords(max int) []DirtyWord {
	p.guard.Lock()
	defer p.guard.Unlock()
	var out []DirtyWord
	for w := range p.meta {
		m := &p.meta[w]
		if !m.Dirty {
			continue
		}
		a := Addr(w) * WordSize
		out = append(out, DirtyWord{
			Addr:      a,
			Cache:     le64(p.cache[a:]),
			Persisted: le64(p.persisted[a:]),
			Writer:    m.Writer,
			Site:      m.Site,
			Epoch:     m.Epoch,
		})
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// DirtySetHash folds the pool's current dirty-line set (line addresses only)
// into one order-independent 64-bit value. The fuzzer uses it as the
// persistency-state half of an execution's outcome signature for
// interleaving-equivalence pruning. The granularity is deliberately the
// cache line, not the word: flush and fence semantics act on lines, and
// word-level hashing splits equivalence classes on noise — e.g. which slot
// of a hash bucket a racy insert happened to claim — that no crash state
// distinguishes. Only lines touched since the base snapshot are scanned:
// dirty words inherited from the checkpoint itself are identical for every
// execution of a seed, so omitting them cannot split or merge equivalence
// classes within that seed.
func (p *Pool) DirtySetHash() uint64 {
	p.guard.Lock()
	defer p.guard.Unlock()
	h := uint64(0)
	n := uint64(0)
	for wi := range p.touched {
		w := p.touched[wi].Load()
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			line := (Addr(wi)*64 + Addr(b)) * LineSize
			for word := line / WordSize; word < (line+LineSize)/WordSize; word++ {
				if p.meta[word].Dirty {
					h ^= mix64(uint64(line))
					n++
					break
				}
			}
		}
	}
	return h ^ mix64(n)
}

// mix64 is a splitmix64 finalizer used to spread dirty-word addresses before
// the order-independent XOR fold in DirtySetHash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
