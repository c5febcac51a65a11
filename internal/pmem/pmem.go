package pmem

import (
	"bytes"
	"fmt"
	"math/bits"
	"sync"
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
	// mu protects every field below except size and eadr, which never
	// change. Each method is one critical section.
	mu sync.Mutex

	size      uint64
	cache     []byte
	persisted []byte
	meta      []WordMeta
	shadow    []uint32 // taint label per word
	last      []Accessor

	pending map[ThreadID][]pendingLine
	// linePending counts, per cache line, how many pendingLine entries
	// reference the line. Store paths consult it to decide whether a
	// copy-on-write capture is needed; with no flush in flight the check is
	// the only overhead.
	linePending []uint32

	// touched is a bitmap with one bit per cache line, set when the line's
	// data, metadata, shadow labels or accessor records changed since the
	// last Restore. Checkpoint restore copies back only touched lines, so
	// its cost is proportional to the execution's dirty set instead of the
	// pool size.
	touched  []uint64
	baseSnap *Snapshot // snapshot the pool state is based on
	// imageID names the base image (zeroBase, a snapshot's id, or noBase)
	// that every untouched line holds in both data images, with fresh
	// metadata, labels and accessor records: the invariant that lets a
	// recovery pool be reset by rewriting only its touched lines. A pool
	// restored from a snapshot holds the snapshot's metadata instead, so
	// Restore sets noBase; crash states use baseSnap there.
	imageID uint64

	eadr bool
}

// Options configure pool construction.
type Options struct {
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
	size = roundSize(size)
	lines := size / LineSize
	p := &Pool{
		size:        size,
		cache:       make([]byte, size),
		persisted:   make([]byte, size),
		meta:        make([]WordMeta, size/WordSize),
		shadow:      make([]uint32, size/WordSize),
		last:        make([]Accessor, size/WordSize),
		pending:     make(map[ThreadID][]pendingLine),
		linePending: make([]uint32, lines),
		touched:     make([]uint64, (lines+63)/64),
		imageID:     zeroBase,
		eadr:        opt.EADR,
	}
	for i := range p.meta {
		p.meta[i].Writer = NoThread
	}
	return p
}

// roundSize is the pool size New allocates for a requested size: at least
// one line, rounded up to a multiple of the line size.
func roundSize(size uint64) uint64 {
	if size == 0 {
		return LineSize
	}
	if rem := size % LineSize; rem != 0 {
		size += LineSize - rem
	}
	return size
}

// EADR reports whether the pool models battery-backed (persistent) caches.
func (p *Pool) EADR() bool { return p.eadr }

// maxFreePerSize bounds the memory the free list keeps per size (8 pools
// of 256 KiB hold about 14 MB); it is a cap, not a measured working set.
// Each validating goroutine holds at most one recovery pool at a time, so
// the list grows to about the number of validating workers.
const maxFreePerSize = 8

// freePool is a released recovery pool and the id of the base image its
// untouched lines hold. The id, not the snapshot, is kept: a pointer would
// pin a finished campaign's snapshot for as long as the pool sat here.
type freePool struct {
	p       *Pool
	imageID uint64
}

// freePools holds released recovery pools keyed by size. A campaign server
// mixes targets whose pools differ in size (256 KiB pmwal next to 512 KiB
// pools), so one untyped free list would mostly hand out the wrong size.
var freePools = struct {
	mu     sync.Mutex
	bySize map[uint64][]freePool
}{bySize: make(map[uint64][]freePool)}

// takeFree removes a released pool of the given size from the free list,
// preferring the most recent one whose untouched lines hold base image id.
// It returns nil when the list has none of that size.
func takeFree(size, id uint64) *Pool {
	freePools.mu.Lock()
	defer freePools.mu.Unlock()
	free := freePools.bySize[size]
	n := len(free)
	if n == 0 {
		return nil
	}
	i := n - 1
	for j := n - 1; j >= 0; j-- {
		if free[j].imageID == id {
			i = j
			break
		}
	}
	p := free[i].p
	free[i] = free[n-1]
	free[n-1] = freePool{}
	freePools.bySize[size] = free[:n-1]
	return p
}

// FromImage creates a pool whose cache and persisted images both equal the
// given crash image, as if the file had been re-mapped after a restart. All
// words start clean with no writer and at store epoch 0, matching a freshly
// mapped file. The pool is a released one of the same rounded size when the
// free list has one (see Release): resetting it costs one copy of the image
// into each data image plus the lines its previous user touched, where a
// new pool allocates and zeroes about seven times the image size. Either way
// the result is indistinguishable from a new pool holding the image.
func FromImage(img []byte) *Pool {
	size := roundSize(uint64(len(img)))
	p := takeFree(size, noBase)
	if p == nil {
		p = New(size)
	}
	p.reset(img, noBase, nil)
	return p
}

// FromState is FromImage for a crash state: a pool holding the state's
// image, clean, with no writer and at store epoch 0. A released pool whose
// bytes already hold the state's base image is reset by rewriting only the
// lines its last user touched and the state's overlay lines; any other pool
// first takes one full copy of the base. The pool records the base's id, so
// the next state on the same base finds it.
func FromState(st CrashState) *Pool {
	id := baseID(st.base)
	p := takeFree(st.size, id)
	if p == nil {
		p = New(st.size)
	}
	var img []byte
	if st.base != nil {
		img = st.base.persisted
	}
	p.reset(img, id, st.lines)
	return p
}

// reset gives a new or released pool the state FromImage and FromState
// promise, in one critical section: both data images hold img (zero past
// its end; nil is the zero image) overlaid with lines, every word is fresh,
// and nothing is pending. Only the touched lines can hold metadata, labels,
// accessor records or bytes other than the pool's base image (every writer
// marks its line), so when id names that base only they are rewritten;
// otherwise both data images are overwritten in full. The overlay lines are
// marked touched, so the next reset rewrites them too.
func (p *Pool) reset(img []byte, id uint64, lines []stateLine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sameBase := id != noBase && id == p.imageID
	if !sameBase {
		fill(p.cache, img)
		fill(p.persisted, img)
	}
	p.eachTouchedLine(func(line Addr) {
		end := line + LineSize
		if sameBase {
			var src []byte
			if img != nil {
				src = img[line:end]
			}
			fill(p.cache[line:end], src)
			fill(p.persisted[line:end], src)
		}
		wFirst, wEnd := line/WordSize, end/WordSize
		for i := wFirst; i < wEnd; i++ {
			p.meta[i] = WordMeta{Writer: NoThread}
		}
		clear(p.shadow[wFirst:wEnd])
		clear(p.last[wFirst:wEnd])
	})
	clear(p.touched)
	p.clearPending()
	for i := range lines {
		off := lines[i].off
		copy(p.cache[off:off+LineSize], lines[i].data[:])
		copy(p.persisted[off:off+LineSize], lines[i].data[:])
		p.markTouched(off, LineSize)
	}
	p.imageID = id
}

// fill copies src into dst and zeroes the rest of dst.
func fill(dst, src []byte) {
	n := copy(dst, src)
	clear(dst[n:])
}

// Release hands a pool from FromImage or FromState back for reuse by a
// later one. The caller must not touch the pool, or anything still holding
// it (an rt.Env), afterwards. Release does nothing for an eADR pool or one
// based on a snapshot: FromImage and FromState never build those, and
// checkpoint pools go back to their executor's free list. A pool must be
// released at most once; a pool that is never released is simply not
// reused.
func (p *Pool) Release() {
	p.mu.Lock()
	skip := p.eadr || p.baseSnap != nil
	id := p.imageID
	p.mu.Unlock()
	if skip {
		return
	}
	freePools.mu.Lock()
	defer freePools.mu.Unlock()
	if free := freePools.bySize[p.size]; len(free) < maxFreePerSize {
		freePools.bySize[p.size] = append(free, freePool{p: p, imageID: id})
	}
}

// Size returns the pool size in bytes.
func (p *Pool) Size() uint64 { return p.size }

func (p *Pool) check(addr Addr, n uint64) {
	if addr+n > p.size || addr+n < addr {
		panic(fmt.Sprintf("pmem: access [%#x,%#x) out of pool bounds %#x", addr, addr+n, p.size))
	}
}

func lineOf(addr Addr) Addr { return addr &^ (LineSize - 1) }

// eachTouchedLine calls fn with the offset of every line set in the touched
// bitmap, in address order. The caller holds mu.
func (p *Pool) eachTouchedLine(fn func(line Addr)) {
	for wi, w := range p.touched {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			fn((Addr(wi)*64 + Addr(b)) * LineSize)
		}
	}
}

// clearPending drops every staged flush, keeping the map and its per-thread
// slices for reuse. The caller holds mu.
func (p *Pool) clearPending() {
	for t, entries := range p.pending {
		for i := range entries {
			p.linePending[entries[i].line/LineSize] = 0
			entries[i].cap = nil
		}
		p.pending[t] = entries[:0]
	}
}

// markTouched records that the lines covering [addr, addr+n) diverged from
// the base snapshot. The caller holds mu.
func (p *Pool) markTouched(addr Addr, n uint64) {
	if n == 0 {
		return
	}
	for l := addr / LineSize; l <= (addr+n-1)/LineSize; l++ {
		p.touched[l/64] |= 1 << (l % 64)
	}
}

// --- loads ---

// Load64 reads an 8-byte little-endian word from the cache image.
func (p *Pool) Load64(addr Addr) uint64 {
	p.check(addr, 8)
	p.mu.Lock()
	defer p.mu.Unlock()
	return le64(p.cache[addr:])
}

// LoadBytes copies n bytes starting at addr from the cache image.
func (p *Pool) LoadBytes(addr Addr, n uint64) []byte {
	p.check(addr, n)
	out := make([]byte, n)
	p.mu.Lock()
	defer p.mu.Unlock()
	copy(out, p.cache[addr:addr+n])
	return out
}

// --- stores ---

// Store64 writes an 8-byte word to the cache image and marks the containing
// words dirty on behalf of thread t at instruction site.
func (p *Pool) Store64(t ThreadID, site uint32, addr Addr, val uint64) {
	p.check(addr, 8)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.capturePending(addr, 8)
	putLE64(p.cache[addr:], val)
	p.markStored(t, site, addr, 8)
}

// StoreBytes writes data to the cache image and marks the covered words
// dirty. An empty store touches nothing.
func (p *Pool) StoreBytes(t ThreadID, site uint32, addr Addr, data []byte) {
	n := uint64(len(data))
	p.check(addr, n)
	if n == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.capturePending(addr, n)
	copy(p.cache[addr:], data)
	p.markStored(t, site, addr, n)
}

// NTStore64 performs a non-temporal store: the write bypasses the cache
// hierarchy and is considered persisted immediately (PM_CLEAN per the paper's
// checker semantics). The value still becomes visible in the cache image.
func (p *Pool) NTStore64(t ThreadID, site uint32, addr Addr, val uint64) {
	p.check(addr, 8)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.capturePending(addr, 8)
	putLE64(p.cache[addr:], val)
	putLE64(p.persisted[addr:], val)
	p.markNT(t, site, addr, 8)
}

// NTStoreBytes performs a non-temporal store of a byte range. An empty
// store touches nothing.
func (p *Pool) NTStoreBytes(t ThreadID, site uint32, addr Addr, data []byte) {
	n := uint64(len(data))
	p.check(addr, n)
	if n == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.capturePending(addr, n)
	copy(p.cache[addr:], data)
	copy(p.persisted[addr:], data)
	p.markNT(t, site, addr, n)
}

// CAS64 performs an atomic compare-and-swap on a word, returning whether the
// swap happened and the value observed. A successful CAS is a store (the
// word becomes dirty); a failed CAS is only a load.
func (p *Pool) CAS64(t ThreadID, site uint32, addr Addr, old, new uint64) (bool, uint64) {
	p.check(addr, 8)
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := le64(p.cache[addr:])
	ok := cur == old
	if ok {
		p.capturePending(addr, 8)
		putLE64(p.cache[addr:], new)
		p.markStored(t, site, addr, 8)
	}
	return ok, cur
}

// Flush simulates CLWB over the cache lines covering [addr, addr+n): each
// line is staged on thread t and will reach the persistence domain at t's
// next Fence. Words stored after the flush but before the fence keep their
// dirty state (their epoch advanced). Flush itself copies no data — it raises
// the lines' pending counters and appends entries; the flush-time contents
// are materialized lazily (capturePending) only if a store hits the line
// before the fence.
func (p *Pool) Flush(t ThreadID, addr Addr, n uint64) {
	p.check(addr, n)
	p.mu.Lock()
	defer p.mu.Unlock()
	entries := p.pending[t]
	for line := lineOf(addr); line < addr+n; line += LineSize {
		p.linePending[line/LineSize]++
		entries = append(entries, pendingLine{line: line})
	}
	p.pending[t] = entries
}

// capturePending materializes the flush-time view of every uncaptured pending
// entry covering [addr, addr+n). Store paths call it, holding mu, before
// mutating the cache, so the copied data is the pre-store state the flushes
// observed.
func (p *Pool) capturePending(addr Addr, n uint64) {
	if n == 0 {
		return
	}
	for l := addr / LineSize; l <= (addr+n-1)/LineSize; l++ {
		if p.linePending[l] == 0 {
			continue
		}
		line := l * LineSize
		var view *lineCapture
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
	}
}

// Fence simulates SFENCE on thread t: every line staged by t's previous
// flushes is committed to the persisted image, and each word whose epoch is
// unchanged since the flush becomes clean. Captured entries commit their
// materialized flush-time view; uncaptured entries commit the current line
// directly — by the pendingLine invariant the two are identical, so lazy
// capture preserves exact eager-copy semantics.
func (p *Pool) Fence(t ThreadID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	entries := p.pending[t]
	for _, e := range entries {
		line := e.line
		if view := e.cap; view != nil {
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
		p.linePending[line/LineSize]--
		p.markTouched(line, LineSize)
	}
	if len(entries) > 0 {
		p.pending[t] = entries[:0]
	}
}

// PersistNow force-persists a byte range, marking its words clean. It models
// flush immediately followed by fence and is used by recovery code and tests.
func (p *Pool) PersistNow(t ThreadID, addr Addr, n uint64) {
	p.check(addr, n)
	p.mu.Lock()
	defer p.mu.Unlock()
	for line := lineOf(addr); line < addr+n; line += LineSize {
		copy(p.persisted[line:line+LineSize], p.cache[line:line+LineSize])
		for w := 0; w < LineSize/WordSize; w++ {
			mw := &p.meta[(line+Addr(w*WordSize))/WordSize]
			mw.Dirty = false
			mw.CleanEpoch = mw.Epoch
		}
		p.markTouched(line, LineSize)
	}
}

// markStored marks the words covering a store dirty. The caller holds mu.
func (p *Pool) markStored(t ThreadID, site uint32, addr Addr, n uint64) {
	if p.eadr {
		// Persistent caches: every store is durable at visibility.
		from, to := addr&^(WordSize-1), ((addr+n-1)|(WordSize-1))+1
		copy(p.persisted[from:to], p.cache[from:to])
		p.markNT(t, site, addr, n)
		return
	}
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

// WordState returns the persistency state of the word containing addr.
func (p *Pool) WordState(addr Addr) WordMeta {
	p.check(addr, 1)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.meta[addr/WordSize]
}

// ShadowLabel returns the taint label stored for the word containing addr.
func (p *Pool) ShadowLabel(addr Addr) uint32 {
	p.check(addr, 1)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.shadow[addr/WordSize]
}

// SetShadowLabel stores a taint label for every word covering [addr, addr+n).
func (p *Pool) SetShadowLabel(addr Addr, n uint64, label uint32) {
	p.check(addr, n)
	p.mu.Lock()
	defer p.mu.Unlock()
	for wi := addr / WordSize; wi <= (addr+n-1)/WordSize; wi++ {
		p.shadow[wi] = label
	}
	p.markTouched(addr, n)
}

// ShadowLabelRange returns the shadow labels of all words covering the range,
// deduplicated, excluding zero.
func (p *Pool) ShadowLabelRange(addr Addr, n uint64) []uint32 {
	p.check(addr, n)
	p.mu.Lock()
	defer p.mu.Unlock()
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
	return out
}

// SwapAccessor atomically replaces the last-accessor record of the word
// containing addr and returns the previous record. The runtime uses it to
// form PM alias pairs.
func (p *Pool) SwapAccessor(addr Addr, a Accessor) Accessor {
	p.check(addr, 1)
	p.mu.Lock()
	defer p.mu.Unlock()
	wi := addr / WordSize
	prev := p.last[wi]
	p.last[wi] = a
	// Accessor records are cleared by Restore, so the line counts as
	// diverged from the checkpoint even without a data write.
	p.markTouched(addr, 1)
	return prev
}

// --- fused instrumented accessors ---
//
// One instrumented PM access needs several pieces of pool state: the value,
// the word's persistency metadata, its shadow taint label, the last-accessor
// swap for alias-pair coverage, and (for stores) the dirty marking and label
// update. Composing those from the fine-grained primitives above costs one
// lock round trip per piece; the Instr* variants perform the whole per-access
// protocol in a single critical section. The fine-grained primitives remain
// for tests, validators and recovery code.

// InstrLoad64 performs the instrumented-load protocol on the word containing
// addr: read the 8-byte value, the word's metadata and shadow label, and
// record thread t at the given site as the word's last accessor (tagged with
// the observed persistency state). The previous accessor is returned for
// alias-pair coverage.
func (p *Pool) InstrLoad64(t ThreadID, site uint32, addr Addr) (val uint64, meta WordMeta, shadow uint32, prev Accessor) {
	p.check(addr, 8)
	p.mu.Lock()
	defer p.mu.Unlock()
	wi := addr / WordSize
	val = le64(p.cache[addr:])
	meta = p.meta[wi]
	shadow = p.shadow[wi]
	prev = p.last[wi]
	p.last[wi] = Accessor{Site: site, Thread: t, Dirty: meta.Dirty, Valid: true}
	p.markTouched(addr, 1)
	return
}

// InstrLoadBytes is the byte-range load protocol: copy the range, find the
// first dirty word (if any), collect the deduplicated non-zero shadow labels
// and swap the first word's accessor, all atomically.
func (p *Pool) InstrLoadBytes(t ThreadID, site uint32, addr Addr, n uint64) (out []byte, meta WordMeta, waddr Addr, dirty bool, labels []uint32, prev Accessor) {
	p.check(addr, n)
	out = make([]byte, n)
	p.mu.Lock()
	defer p.mu.Unlock()
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
	return
}

// InstrStore64 performs the instrumented-store protocol: read the previous
// value, write the new one, mark the covered words dirty, replace their
// shadow label and record the access as last accessor, in one critical
// section. It returns the overwritten value and the previous accessor.
func (p *Pool) InstrStore64(t ThreadID, site uint32, addr Addr, val uint64, label uint32) (old uint64, prev Accessor) {
	p.check(addr, 8)
	p.mu.Lock()
	defer p.mu.Unlock()
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
	return
}

// InstrStoreBytes is the byte-range store protocol. An empty store touches
// nothing and returns the zero Accessor.
func (p *Pool) InstrStoreBytes(t ThreadID, site uint32, addr Addr, data []byte, label uint32) (prev Accessor) {
	n := uint64(len(data))
	p.check(addr, n)
	if n == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.capturePending(addr, n)
	copy(p.cache[addr:], data)
	p.markStored(t, site, addr, n)
	for wi := addr / WordSize; wi <= (addr+n-1)/WordSize; wi++ {
		p.shadow[wi] = label
	}
	wi := addr / WordSize
	prev = p.last[wi]
	p.last[wi] = Accessor{Site: site, Thread: t, Dirty: true, Valid: true}
	return
}

// InstrNTStore64 is the non-temporal store protocol: the write reaches the
// persisted image immediately and the words end clean.
func (p *Pool) InstrNTStore64(t ThreadID, site uint32, addr Addr, val uint64, label uint32) (old uint64, prev Accessor) {
	p.check(addr, 8)
	p.mu.Lock()
	defer p.mu.Unlock()
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
	return
}

// InstrNTStoreBytes is the byte-range non-temporal store protocol. An empty
// store touches nothing and returns the zero Accessor.
func (p *Pool) InstrNTStoreBytes(t ThreadID, site uint32, addr Addr, data []byte, label uint32) (prev Accessor) {
	n := uint64(len(data))
	p.check(addr, n)
	if n == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
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
	return
}

// InstrCAS64 is the compare-and-swap protocol: the pre-CAS metadata, shadow
// label and accessor swap plus the CAS itself in one critical section. On
// success the covered words' shadow label is replaced; a failed CAS has load
// semantics and leaves data, metadata and labels untouched.
func (p *Pool) InstrCAS64(t ThreadID, site uint32, addr Addr, old, new uint64, label uint32) (ok bool, observed uint64, meta WordMeta, shadow uint32, prev Accessor) {
	p.check(addr, 8)
	p.mu.Lock()
	defer p.mu.Unlock()
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
	return
}

// EpochAt returns the store epoch of the word containing addr.
func (p *Pool) EpochAt(addr Addr) uint32 {
	p.check(addr, 1)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.meta[addr/WordSize].Epoch
}

// Overwritten reports whether every word of r has a store epoch above zero.
// On a pool from FromImage, whose words start at epoch 0, that means a
// store reached each word since the image was mapped: post-failure
// validation asks it to learn whether recovery overwrote a durable side
// effect. A failed CAS stores nothing; an empty range reports true.
func (p *Pool) Overwritten(r Range) bool {
	p.check(r.Off, r.Len)
	if r.Len == 0 {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for wi := r.Off / WordSize; wi <= (r.End()-1)/WordSize; wi++ {
		if p.meta[wi].Epoch == 0 {
			return false
		}
	}
	return true
}

// PersistedEquals reports whether the persisted image of [addr, addr+n)
// equals the cache image, i.e. whether the range is fully durable.
func (p *Pool) PersistedEquals(addr Addr, n uint64) bool {
	p.check(addr, n)
	p.mu.Lock()
	defer p.mu.Unlock()
	return bytes.Equal(p.cache[addr:addr+n], p.persisted[addr:addr+n])
}

// PersistedLoad64 reads a word from the persisted image (what a crash would
// preserve), bypassing the cache. Tests and validators use it.
func (p *Pool) PersistedLoad64(addr Addr) uint64 {
	p.check(addr, 8)
	p.mu.Lock()
	defer p.mu.Unlock()
	return le64(p.persisted[addr:])
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
// max entries when max > 0. Only the touched lines can have changed a word's
// state since the base snapshot, so it scans those and takes the rest from
// the snapshot's own dirty list: the cost follows the execution's touched
// set, not the pool size.
func (p *Pool) DirtyWords(max int) []DirtyWord {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []DirtyWord
	var inherited []Addr // dirty words on untouched lines are the snapshot's
	if p.baseSnap != nil {
		inherited = p.baseSnap.dirty
	}
	add := func(a Addr) {
		if max > 0 && len(out) >= max {
			return
		}
		m := &p.meta[a/WordSize]
		out = append(out, DirtyWord{
			Addr:      a,
			Cache:     le64(p.cache[a:]),
			Persisted: le64(p.persisted[a:]),
			Writer:    m.Writer,
			Site:      m.Site,
			Epoch:     m.Epoch,
		})
	}
	p.eachTouchedLine(func(line Addr) {
		// Inherited words below this line lie on untouched lines: every
		// earlier touched line dropped its own.
		for ; len(inherited) > 0 && inherited[0] < line; inherited = inherited[1:] {
			add(inherited[0])
		}
		for a := line; a < line+LineSize; a += WordSize {
			if p.meta[a/WordSize].Dirty {
				add(a)
			}
		}
		for len(inherited) > 0 && inherited[0] < line+LineSize {
			inherited = inherited[1:]
		}
	})
	for _, a := range inherited {
		add(a)
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
	p.mu.Lock()
	defer p.mu.Unlock()
	h := uint64(0)
	n := uint64(0)
	p.eachTouchedLine(func(line Addr) {
		for word := line / WordSize; word < (line+LineSize)/WordSize; word++ {
			if p.meta[word].Dirty {
				h ^= mix64(uint64(line))
				n++
				return
			}
		}
	})
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
