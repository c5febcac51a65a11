// Package memcached reimplements memcached-pmem (Lenovo's persistent-slab
// port of memcached) as evaluated by the paper, seeded with the six
// inter-thread bugs PMRace reported in it (paper Table 2, Bugs 9-14):
//
//	Bug 9/10: append/prepend read the existing item's value bytes and
//	  length while another thread's set has not flushed them, and durably
//	  write a value derived from them — inconsistent data.
//	Bug 11: tail eviction walks the LRU through an unflushed "prev" field
//	  and frees (rewrites "slabs_clsid" of) the chunk it points at —
//	  inconsistent index.
//	Bug 12: the same walk follows an unflushed "next" field and updates
//	  that item's "it_flags" — inconsistent index.
//	Bug 13: set-on-existing-key reads the old item's unflushed "it_flags"
//	  and overwrites the value in place — inconsistent data.
//	Bug 14: freeing a chunk derives its "slabs_clsid" marker from the
//	  page-leader chunk's possibly unflushed "slabs_clsid" — inconsistent
//	  index.
//
// Items live in persistent slab pages; the hash index and LRU lists are
// volatile and rebuilt from the slabs on restart. The rebuild rewrites every
// item's prev/next fields, which is why most detected inter-thread
// inconsistencies validate as false positives (§4.4 — the paper filters 62
// of them), while side effects on slabs_clsid, it_flags and value bytes
// survive and are true bugs. Values carry a checksum; recovery discards
// items whose checksum mismatches, and the checksum computation itself is a
// crash-consistent read of possibly dirty data covered by the whitelist.
//
// Unlike the four index targets, the store maps its pool with the raw
// libpmem-style interface (no object-pool formatting) — the reason the
// paper's Figure 10 recommends disabling in-memory checkpoints for it.
package memcached

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/taint"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/workload"
)

func init() {
	targets.Register("memcached", func() targets.Target { return New() })
}

const (
	magic    = 0x6d656d632d706d00 // "memc-pm"
	pageSize = 4096
	// pagesBase is where slab pages start; the tiny header mimics
	// pmem_map_file over a raw file (cheap initialization).
	pagesBase = 64

	// Item header layout within a chunk.
	itNext  = 0
	itPrev  = 8
	itClsid = 16
	itFlags = 24
	itNKey  = 32
	itNBy   = 40
	itCksum = 48
	itKeyFP = 56
	itKey   = 64  // up to 64 key bytes
	itValue = 128 // value bytes up to chunk end

	flagLinked  = 1
	flagFetched = 2
	freeBit     = 0x100 // ORed into slabs_clsid when the chunk is free

	// perClassCap bounds live items per slab class; beyond it the LRU
	// tail is evicted (memcached's -m memory limit, scaled down so
	// evictions actually happen under fuzzing workloads).
	perClassCap = 12
)

// chunk classes: total chunk sizes (header+key+value).
var classSizes = [...]uint64{256, 512, 1024, 2048}

// KV is one memcached-pmem instance. The persistent state is the slab
// pages; everything else (index, LRU, free lists) is volatile and rebuilt by
// Recover.
type KV struct {
	mu    sync.Mutex // the cache_lock, taken through t.LockMutex (Live excepted)
	index map[uint64]pmem.Addr
	lru   [len(classSizes)]struct{ head, tail pmem.Addr }
	live  [len(classSizes)]int
	free  [len(classSizes)][]pmem.Addr

	cmdMu sync.Mutex
	cmds  map[string]int
}

// New creates an unopened instance.
func New() *KV {
	return &KV{index: make(map[uint64]pmem.Addr), cmds: make(map[string]int)}
}

// Name implements targets.Target.
func (kv *KV) Name() string { return "memcached" }

// PoolSize implements targets.Target.
func (kv *KV) PoolSize() uint64 { return 512 << 10 }

// Annotations implements targets.Target (paper Table 3: none for
// memcached-pmem — its locks are volatile mutexes).
func (kv *KV) Annotations() int { return 0 }

// Whitelist returns the benign patterns: checksum computation reads possibly
// dirty value bytes but the result is crash-consistent by construction
// (paper §4.4: the default whitelist covers "checksum-based crash-consistent
// operations in memcached-pmem").
func (kv *KV) Whitelist() []string { return []string{"memcached.(*KV).checksum"} }

// Setup implements targets.Target: a raw libpmem-style mapping — write the
// magic and the page bump pointer, nothing else (no expensive pool
// formatting).
func (kv *KV) Setup(t *rt.Thread) error {
	t.NTStore64(0, magic, taint.None, taint.None)
	t.NTStore64(8, pagesBase, taint.None, taint.None) // page bump pointer
	t.Fence()
	return nil
}

// CmdCounts returns how many commands of each Table 4 class were parsed.
func (kv *KV) CmdCounts() map[string]int {
	kv.cmdMu.Lock() //pmvet:ignore missing-hook -- statistics read with no thread after the workload
	defer kv.cmdMu.Unlock()
	out := make(map[string]int, len(kv.cmds))
	for k, v := range kv.cmds {
		out[k] = v
	}
	return out
}

func (kv *KV) countCmd(class string) {
	kv.cmdMu.Lock() //pmvet:ignore missing-hook -- guards a parse counter only, never held across a PM access
	kv.cmds[class]++
	kv.cmdMu.Unlock()
}

// ExecLine parses one protocol line like process_command() and dispatches
// it; unparseable lines are counted in the "Error" class and rejected.
func (kv *KV) ExecLine(t *rt.Thread, line string) error {
	t.Branch()
	op := workload.ParseOp(line)
	return kv.dispatch(t, op)
}

// Exec implements targets.Target.
func (kv *KV) Exec(t *rt.Thread, op workload.Op) error {
	return kv.dispatch(t, op)
}

func (kv *KV) dispatch(t *rt.Thread, op workload.Op) error {
	kv.countCmd(op.Kind.Class())
	switch op.Kind {
	case workload.OpGet, workload.OpBGet:
		t.Branch()
		kv.Get(t, op.Key)
	case workload.OpSet:
		t.Branch()
		return kv.Set(t, op.Key, []byte(op.Value))
	case workload.OpAdd:
		t.Branch()
		if _, ok := kv.Get(t, op.Key); ok {
			return nil // NOT_STORED
		}
		return kv.Set(t, op.Key, []byte(op.Value))
	case workload.OpReplace:
		t.Branch()
		if _, ok := kv.Get(t, op.Key); !ok {
			return nil // NOT_STORED
		}
		return kv.Set(t, op.Key, []byte(op.Value))
	case workload.OpAppend:
		t.Branch()
		return kv.Concat(t, op.Key, []byte(op.Value), true)
	case workload.OpPrepend:
		t.Branch()
		return kv.Concat(t, op.Key, []byte(op.Value), false)
	case workload.OpIncr:
		t.Branch()
		return kv.Arith(t, op.Key, op.Value, true)
	case workload.OpDecr:
		t.Branch()
		return kv.Arith(t, op.Key, op.Value, false)
	case workload.OpDelete:
		t.Branch()
		kv.Delete(t, op.Key)
	case workload.OpFlushAll:
		t.Branch()
		kv.FlushAll(t)
	default:
		t.Branch() // error-handling path
		return fmt.Errorf("memcached: ERROR %q", op.Raw)
	}
	return nil
}

// chunkInBounds reports whether an offset loaded from PM can be a chunk
// address (zero counts as the nil sentinel). Pointers read from PM may be
// arbitrary bytes after a torn or raced write; dereferencing them would
// escape the pool.
func chunkInBounds(t *rt.Thread, off pmem.Addr) bool {
	return off == 0 || (off >= pagesBase && off+itValue <= t.Env().Pool().Size())
}

// fitsChunk reports whether a value of the given length fits inside the
// item's own chunk; in-place rewrites beyond the chunk would smash the
// neighbouring item's header.
func fitsChunk(t *rt.Thread, item pmem.Addr, valLen int) bool {
	clsid, _ := t.Load64(item + itClsid)
	cls := int(clsid&0xff) - 1
	if cls < 0 || cls >= len(classSizes) {
		return false
	}
	return uint64(itValue+valLen) <= classSizes[cls]
}

// classFor picks the smallest class fitting a value.
func classFor(valLen int) (int, bool) {
	need := uint64(itValue + valLen)
	for c, size := range classSizes {
		if need <= size {
			return c, true
		}
	}
	return 0, false
}

func pageLeader(off pmem.Addr) pmem.Addr {
	return (off-pagesBase)/pageSize*pageSize + pagesBase
}

// allocChunk returns a free chunk of the class, carving a new page or
// evicting the class LRU tail when needed. Caller holds kv.mu.
func (kv *KV) allocChunk(t *rt.Thread, cls int) (pmem.Addr, error) {
	// Enforce the memory cap first: evicting the LRU tail both frees a
	// chunk and keeps the class within budget.
	if kv.live[cls] >= perClassCap {
		kv.evictTail(t, cls)
	}
	if n := len(kv.free[cls]); n > 0 {
		c := kv.free[cls][n-1]
		kv.free[cls] = kv.free[cls][:n-1]
		return c, nil
	}
	// Carve a new page.
	t.Branch()
	bump, bumpLab := t.Load64(8)
	if bump+pageSize > t.Env().Pool().Size() {
		// Out of pages: force an eviction and retry once.
		kv.evictTail(t, cls)
		if n := len(kv.free[cls]); n > 0 {
			c := kv.free[cls][n-1]
			kv.free[cls] = kv.free[cls][:n-1]
			return c, nil
		}
		return 0, errors.New("memcached: SERVER_ERROR out of memory")
	}
	t.NTStore64(8, bump+pageSize, bumpLab, taint.None)
	size := classSizes[cls]
	for c := bump; c+size <= bump+pageSize; c += size {
		//pmvet:ignore unflushed-store -- Persist(bump, pageSize) below covers every chunk header in the page
		t.Store64(c+itClsid, uint64(cls+1)|freeBit, taint.None, bumpLab)
		kv.free[cls] = append(kv.free[cls], c)
	}
	t.Persist(bump, pageSize)
	// Pop one.
	n := len(kv.free[cls])
	c := kv.free[cls][n-1]
	kv.free[cls] = kv.free[cls][:n-1]
	return c, nil
}

// checksum sums the key and value bytes of an item. The reads may observe
// non-persisted data from other threads, but a mismatching checksum is
// discarded during recovery, so the pattern is crash-consistent
// (whitelisted).
func (kv *KV) checksum(t *rt.Thread, item pmem.Addr, nkey, nbytes uint64) (uint64, taint.Label) {
	kb, klab := t.LoadBytes(item+itKey, nkey)
	vb, vlab := t.LoadBytes(item+itValue, nbytes)
	sum := uint64(0)
	for _, b := range kb {
		sum = sum*131 + uint64(b)
	}
	for _, b := range vb {
		sum = sum*131 + uint64(b)
	}
	return sum, t.Env().Labels().Union(klab, vlab)
}

// Set stores a key/value pair.
func (kv *KV) Set(t *rt.Thread, key string, val []byte) error {
	t.Branch()
	if len(key) > 64 {
		return errors.New("memcached: CLIENT_ERROR key too long")
	}
	cls, ok := classFor(len(val))
	if !ok {
		return errors.New("memcached: SERVER_ERROR object too large")
	}
	kf := targets.Fingerprint(key)

	t.LockMutex(&kv.mu)
	old, exists := kv.index[kf]
	t.UnlockMutex(&kv.mu)
	if exists {
		t.Branch()
		// BUG 13 (read side): the old item's it_flags may be another
		// thread's unflushed write — the lookup dropped the cache lock
		// (memcached's item refcount pattern), so the read races with
		// in-flight linking. The in-place value overwrite is a durable
		// side effect based on it (memcached.c:2824 analogue reading
		// items.c:1096's store).
		flags, flab := t.Load64(old + itFlags)
		if flags&flagLinked != 0 && fitsChunk(t, old, len(val)) {
			nb := uint64(len(val))
			t.StoreBytes(old+itValue, val, flab, taint.None)
			t.Store64(old+itNBy, nb, flab, taint.None)
			sum, slab := kv.checksum(t, old, uint64(len(key)), nb)
			t.Store64(old+itCksum, sum, slab, taint.None)
			// Flush after the stores (the lag that exposes the
			// value to other threads while dirty).
			t.Persist(old, itValue+nb)
			return nil
		}
	}
	t.LockMutex(&kv.mu)
	item, err := kv.allocChunk(t, cls)
	if err != nil {
		t.UnlockMutex(&kv.mu)
		return err
	}
	t.Branch()
	kv.live[cls]++
	// Write the item. The value and header writes are regular stores; the
	// flush happens after the cache lock is released — the dirty window
	// behind Bugs 9, 10 and 13 (write sites: value bytes and nbytes, the
	// memcached.c:4292/4293 analogues).
	t.StoreBytes(item+itKey, []byte(key), taint.None, taint.None)
	t.StoreBytes(item+itValue, val, taint.None, taint.None)         // Bug 9 write site
	t.Store64(item+itNBy, uint64(len(val)), taint.None, taint.None) // Bug 10 write site
	t.Store64(item+itNKey, uint64(len(key)), taint.None, taint.None)
	t.Store64(item+itKeyFP, kf, taint.None, taint.None)
	sum, slab := kv.checksum(t, item, uint64(len(key)), uint64(len(val)))
	t.Store64(item+itCksum, sum, slab, taint.None)
	t.Store64(item+itClsid, uint64(cls+1), taint.None, taint.None)
	t.Store64(item+itFlags, flagLinked, taint.None, taint.None) // Bug 13 write site (items.c:1096)
	kv.linkHead(t, cls, item)
	kv.index[kf] = item
	t.UnlockMutex(&kv.mu)
	t.Persist(item, classSizes[cls])
	return nil
}

// linkHead pushes an item at the LRU head; prev/next live in PM but are
// deliberately not flushed — they are rebuilt on recovery (the write sites
// of the validated false positives, items.c:423 / slabs.c:549 analogues).
// Caller holds kv.mu.
func (kv *KV) linkHead(t *rt.Thread, cls int, item pmem.Addr) {
	head := kv.lru[cls].head
	t.Store64(item+itNext, head, taint.None, taint.None) //pmvet:ignore unflushed-store -- LRU link, rebuilt on recovery
	t.Store64(item+itPrev, 0, taint.None, taint.None)    //pmvet:ignore unflushed-store -- LRU link, rebuilt on recovery
	if head != 0 {
		//pmvet:ignore unflushed-store -- Bug 11 write site (items.c:423); LRU links are rebuilt on recovery
		t.Store64(head+itPrev, item, taint.None, taint.None)
	}
	kv.lru[cls].head = item
	if kv.lru[cls].tail == 0 {
		kv.lru[cls].tail = item
	}
}

// evictTail frees the class's LRU tail. This path carries Bugs 11, 12 and
// 14. Caller holds kv.mu.
func (kv *KV) evictTail(t *rt.Thread, cls int) {
	t.Branch()
	tail := kv.lru[cls].tail
	if tail == 0 {
		return
	}
	// BUG 11 (read side, items.c:464): the tail's prev may be unflushed;
	// the free of the chunk it designates durably rewrites that chunk's
	// slabs_clsid through the dirty pointer.
	prev, prlab := t.Load64(tail + itPrev)
	// BUG 12 (read side, slabs.c:412): following the unflushed next and
	// durably updating that item's it_flags.
	next, nxlab := t.Load64(tail + itNext)
	if !chunkInBounds(t, prev) {
		prev = 0
	}
	if !chunkInBounds(t, next) {
		next = 0
	}
	if next != 0 {
		flags, flab := t.Load64(next + itFlags)
		t.Store64(next+itFlags, flags|flagFetched, flab, nxlab) // slabs.c:549-ish side effect
		t.Persist(next+itFlags, 8)
	}
	kv.unlinkLocked(t, cls, tail)
	kv.freeChunk(t, cls, tail, prlab)
	if prev != 0 && prev != tail {
		// BUG 11 side effect: mark the prev-designated chunk's class
		// id through the dirty pointer (the slab accounting write).
		c, clab := t.Load64(prev + itClsid)
		t.Store64(prev+itClsid, c, clab, prlab)
		t.Persist(prev+itClsid, 8)
	}
}

// unlinkLocked removes an item from its LRU list and the index, rewriting
// neighbours' prev/next (rebuilt on recovery — FP-class side effects).
// Caller holds kv.mu.
func (kv *KV) unlinkLocked(t *rt.Thread, cls int, item pmem.Addr) {
	prev, prlab := t.Load64(item + itPrev)
	next, nxlab := t.Load64(item + itNext)
	if !chunkInBounds(t, prev) {
		prev = 0
	}
	if !chunkInBounds(t, next) {
		next = 0
	}
	if prev != 0 {
		t.Store64(prev+itNext, next, nxlab, prlab) //pmvet:ignore unflushed-store -- LRU link, rebuilt on recovery
	} else {
		kv.lru[cls].head = next
	}
	if next != 0 {
		t.Store64(next+itPrev, prev, prlab, nxlab) //pmvet:ignore unflushed-store -- LRU link, rebuilt on recovery
	} else {
		kv.lru[cls].tail = prev
	}
	kf, _ := t.Load64(item + itKeyFP)
	if kv.index[kf] == item {
		delete(kv.index, kf)
	}
	flags, flab := t.Load64(item + itFlags)
	//pmvet:ignore unflushed-store -- deliberate: an unflushed unlink marker is revalidated by the recovery checksum
	t.Store64(item+itFlags, flags&^flagLinked, flab, taint.None)
	kv.live[cls]--
}

// freeChunk returns a chunk to the class free list. BUG 14 (items.c:627
// reading items.c:623): the free marker's class id is derived from the page
// leader's possibly unflushed slabs_clsid.
func (kv *KV) freeChunk(t *rt.Thread, cls int, item pmem.Addr, extra taint.Label) {
	leader := pageLeader(item)
	lc, lclab := t.Load64(leader + itClsid) // may be another thread's dirty write
	lab := t.Env().Labels().Union(lclab, extra)
	if item != leader {
		t.Store64(item+itClsid, (lc&0xff)|freeBit, lab, taint.None)
	} else {
		t.Store64(item+itClsid, uint64(cls+1)|freeBit, taint.None, taint.None)
	}
	t.Persist(item+itClsid, 8)
	kv.free[cls] = append(kv.free[cls], item)
}

// FlushAll drops every stored item — the protocol front-end's flush_all
// (immediate form; the delay argument is not modelled). It walks the index
// in address order so replays of the same seed produce identical PM access
// sequences.
func (kv *KV) FlushAll(t *rt.Thread) {
	t.Branch()
	t.LockMutex(&kv.mu)
	defer t.UnlockMutex(&kv.mu)
	items := make([]pmem.Addr, 0, len(kv.index))
	for _, it := range kv.index {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	for _, item := range items {
		clsid, _ := t.Load64(item + itClsid)
		cls := int(clsid&0xff) - 1
		if cls < 0 || cls >= len(classSizes) {
			continue
		}
		kv.unlinkLocked(t, cls, item)
		kv.freeChunk(t, cls, item, taint.None)
	}
}

// Get returns the value bytes of a key.
func (kv *KV) Get(t *rt.Thread, key string) ([]byte, bool) {
	kf := targets.Fingerprint(key)
	t.LockMutex(&kv.mu)
	item, ok := kv.index[kf]
	t.UnlockMutex(&kv.mu)
	if !ok {
		return nil, false
	}
	t.Branch()
	nb, _ := t.Load64(item + itNBy)
	if nb > classSizes[len(classSizes)-1] {
		return nil, false
	}
	val, _ := t.LoadBytes(item+itValue, nb)
	return val, true
}

// Concat implements append/prepend. BUGS 9 and 10 (read side,
// memcached.c:2805): the existing value bytes and length may be another
// thread's unflushed writes; the derived value written to the new item is a
// durable side effect based on them.
func (kv *KV) Concat(t *rt.Thread, key string, suffix []byte, appendTo bool) error {
	kf := targets.Fingerprint(key)
	t.LockMutex(&kv.mu)
	item, ok := kv.index[kf]
	t.UnlockMutex(&kv.mu)
	if !ok {
		return nil // NOT_STORED
	}
	t.Branch()
	// The item data is read after the cache lock is dropped (memcached's
	// refcount pattern): the reads race with another thread's unflushed
	// set — the Bug 9/10 windows.
	nb, nblab := t.Load64(item + itNBy)
	if nb > classSizes[len(classSizes)-1] {
		return errors.New("memcached: corrupt length")
	}
	old, vlab := t.LoadBytes(item+itValue, nb)
	lab := t.Env().Labels().Union(nblab, vlab)
	var merged []byte
	if appendTo {
		merged = append(append([]byte(nil), old...), suffix...)
	} else {
		merged = append(append([]byte(nil), suffix...), old...)
	}
	if !fitsChunk(t, item, len(merged)) {
		return errors.New("memcached: SERVER_ERROR object too large")
	}
	// Durable write of the derived value (and its length) in place.
	t.StoreBytes(item+itValue, merged, lab, taint.None)
	t.Store64(item+itNBy, uint64(len(merged)), lab, taint.None)
	sum, slab := kv.checksum(t, item, uint64(len(key)), uint64(len(merged)))
	t.Store64(item+itCksum, sum, slab, taint.None)
	t.Persist(item, itValue+uint64(len(merged)))
	return nil
}

// Arith implements incr/decr over ASCII-numeric values.
func (kv *KV) Arith(t *rt.Thread, key, deltaStr string, up bool) error {
	cur, ok := kv.Get(t, key)
	if !ok {
		return nil // NOT_FOUND
	}
	t.Branch()
	n := uint64(0)
	for _, b := range cur {
		if b < '0' || b > '9' {
			return errors.New("memcached: CLIENT_ERROR non-numeric value")
		}
		n = n*10 + uint64(b-'0')
	}
	d := uint64(0)
	for _, b := range []byte(deltaStr) {
		if b < '0' || b > '9' {
			return errors.New("memcached: CLIENT_ERROR invalid delta")
		}
		d = d*10 + uint64(b-'0')
	}
	if up {
		n += d
	} else if n >= d {
		n -= d
	} else {
		n = 0
	}
	return kv.Set(t, key, []byte(fmt.Sprintf("%d", n)))
}

// Delete unlinks and frees a key's item.
func (kv *KV) Delete(t *rt.Thread, key string) bool {
	kf := targets.Fingerprint(key)
	t.LockMutex(&kv.mu)
	defer t.UnlockMutex(&kv.mu)
	item, ok := kv.index[kf]
	if !ok {
		return false
	}
	t.Branch()
	cls64, _ := t.Load64(item + itClsid)
	cls := int(cls64&0xff) - 1
	if cls < 0 || cls >= len(classSizes) {
		return false
	}
	kv.unlinkLocked(t, cls, item)
	kv.freeChunk(t, cls, item, taint.None)
	return true
}

// Recover implements targets.Target: scan the persistent slabs and rebuild
// the volatile index and LRU lists, rewriting every live item's prev/next
// fields (the overwrite that validates most detected inconsistencies as
// false positives) and discarding items with mismatched checksums.
func (kv *KV) Recover(t *rt.Thread) error {
	m, _ := t.Load64(0)
	if m != magic {
		return errors.New("memcached: pool not initialized")
	}
	kv.index = make(map[uint64]pmem.Addr)
	for c := range kv.lru {
		kv.lru[c] = struct{ head, tail pmem.Addr }{}
		kv.free[c] = nil
		kv.live[c] = 0
	}
	bump, _ := t.Load64(8)
	if bump > t.Env().Pool().Size() {
		bump = pagesBase
	}
	for page := pmem.Addr(pagesBase); page+pageSize <= bump; page += pageSize {
		leaderCls, _ := t.Load64(page + itClsid)
		cls := int(leaderCls&0xff) - 1
		if cls < 0 || cls >= len(classSizes) {
			continue
		}
		size := classSizes[cls]
		for c := page; c+size <= page+pageSize; c += size {
			clsid, _ := t.Load64(c + itClsid)
			flags, _ := t.Load64(c + itFlags)
			if clsid&freeBit != 0 || flags&flagLinked == 0 {
				kv.free[cls] = append(kv.free[cls], c)
				continue
			}
			nkey, _ := t.Load64(c + itNKey)
			nb, _ := t.Load64(c + itNBy)
			if nkey > 64 || itValue+nb > size {
				kv.free[cls] = append(kv.free[cls], c)
				continue
			}
			want, _ := t.Load64(c + itCksum)
			got, _ := kv.checksum(t, c, nkey, nb)
			if want != got {
				// Checksum mismatch: the crash caught a
				// partially persisted item; disregard it.
				kv.free[cls] = append(kv.free[cls], c)
				continue
			}
			kf, _ := t.Load64(c + itKeyFP)
			kv.index[kf] = c
			kv.live[cls]++
			// Relink: rewrite prev/next (the recovery overwrite).
			head := kv.lru[cls].head
			t.Store64(c+itNext, head, taint.None, taint.None)
			t.Store64(c+itPrev, 0, taint.None, taint.None)
			if head != 0 {
				//pmvet:ignore unflushed-store -- recovery relink of the previous head; rebuilt again on the next recovery
				t.Store64(head+itPrev, c, taint.None, taint.None)
			}
			t.Persist(c+itNext, 16)
			kv.lru[cls].head = c
			if kv.lru[cls].tail == 0 {
				kv.lru[cls].tail = c
			}
		}
	}
	return nil
}

// Live returns the number of indexed items (test oracle).
func (kv *KV) Live() int {
	kv.mu.Lock() //pmvet:ignore missing-hook -- test oracle, called with no thread after the workload
	defer kv.mu.Unlock()
	return len(kv.index)
}
