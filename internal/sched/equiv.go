package sched

import "sync"

// Interleaving equivalence pruning.
//
// Two queue entries whose sync-point decisions are permutations of each other
// — same address, same skip count, same load-site and store-site sets — force
// the same read-after-write windows, so executing both mostly re-explores one
// partial-order equivalence class. The fuzzer fingerprints every scheduled
// interleaving with EntrySignature, observes each execution's outcome
// signature (alias-pair coverage hash, dirty-word set hash), and prunes a
// queued interleaving when its class has already run without producing a
// novel outcome. A class whose latest round was productive — a globally
// unseen outcome, or a bug — is never pruned, and an unseen signature is
// never pruned — pruning can only skip work that demonstrably repeated
// itself. A bug run does not pin its class forever: the finding is already
// in the campaign's dedup database, so once the class goes quiet it is
// pruned like any other.

// EntrySignature fingerprints a queue entry plus its Pitfall-3 skip count.
// The load-site and store-site sets are folded permutation-invariantly (XOR
// of per-site mixes), so two entries whose decisions are reorderings of the
// same site sets collide by construction — that collision is the point.
func EntrySignature(e *Entry, skip int) uint64 {
	h := mix64(uint64(e.Addr) ^ 0x9e3779b97f4a7c15)
	h ^= mix64(uint64(skip)<<1 | 1)
	var loads, stores uint64
	for _, s := range e.LoadSites {
		loads ^= mix64(uint64(s) | 1<<40)
	}
	for _, s := range e.StoreSites {
		stores ^= mix64(uint64(s) | 1<<41)
	}
	return mix64(h ^ loads*0xbf58476d1ce4e5b9 ^ stores*0x94d049bb133111eb)
}

// OutcomeSig is the observable outcome of one execution: the alias-pair
// coverage bitmap hash and the pool's dirty-word set hash. Two executions
// with equal signatures exercised the same cross-thread PM access pairs and
// left the same words unpersisted — the detector cannot distinguish them.
type OutcomeSig struct {
	Alias uint64
	Dirty uint64
}

// equivClass tracks one schedule-equivalence class.
type equivClass struct {
	runs int
	// lastRunNovel records whether the class's latest execution produced
	// an unseen outcome or a bug; either keeps the class schedulable for
	// at least one more round.
	lastRunNovel bool
}

// EquivClasses is the campaign-global equivalence-class table. Safe for
// concurrent use by fuzzing workers.
type EquivClasses struct {
	mu      sync.Mutex
	classes map[uint64]*equivClass
	seen    map[OutcomeSig]struct{}
}

// NewEquivClasses creates an empty table.
func NewEquivClasses() *EquivClasses {
	return &EquivClasses{
		classes: make(map[uint64]*equivClass),
		seen:    make(map[OutcomeSig]struct{}),
	}
}

// ShouldPrune reports whether the interleaving fingerprinted by key can be
// dropped: its class has executed before and its most recent execution
// neither produced an outcome unseen at the time nor found a bug. A key with
// no recorded run — an unseen signature — is never pruned, and one
// productive run earns the class at least one more round.
func (c *EquivClasses) ShouldPrune(key uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.classes[key]
	return ok && cl.runs > 0 && !cl.lastRunNovel
}

// OutcomeNovel folds one execution's outcome signature into the global seen
// set and reports whether it was unseen. The caller ORs the results of a
// round's executions (plus any bug found) into the round's productive flag.
func (c *EquivClasses) OutcomeNovel(out OutcomeSig) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, seen := c.seen[out]
	c.seen[out] = struct{}{}
	return !seen
}

// Record folds one scheduled round of the class fingerprinted by key:
// productive means some execution of the round yielded a globally novel
// outcome or a bug, and earns the class at least one more round.
func (c *EquivClasses) Record(key uint64, productive bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.classes[key]
	if !ok {
		cl = &equivClass{}
		c.classes[key] = cl
	}
	cl.runs++
	cl.lastRunNovel = productive
}

// mix64 is a 64-bit finalizer (splitmix64).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
