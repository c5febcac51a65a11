// Package pmem simulates a byte-addressable persistent memory device fronted
// by volatile write-back CPU caches, following the failure model used by
// PMRace (ASPLOS '22, §3.1): stores become visible to all threads immediately
// (coherent caches) but become durable only after an explicit cache-line
// flush (CLWB/CLFLUSHOPT) followed by a store fence (SFENCE). A crash
// discards every write that has not reached the persistence domain.
//
// The pool keeps two byte arrays: the cache image (what running threads
// observe) and the persisted image (what survives a crash). Per 8-byte word
// it additionally tracks the persistency state consumed by the PMRace
// checkers: a dirty bit, the writing thread, the writing instruction site and
// a store epoch used to invalidate stale inconsistency-candidate events, plus
// a shadow taint label and the last-accessor triple used for PM alias pair
// coverage.
//
// Locking. One mutex per pool serializes every method, so each access, flush,
// fence, snapshot, restore and crash-image capture is atomic with respect to
// the others. Thread interleaving in the simulation happens between hook
// calls, never inside one, which mirrors the per-instruction atomicity
// assumed by PMRace's interleaving exploration. Every fuzzing worker restores
// its own pool, so the lock is shared only by the simulated threads of one
// execution.
package pmem
