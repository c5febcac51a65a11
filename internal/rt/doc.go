// Package rt is the instrumentation runtime of the reproduction: the
// in-simulation equivalent of the hook library that PMRace's LLVM pass links
// into the program under test (paper §4.1 step 1, §5). PM programs written
// against this package perform every persistent-memory access through Thread
// hook methods (Load64, Store64, NTStore64, Flush, Fence, CAS64, byte-range
// variants) and report control flow through Branch. The hooks:
//
//   - maintain the pool's persistency states and shadow taint labels;
//   - detect inconsistency candidates (reads of PM_DIRTY data) and durable
//     side effects (stores whose value or address is tainted), delegating to
//     the core detector;
//   - record PM alias pair and branch coverage;
//   - record per-address access statistics for the priority queue;
//   - call into the interleaving-exploration strategy around each access;
//   - watch for hangs in spin-lock acquisition;
//   - park threads blocked on a lock held by another live thread, and
//     report them to the strategy (sched.Strategy.Park), so scheduler
//     waits end as soon as no thread can run.
package rt
