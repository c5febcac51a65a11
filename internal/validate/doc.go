// Package validate implements PMRace's post-failure validation (paper §4.4),
// hardened in two directions beyond the paper:
//
//   - Every recovery run executes in a watchdog-supervised goroutine with a
//     wall-clock deadline (Options.WallTimeout, distinct from the spin-lock
//     bound rt.DefaultHangTimeout). Recovery that spins in an
//     uninstrumented loop, sleeps forever or panics becomes a StatusBug
//     verdict with RecoveryHung or RecoveryErr populated instead of wedging
//     the campaign; the abandoned goroutine's environment is cancelled so
//     it stops mutating its pool at its next hook call. Every other run's
//     pool is released for reuse by the next run (pmem.Pool.Release); an
//     abandoned pool never is.
//
//   - A finding is judged against a *list* of enumerated crash states
//     (pmem.CrashStates) rather than the single adversarial image, and the
//     Result carries a per-state verdict table. A finding is a bug if any
//     state fails recovery — strictly stronger than the single-image §4.4
//     verdict, which is reproduced exactly by passing one adversarial state.
//
// Per state, the oracles are unchanged from the paper:
//
//   - Inter-/intra-thread inconsistency: if recovery overwrote every byte of
//     the recorded durable side effect, the state passes (the application's
//     recovery mechanism fixes it); otherwise it fails. States whose image
//     does not contain the side effect (the persisted baseline) skip the
//     overwrite oracle — only a hang or error fails them.
//   - Synchronization inconsistency: the annotated variable must hold its
//     expected initial value after recovery in every state.
//
// A whitelist check runs first: inconsistencies whose stacks or sites match
// developer-specified benign patterns (redo-logged allocation, checksummed
// regions, lazy recovery) are classified as whitelisted false positives.
package validate
