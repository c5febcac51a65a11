// Package artifact writes and loads forensic bug bundles: self-contained
// directories that capture everything a triager needs to understand and
// reproduce one confirmed PM concurrency finding without re-running the
// campaign (paper §4.1 step 6 — "detailed bug reports" with inputs, stacks
// and interleavings — extended with the machine-readable state needed for
// automated replay).
//
// A bundle directory holds:
//
//	bug.json       the report: kind, verdict, sites, stacks, taint lineage
//	seed.txt       the encoded program input that found the bug
//	schedule.json  the PM-aware interleaving decisions of the finding run
//	trace.json     the finding's interleaving: dirty store, dirty load, side effect
//	pmdiff.json    the dirty words (cache vs. persisted) at detection
//
// Site identities are persisted as resolved file:line strings, never as
// numeric site IDs: IDs are process-local (they depend on hook discovery
// order), while file:line fingerprints are stable across processes, which is
// what lets `pmrace -artifact <dir>` check that a replay reproduced the same
// bug.
package artifact
