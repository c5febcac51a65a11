// Package lint is pmvet: a suite of static analyzers that check the
// hand-written PM instrumentation of this repository for completeness.
//
// This repo replaces PMRace's LLVM instrumentation pass with hand-written
// rt hook calls, so a forgotten Flush/Fence, a raw pmem.Pool access or a
// dropped taint label silently removes a bug from the dynamically
// detectable set. The four analyzers — unflushed-store, missing-hook,
// taint-gap and fence-pairing — restore a compile-time completeness
// guarantee over that hand instrumentation.
//
// The Analyzer/Pass/Diagnostic types structurally mirror
// golang.org/x/tools/go/analysis (unavailable in this offline build);
// Loader replaces go/packages with go/parser plus the stdlib source
// importer. The cmd/pmvet driver wires the suite into a gosec-style CLI
// with -include/-exclude selection and //pmvet:ignore suppression. See
// DESIGN.md §11 for the architecture and the paper-fidelity argument.
package lint
