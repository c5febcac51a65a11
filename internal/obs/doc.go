// Package obs is PMRace's campaign observability layer: a typed event
// stream, a lock-cheap metrics registry, and pluggable sinks.
//
// A fuzzing campaign used to be a black box — the original blocking entry
// point returned one terminal Result. The event stream makes the
// campaign watchable while it runs: every layer of the stack (executor,
// scheduler tiers, corpus, detection, post-failure validation) emits typed
// events through one Emitter, which fans them out to attached sinks (a JSONL
// trace writer, a human progress line, an in-memory collector for tests) and
// to subscriber channels (Campaign.Events(), one per SSE client).
//
// The taxonomy maps onto the paper's measurements: ExecDone events carry the
// per-execution coverage deltas behind Figure 9's timelines and Figure 10's
// throughput, InconsistencyFound/BugConfirmed arrival times are Figure 8's
// detection-time series, and ValidationVerdict latencies are the
// post-failure stage cost the checkpoint design amortizes.
package obs
