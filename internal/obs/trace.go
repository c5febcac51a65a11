package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing: the campaign's wall-clock attribution layer. A Span records
// where one stage of the schedule → execute → detect → validate lifecycle
// spent its time; completed spans land in the flight recorder (last-N ring,
// snapshotted into bug bundles and exported as the timeline). Each stage has
// one latency histogram, span_<name>; tracedStages says which ones the
// tracer writes.
// The subsystem is stdlib-only; a campaign without tracing has a nil
// *Tracer, whose methods are a nil check. The per-access PM hooks are never
// on the span path.

// Span names. The set is fixed: every span a campaign records carries one of
// these names, which bounds the per-stage histogram cardinality (one
// span_<name> family per name, never one per exec or per address).
const (
	// SpanQueueWait covers a pmraced campaign's admission wait: submission
	// until the worker budget had headroom.
	SpanQueueWait = "queue_wait"
	// SpanCampaign covers the whole fuzzing run, lane 0.
	SpanCampaign = "campaign"
	// SpanSeedPick covers one seed-tier corpus pick.
	SpanSeedPick = "seed_pick"
	// SpanInterleaving covers one interleaving-tier decision: the queue
	// pop, the equivalence-pruning check and the schedule choice.
	SpanInterleaving = "interleaving"
	// SpanExecRun covers one execution end to end: a span for a sampled
	// one, a histogram observation (from exec_done) for every one.
	SpanExecRun = "exec_run"
	// SpanConflictAnalysis covers the final log drain and deferred batch
	// conflict analysis at the end of an execution.
	SpanConflictAnalysis = "conflict_analysis"
	// SpanCrashStateEnum covers crash-state enumeration for one finding.
	SpanCrashStateEnum = "crash_state_enum"
	// SpanValidate covers one finding's post-failure validation verdict.
	SpanValidate = "validate"
	// SpanValidateState covers one crash state's recovery run inside a
	// validation.
	SpanValidateState = "validate_state"
)

// SpanNames lists every span name the engine records, for cardinality
// checks and dashboards.
func SpanNames() []string {
	return []string{
		SpanQueueWait, SpanCampaign, SpanSeedPick, SpanInterleaving,
		SpanExecRun, SpanConflictAnalysis, SpanCrashStateEnum,
		SpanValidate, SpanValidateState,
	}
}

// SpanHistName is the metrics-registry histogram name for a span name.
func SpanHistName(name string) string { return "span_" + name }

// tracedStages are the stages whose only timing is their span, so the
// tracer writes their histograms. The other stages' histograms are written
// where every instance is timed: exec_run by the emitter on exec_done,
// validate by the emitter on validation_verdict, validate_state by the
// validator per crash state.
var tracedStages = []string{
	SpanQueueWait, SpanCampaign, SpanSeedPick, SpanInterleaving,
	SpanConflictAnalysis, SpanCrashStateEnum,
}

// Lane bases. A lane is the span's display thread (the Chrome trace-event
// tid): spans on one lane are required to nest properly, so each logical
// actor gets its own lane.
const (
	// LaneSupervisor carries queue_wait and the campaign phase spans.
	LaneSupervisor = 0
	// LaneWorkerBase + w is fuzzing worker w's lane (seed_pick,
	// interleaving, exec_run, conflict_analysis).
	LaneWorkerBase = 1
	// LaneValidatorBase + w is the lane of the validations fuzzing worker w
	// runs (validate, validate_state).
	LaneValidatorBase = 100
	// LaneExecDetailBase starts the per-execution detail lanes: crash-state
	// enumeration runs on driver-thread goroutines concurrent with the
	// worker's exec_run span, so each capture gets a lane of its own.
	LaneExecDetailBase = 1000
)

// DefaultTraceSample is the default per-exec sampling rate: one execution in
// DefaultTraceSample records detailed spans.
const DefaultTraceSample = 8

// defaultFlightSpans sizes the flight recorder: the last-N completed spans
// kept for bundle spans.json snapshots and timeline export.
const defaultFlightSpans = 4096

// Span is one completed span record as the flight recorder stores it and
// spans.json serializes it.
type Span struct {
	// ID is unique within the tracer; Parent links an enclosing span (0 =
	// root).
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Name is one of the Span* constants.
	Name string `json:"name"`
	// Lane is the display thread; spans sharing a lane nest properly.
	Lane int `json:"lane"`
	// Exec is the sampled-execution ordinal tying the spans of one
	// execution together (0 = not execution-scoped).
	Exec int64 `json:"exec,omitempty"`
	// StartNs/DurNs are nanoseconds since the tracer epoch / duration.
	StartNs int64 `json:"start_ns"`
	DurNs   int64 `json:"dur_ns"`
	// Attrs carries span attributes (entry description, verdict, counts).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// TraceMeta names the trace for export: the Perfetto process row.
type TraceMeta struct {
	Campaign string `json:"campaign,omitempty"`
	Target   string `json:"target,omitempty"`
}

// Tracer records spans for one campaign. A nil *Tracer is the disabled
// tracer: every method is safe on it (every producer can hold an
// unconditional handle), and Start is a nil check plus a branch — nothing
// else on the disabled path.
type Tracer struct {
	sampleN int64
	execCtr atomic.Int64 // Sample() calls (≈ executions offered)
	sampled atomic.Int64 // sampled-execution ordinals
	ids     atomic.Uint64
	epoch   time.Time
	flight  *FlightRecorder
	// hists holds the span-only stages' histograms, resolved once by
	// NewTracer and read-only after; other names map to nil (no-op).
	hists map[string]*Histogram

	mu   sync.Mutex
	meta TraceMeta
}

// NewTracer creates a tracer recording into reg's span histograms (reg may
// be nil: spans then only reach the flight recorder). sampleN is the
// per-exec sampling rate (1 = every execution, n = one in n); values <= 0
// select DefaultTraceSample.
func NewTracer(reg *Registry, sampleN int) *Tracer {
	if sampleN <= 0 {
		sampleN = DefaultTraceSample
	}
	t := &Tracer{
		sampleN: int64(sampleN),
		epoch:   time.Now(),
		flight:  NewFlightRecorder(defaultFlightSpans),
		hists:   make(map[string]*Histogram, len(tracedStages)),
	}
	for _, name := range tracedStages {
		t.hists[name] = reg.Histogram(SpanHistName(name))
	}
	return t
}

// Enabled reports whether the tracer records spans: it is non-nil.
func (t *Tracer) Enabled() bool { return t != nil }

// SetMeta names the trace for export.
func (t *Tracer) SetMeta(campaign, target string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.meta = TraceMeta{Campaign: campaign, Target: target}
	t.mu.Unlock()
}

// Meta returns the trace naming metadata.
func (t *Tracer) Meta() TraceMeta {
	if t == nil {
		return TraceMeta{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.meta
}

// Sample reports whether the next execution should record detailed spans:
// one call per offered execution, true once every sampleN calls.
func (t *Tracer) Sample() bool {
	if t == nil {
		return false
	}
	return t.execCtr.Add(1)%t.sampleN == 0
}

// NextExec allocates the next sampled-execution ordinal, shared by all
// spans of one sampled execution.
func (t *Tracer) NextExec() int64 {
	if t == nil {
		return 0
	}
	return t.sampled.Add(1)
}

// Start opens a span on the given lane. A nil tracer or a negative lane (the
// "not sampled" lane) returns an inert SpanCtx whose methods are all no-ops
// — callers never branch.
func (t *Tracer) Start(lane int, name string) SpanCtx {
	if t == nil || lane < 0 {
		return SpanCtx{}
	}
	return SpanCtx{t: t, id: t.ids.Add(1), name: name, lane: int32(lane), start: time.Now()}
}

// finish records a completed span, and its duration in the stage's
// histogram when the tracer owns it.
func (t *Tracer) finish(s *SpanCtx, d time.Duration) {
	sp := Span{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		Lane:    int(s.lane),
		Exec:    s.exec,
		StartNs: s.start.Sub(t.epoch).Nanoseconds(),
		DurNs:   d.Nanoseconds(),
		Attrs:   s.attrs,
	}
	t.flight.Record(sp)
	t.hists[s.name].Observe(d)
}

// Spans returns the flight recorder's contents, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.flight.Snapshot()
}

// WriteChrome renders the flight recorder as Chrome trace-event JSON
// (viewable in ui.perfetto.dev).
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: tracing disabled")
	}
	return WriteChromeTrace(w, t.Spans(), t.Meta())
}

// SpanCtx is an open span handle. The zero value is inert: every method is
// a no-op, so call sites thread handles unconditionally and the disabled /
// unsampled path never branches.
type SpanCtx struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	lane   int32
	exec   int64
	start  time.Time
	attrs  map[string]string
}

// Active reports whether the span will be recorded on End.
func (s *SpanCtx) Active() bool { return s != nil && s.t != nil }

// ID returns the span's tracer-unique ID (0 for inert spans).
func (s *SpanCtx) ID() uint64 { return s.id }

// SetAttr attaches an attribute; keys should come from a small fixed set.
func (s *SpanCtx) SetAttr(k, v string) {
	if s.t == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[k] = v
}

// SetExec tags the span with a sampled-execution ordinal.
func (s *SpanCtx) SetExec(n int64) {
	if s.t != nil {
		s.exec = n
	}
}

// Child opens a sub-span on the same lane and execution, parented to s.
func (s *SpanCtx) Child(name string) SpanCtx {
	if s.t == nil {
		return SpanCtx{}
	}
	c := s.t.Start(int(s.lane), name)
	c.parent = s.id
	c.exec = s.exec
	return c
}

// End completes the span: it lands in the flight recorder and, for a
// span-only stage, its duration in the span_<name> histogram. End is
// idempotent; durations are clamped to >= 1ns so a span's B/E trace events
// never coincide.
func (s *SpanCtx) End() {
	if s.t == nil {
		return
	}
	d := time.Since(s.start)
	if d <= 0 {
		d = 1
	}
	s.t.finish(s, d)
	s.t = nil
}
