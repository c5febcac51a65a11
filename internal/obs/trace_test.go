package obs

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTracerSpanBasics checks the span lifecycle: parent/child linkage, lane
// and exec inheritance, attributes, and delivery to the flight recorder and
// the span histograms — only the span-only stages' ones: exec_run's is
// written from exec_done events.
func TestTracerSpanBasics(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 1)
	tr.SetMeta("c0001", "pclht")

	sp := tr.Start(LaneWorkerBase, SpanExecRun)
	if !sp.Active() {
		t.Fatal("enabled tracer must return an active span")
	}
	exec := tr.NextExec()
	sp.SetExec(exec)
	child := sp.Child(SpanConflictAnalysis)
	child.SetAttr("batches", "3")
	child.End()
	sp.End()
	sp.End() // idempotent

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// Snapshot orders by start time: parent opened first.
	parent, inner := spans[0], spans[1]
	if parent.Name != SpanExecRun || inner.Name != SpanConflictAnalysis {
		t.Fatalf("span order %q, %q", parent.Name, inner.Name)
	}
	if inner.Parent != parent.ID {
		t.Fatalf("child parent=%d, want %d", inner.Parent, parent.ID)
	}
	if inner.Lane != parent.Lane || inner.Exec != exec || parent.Exec != exec {
		t.Fatalf("child must inherit lane and exec: %+v / %+v", parent, inner)
	}
	if inner.Attrs["batches"] != "3" {
		t.Fatalf("attrs = %v", inner.Attrs)
	}
	if parent.DurNs <= 0 {
		t.Fatal("durations must be clamped positive")
	}
	if n := reg.Histogram(SpanHistName(SpanConflictAnalysis)).Count(); n != 1 {
		t.Fatalf("conflict_analysis histogram observed %d spans, want 1", n)
	}
	if n := reg.Histogram(SpanHistName(SpanExecRun)).Count(); n != 0 {
		t.Fatalf("exec_run histogram observed %d spans, want 0 (exec_done writes it)", n)
	}
}

// TestTracerDisabledAndNil checks the inert paths: the nil tracer (the
// disabled tracer) and the negative "not sampled" lane both produce no-op
// spans, and every method is nil-safe.
func TestTracerDisabledAndNil(t *testing.T) {
	var nilTr *Tracer
	if nilTr.Enabled() || nilTr.Sample() || nilTr.NextExec() != 0 {
		t.Fatal("nil tracer must be inert")
	}
	nilTr.SetMeta("x", "y")
	sp := nilTr.Start(0, SpanCampaign)
	sp.SetAttr("k", "v")
	sp.SetExec(1)
	c := sp.Child(SpanSeedPick)
	c.End()
	sp.End()
	if nilTr.Spans() != nil {
		t.Fatal("nil tracer must have no spans")
	}

	tr := NewTracer(NewRegistry(), 1)
	if !tr.Enabled() {
		t.Fatal("a non-nil tracer is enabled")
	}
	sp2 := tr.Start(-1, SpanExecRun)
	if sp2.Active() {
		t.Fatal("negative lane must return an inert span")
	}
	sp2.End()
	if len(tr.Spans()) != 0 {
		t.Fatal("unsampled lane must record nothing")
	}
}

// TestTracerSampling checks the modular sampling contract: with rate n,
// exactly one in n Sample calls is true.
func TestTracerSampling(t *testing.T) {
	tr := NewTracer(nil, 4)
	hits := 0
	for i := 0; i < 40; i++ {
		if tr.Sample() {
			hits++
		}
	}
	if hits != 10 {
		t.Fatalf("sampled %d of 40 at rate 4, want 10", hits)
	}
}

// TestFlightRecorderBounded checks the ring semantics: the recorder keeps
// exactly its last capacity spans, sorted by start time.
func TestFlightRecorderBounded(t *testing.T) {
	fr := NewFlightRecorder(256)
	for i := 0; i < 1000; i++ {
		fr.Record(Span{ID: uint64(i + 1), Name: SpanExecRun, StartNs: int64(i)})
	}
	got := fr.Snapshot()
	if len(got) != 256 {
		t.Fatalf("recorder holds %d spans, want 256", len(got))
	}
	for i, sp := range got {
		if want := int64(744 + i); sp.StartNs != want {
			t.Fatalf("span %d starts at %d, want %d (starts 744..999)", i, sp.StartNs, want)
		}
	}
}

// BenchmarkFlightRecord measures Record, the per-span cost every finished
// span pays, from GOMAXPROCS goroutines recording into one recorder.
func BenchmarkFlightRecord(b *testing.B) {
	fr := NewFlightRecorder(defaultFlightSpans)
	b.RunParallel(func(pb *testing.PB) {
		sp := Span{Name: SpanExecRun}
		for pb.Next() {
			sp.StartNs++
			fr.Record(sp)
		}
	})
}

// TestFlightRecorderConcurrent stress-tests the recorder under -race:
// concurrent recording and snapshotting must be safe.
func TestFlightRecorderConcurrent(t *testing.T) {
	tr := NewTracer(NewRegistry(), 1)
	tr.SetMeta("c0001", "pclht")

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp := tr.Start(LaneWorkerBase+w, SpanExecRun)
				c := sp.Child(SpanConflictAnalysis)
				c.End()
				sp.End()
			}
		}(w)
	}
	for d := 0; d < 4; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = tr.Spans()
			}
		}()
	}
	wg.Wait()

	if n := len(tr.Spans()); n != defaultFlightSpans {
		t.Fatalf("flight recorder holds %d spans after 8,000, want its %d-span capacity", n, defaultFlightSpans)
	}
}

// TestWriteChromeTraceRoundTrip checks the exported document satisfies the
// same shape contract CI enforces, including timestamp ties between nested
// and adjacent spans.
func TestWriteChromeTraceRoundTrip(t *testing.T) {
	spans := []Span{
		// Outer and inner span opening at the same timestamp on one lane.
		{ID: 1, Name: SpanCampaign, Lane: 0, StartNs: 0, DurNs: 5000},
		{ID: 2, Parent: 1, Name: SpanSeedPick, Lane: 0, StartNs: 0, DurNs: 1000},
		// A slice closing exactly where the next one opens.
		{ID: 3, Parent: 1, Name: SpanInterleaving, Lane: 0, StartNs: 1000, DurNs: 1000},
		{ID: 4, Parent: 1, Name: SpanExecRun, Lane: 0, StartNs: 2000, DurNs: 1000},
		// Zero-duration span: the export clamps it to 1ns.
		{ID: 5, Name: SpanValidate, Lane: 100, StartNs: 10, DurNs: 0, Attrs: map[string]string{"status": "Bug"}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans, TraceMeta{Campaign: "c0007", Target: "cceh"}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails its own validator: %v", err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, "pmrace c0007 (cceh)", "supervisor", "validator 0", `"status":"Bug"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %q:\n%s", want, out)
		}
	}
}

// TestValidateChromeTraceRejects checks the validator catches the shape
// violations it exists for.
func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":       `{`,
		"no traceEvents": `{"other": []}`,
		"missing name":   `{"traceEvents":[{"ph":"B","ts":1,"pid":1,"tid":0}]}`,
		"missing ts":     `{"traceEvents":[{"name":"x","ph":"B","pid":1,"tid":0}]}`,
		"unmatched E":    `{"traceEvents":[{"name":"x","ph":"E","ts":1,"pid":1,"tid":0}]}`,
		"unclosed B":     `{"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":1,"tid":0}]}`,
		"crossed pairs":  `{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":1,"tid":0},{"name":"b","ph":"B","ts":2,"pid":1,"tid":0},{"name":"a","ph":"E","ts":3,"pid":1,"tid":0},{"name":"b","ph":"E","ts":4,"pid":1,"tid":0}]}`,
		"ts goes back":   `{"traceEvents":[{"name":"a","ph":"B","ts":5,"pid":1,"tid":0},{"name":"a","ph":"E","ts":4,"pid":1,"tid":0}]}`,
		"unexpected ph":  `{"traceEvents":[{"name":"a","ph":"X","ts":1,"pid":1,"tid":0}]}`,
	}
	for label, doc := range cases {
		if err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s: validator accepted %s", label, doc)
		}
	}
	if err := ValidateChromeTrace([]byte(`{"traceEvents":[]}`)); err != nil {
		t.Errorf("empty traceEvents must be valid: %v", err)
	}
}

// TestSpanHistogramCardinality checks the tracer only ever creates span
// histograms from the fixed name set: per-stage latency families stay
// bounded no matter how many executions run.
func TestSpanHistogramCardinality(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 1)
	for i := 0; i < 200; i++ {
		for _, name := range SpanNames() {
			sp := tr.Start(LaneWorkerBase+i%4, name)
			sp.End()
		}
	}
	allowed := make(map[string]bool)
	for _, n := range SpanNames() {
		allowed[SpanHistName(n)] = true
	}
	for _, name := range reg.Names() {
		if strings.HasPrefix(name, "span_") && !allowed[name] {
			t.Fatalf("unexpected span histogram %q", name)
		}
	}
}

// TestEmitterTerminalDelivery checks Subscribe's deterministic terminal
// contract: a subscriber attaching after campaign_done was emitted — during
// drain or after Close — still receives the terminal event.
func TestEmitterTerminalDelivery(t *testing.T) {
	em := NewEmitter()
	em.Emit(&ExecDone{Exec: 1})
	em.Emit(&CampaignDone{Stats: Stats{Execs: 1}})

	// Attached during drain (after campaign_done, before Close).
	drainCh, cancel := em.Subscribe(8)
	defer cancel()
	select {
	case ev := <-drainCh:
		if _, ok := ev.(*CampaignDone); !ok {
			t.Fatalf("drain subscriber got %T, want *CampaignDone", ev)
		}
	default:
		t.Fatal("drain subscriber did not receive the terminal event")
	}

	em.Close()

	// Attached after Close: terminal event, then closed channel.
	lateCh, _ := em.Subscribe(8)
	ev, ok := <-lateCh
	if !ok {
		t.Fatal("late subscriber channel closed without the terminal event")
	}
	if _, isDone := ev.(*CampaignDone); !isDone {
		t.Fatalf("late subscriber got %T, want *CampaignDone", ev)
	}
	if _, ok := <-lateCh; ok {
		t.Fatal("late subscriber channel must close after the terminal event")
	}

	// No terminal was ever emitted: post-Close subscribe is just closed.
	em2 := NewEmitter()
	em2.Emit(&ExecDone{Exec: 1})
	em2.Close()
	emptyCh, _ := em2.Subscribe(8)
	if _, ok := <-emptyCh; ok {
		t.Fatal("no terminal event was emitted; channel must be closed and empty")
	}
}

// TestEmitterSSEDropCounter checks an SSE stream's subscriber sheds count
// in obs_events_dropped_total, the one drop counter, next to a second
// subscriber's: two channels of one event each, 50 events, 49 sheds each.
func TestEmitterSSEDropCounter(t *testing.T) {
	em := NewEmitter()
	_, cancelSSE := em.Subscribe(1) // tiny buffer, no consumer
	defer cancelSSE()
	_, cancelEvents := em.Subscribe(1)
	defer cancelEvents()
	for i := 0; i < 50; i++ {
		em.Emit(&ExecDone{Exec: i})
	}
	if got := em.Registry().Counter(MEventsDropped).Value(); got != 2*49 || em.Dropped() != got {
		t.Fatalf("obs_events_dropped_total = %d, Dropped() = %d; want 98 and 98", got, em.Dropped())
	}
	for _, name := range em.Registry().Names() {
		if strings.Contains(name, "sse") {
			t.Fatalf("registry holds %q; SSE sheds have no counter of their own", name)
		}
	}
	em.Close()
}

// untracedTracer is the tracer an untraced campaign holds: nil. A package
// variable, so the pin loads it from memory like a campaign's field.
var untracedTracer *Tracer

// TestObsSpanDisabledPin pins the disabled-path cost: Start on the nil
// tracer an untraced campaign holds must stay a nil check plus a branch — no
// allocation, well under the PM-hook budget. Gated on PMRACE_BENCH_PIN=1
// because wall-clock assertions are meaningless under -race or a loaded CI
// box.
func TestObsSpanDisabledPin(t *testing.T) {
	if os.Getenv("PMRACE_BENCH_PIN") != "1" {
		t.Skip("set PMRACE_BENCH_PIN=1 to pin the disabled-path cost")
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := untracedTracer.Start(1, SpanExecRun)
			sp.End()
		}
	})
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("disabled span path allocates %d/op, want 0", allocs)
	}
	if ns := float64(res.NsPerOp()); ns > 100 {
		t.Fatalf("disabled span path costs %.1f ns/op, want < 100", ns)
	}
	_ = time.Now() // keep the time import stable if assertions change
}
