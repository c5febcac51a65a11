// Tests for the campaign session API: event-stream determinism, context
// cancellation latency, statistics-snapshot consistency with the returned
// Result, and the machine-readable JSONL trace.
package pmrace_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	pmrace "github.com/pmrace-go/pmrace"
	"github.com/pmrace-go/pmrace/internal/obs"
)

// TestCampaignEventStreamDeterminism runs the same fully sequential
// configuration twice (one worker, one driver thread, no exploration
// scheduling, fixed seed) and asserts the two event sequences are identical
// modulo timestamps: same kinds, same payloads, in the same order.
func TestCampaignEventStreamDeterminism(t *testing.T) {
	run := func() []string {
		col := pmrace.NewCollector()
		c, err := pmrace.NewCampaign(context.Background(), "pclht",
			pmrace.WithBudget(25, time.Minute),
			pmrace.WithWorkers(1),
			pmrace.WithThreads(1),
			pmrace.WithMode(pmrace.ModeNone),
			pmrace.WithSeed(7),
			pmrace.WithInlineValidation(),
			pmrace.WithSink(col),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		evs := col.Events()
		fps := make([]string, len(evs))
		for i, ev := range evs {
			fps[i] = obs.Fingerprint(ev)
		}
		return fps
	}

	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n  run1: %s\n  run2: %s", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("no events recorded")
	}
	if a[len(a)-1][:13] != "campaign_done" {
		t.Fatalf("last event is not campaign_done: %s", a[len(a)-1])
	}
}

// TestCampaignCancelLatency cancels the context after the first completed
// execution of a large-budget campaign and asserts every worker stops within
// one execution — far before the budget would have been exhausted.
func TestCampaignCancelLatency(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := pmrace.NewCampaign(ctx, "pclht",
		pmrace.WithBudget(1<<30, time.Hour),
		pmrace.WithWorkers(4),
		pmrace.WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for proof that fuzzing is underway, then cancel.
	sawExec := false
	for ev := range c.Events() {
		if _, ok := ev.(*pmrace.ExecDone); ok && !sawExec {
			sawExec = true
			cancel()
			break
		}
	}
	if !sawExec {
		t.Fatal("event stream ended without a single ExecDone")
	}

	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-c.Done()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not stop within 30s of cancellation")
	}
	latency := time.Since(start)

	res, err := c.Wait()
	if err != nil {
		t.Fatalf("cancelled campaign returned error: %v", err)
	}
	if res == nil || res.Execs < 1 {
		t.Fatalf("cancelled campaign lost its partial results: %+v", res)
	}
	if res.Execs >= 1<<30 {
		t.Fatal("campaign ran to budget despite cancellation")
	}
	t.Logf("cancel -> done in %s after %d execs", latency, res.Execs)
}

// TestCampaignSnapshotMatchesResult asserts that the live statistics
// snapshot after completion and the terminal CampaignDone event both agree
// with the returned Result's aggregates.
func TestCampaignSnapshotMatchesResult(t *testing.T) {
	col := pmrace.NewCollector()
	c, err := pmrace.NewCampaign(context.Background(), "pclht",
		pmrace.WithBudget(30, time.Minute),
		pmrace.WithWorkers(2),
		pmrace.WithSeed(11),
		pmrace.WithSink(col),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}

	var final *pmrace.CampaignDone
	for _, ev := range col.Events() {
		if d, ok := ev.(*pmrace.CampaignDone); ok {
			final = d
		}
	}
	if final == nil {
		t.Fatal("no CampaignDone event recorded")
	}

	check := func(name string, stats pmrace.Stats) {
		t.Helper()
		if stats.Execs != res.Execs {
			t.Errorf("%s: Execs = %d, Result.Execs = %d", name, stats.Execs, res.Execs)
		}
		if stats.Seeds != res.Seeds {
			t.Errorf("%s: Seeds = %d, Result.Seeds = %d", name, stats.Seeds, res.Seeds)
		}
		if stats.BranchCov != res.BranchCov {
			t.Errorf("%s: BranchCov = %d, Result.BranchCov = %d", name, stats.BranchCov, res.BranchCov)
		}
		if stats.AliasCov != res.AliasCov {
			t.Errorf("%s: AliasCov = %d, Result.AliasCov = %d", name, stats.AliasCov, res.AliasCov)
		}
		if stats.Bugs != len(res.Bugs) {
			t.Errorf("%s: Bugs = %d, len(Result.Bugs) = %d", name, stats.Bugs, len(res.Bugs))
		}
		if stats.Target != res.Target {
			t.Errorf("%s: Target = %q, Result.Target = %q", name, stats.Target, res.Target)
		}
		if stats.Mode != res.Mode.String() {
			t.Errorf("%s: Mode = %q, Result.Mode = %q", name, stats.Mode, res.Mode.String())
		}
		wantInc := len(res.DB.Inconsistencies()) + len(res.DB.Syncs())
		if stats.Inconsistencies != wantInc {
			t.Errorf("%s: Inconsistencies = %d, want %d", name, stats.Inconsistencies, wantInc)
		}
	}
	check("CampaignDone.Stats", final.Stats)
	check("Snapshot()", c.Snapshot())
}

// jsonlLine mirrors the trace envelope: {kind, seq, at_ms, data}.
type jsonlLine struct {
	Kind string          `json:"kind"`
	Seq  uint64          `json:"seq"`
	AtMs float64         `json:"at_ms"`
	Data json.RawMessage `json:"data"`
}

// TestCampaignJSONLTrace runs a campaign with the JSONL trace sink and
// asserts every line parses, the sequence numbers are strictly increasing
// (single worker = single producer), and the final campaign_done line's
// stats equal the returned Result.
func TestCampaignJSONLTrace(t *testing.T) {
	var buf bytes.Buffer
	c, err := pmrace.NewCampaign(context.Background(), "pclht",
		pmrace.WithBudget(20, time.Minute),
		pmrace.WithWorkers(1),
		pmrace.WithSeed(5),
		pmrace.WithJSONTrace(&buf),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("trace has only %d lines", len(lines))
	}
	var last jsonlLine
	var prevSeq uint64
	kinds := map[string]int{}
	for i, ln := range lines {
		var l jsonlLine
		if err := json.Unmarshal(ln, &l); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, ln)
		}
		if l.Seq <= prevSeq {
			t.Fatalf("line %d: seq %d not greater than previous %d", i, l.Seq, prevSeq)
		}
		prevSeq = l.Seq
		kinds[l.Kind]++
		last = l
	}
	if kinds["exec_done"] != res.Execs {
		t.Errorf("trace has %d exec_done lines, Result.Execs = %d", kinds["exec_done"], res.Execs)
	}
	if last.Kind != "campaign_done" {
		t.Fatalf("last trace line is %q, want campaign_done", last.Kind)
	}

	var payload struct {
		Stats pmrace.Stats `json:"stats"`
	}
	if err := json.Unmarshal(last.Data, &payload); err != nil {
		t.Fatalf("campaign_done payload: %v", err)
	}
	st := payload.Stats
	if st.Execs != res.Execs || st.Seeds != res.Seeds ||
		st.BranchCov != res.BranchCov || st.AliasCov != res.AliasCov ||
		st.Bugs != len(res.Bugs) {
		t.Errorf("campaign_done stats %+v do not match Result (execs=%d seeds=%d br=%d al=%d bugs=%d)",
			st, res.Execs, res.Seeds, res.BranchCov, res.AliasCov, len(res.Bugs))
	}
}

// TestCampaignStateLifecycle walks a campaign through the typed lifecycle:
// Running while in flight, Done after a completed budget, Cancelled after a
// context cancellation — and the Snapshot stats carry the same string.
func TestCampaignStateLifecycle(t *testing.T) {
	c, err := pmrace.NewCampaign(context.Background(), "pclht",
		pmrace.WithBudget(5, time.Minute), pmrace.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := c.State(); st != pmrace.StateRunning && st != pmrace.StateDone {
		t.Fatalf("in-flight state = %q", st)
	}
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := c.State(); st != pmrace.StateDone {
		t.Fatalf("terminal state = %q, want %q", st, pmrace.StateDone)
	}
	if got := c.Snapshot().State; got != string(pmrace.StateDone) {
		t.Fatalf("snapshot state = %q, want %q", got, pmrace.StateDone)
	}
	if !pmrace.StateDone.Terminal() || pmrace.StateRunning.Terminal() {
		t.Fatal("Terminal() misclassifies states")
	}

	ctx, cancel := context.WithCancel(context.Background())
	c2, err := pmrace.NewCampaign(ctx, "pclht",
		pmrace.WithBudget(1_000_000, time.Hour), pmrace.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := c2.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := c2.State(); st != pmrace.StateCancelled {
		t.Fatalf("cancelled campaign state = %q, want %q", st, pmrace.StateCancelled)
	}
}
