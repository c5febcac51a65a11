// Tests for campaign span tracing: deterministic per-lane nesting, sampling
// cardinality bounds, Chrome trace-event export, and spans.json delivery in
// forensic bundles.
package pmrace_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	pmrace "github.com/pmrace-go/pmrace"
	"github.com/pmrace-go/pmrace/internal/artifact"
	"github.com/pmrace-go/pmrace/internal/obs"
)

// checkNesting asserts spans on each lane nest like a call stack: a span
// overlapping a still-open span on its lane must close before it.
func checkNesting(t *testing.T, spans []obs.Span) {
	t.Helper()
	stacks := make(map[int][]obs.Span)
	for _, s := range spans { // Snapshot order: by StartNs, ties by ID
		st := stacks[s.Lane]
		for len(st) > 0 && st[len(st)-1].StartNs+st[len(st)-1].DurNs <= s.StartNs {
			st = st[:len(st)-1]
		}
		if len(st) > 0 {
			top := st[len(st)-1]
			if s.StartNs+s.DurNs > top.StartNs+top.DurNs {
				t.Fatalf("lane %d: span %s [%d,%d] overlaps %s [%d,%d] without nesting",
					s.Lane, s.Name, s.StartNs, s.StartNs+s.DurNs,
					top.Name, top.StartNs, top.StartNs+top.DurNs)
			}
		}
		stacks[s.Lane] = append(st, s)
	}
}

// TestCampaignSpanNesting runs a fully sequential traced campaign and checks
// the span timeline: per-lane nesting holds, every span name is from the
// fixed set, the expected lifecycle stages appear, and the Chrome export
// passes the shape validator.
func TestCampaignSpanNesting(t *testing.T) {
	c, err := pmrace.NewCampaign(context.Background(), "pclht",
		pmrace.WithBudget(25, time.Minute),
		pmrace.WithWorkers(1),
		pmrace.WithThreads(1),
		pmrace.WithMode(pmrace.ModeNone),
		pmrace.WithSeed(7),
		pmrace.WithTracing(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	for range c.Events() {
	}
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}

	spans := c.Spans()
	if len(spans) == 0 {
		t.Fatal("traced campaign recorded no spans")
	}
	checkNesting(t, spans)

	allowed := make(map[string]bool)
	for _, n := range obs.SpanNames() {
		allowed[n] = true
	}
	seen := make(map[string]int)
	for _, s := range spans {
		if !allowed[s.Name] {
			t.Fatalf("span name %q outside the fixed set", s.Name)
		}
		seen[s.Name]++
	}
	for _, want := range []string{obs.SpanCampaign, obs.SpanSeedPick, obs.SpanExecRun, obs.SpanConflictAnalysis} {
		if seen[want] == 0 {
			t.Fatalf("no %s span recorded (saw %v)", want, seen)
		}
	}
	if seen[obs.SpanCampaign] != 1 {
		t.Fatalf("recorded %d campaign spans, want 1", seen[obs.SpanCampaign])
	}

	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("campaign export fails the trace-event validator: %v", err)
	}
}

// TestCampaignSpanSampling checks the default-off and sampled contracts: an
// untraced campaign records nothing (and WriteTrace refuses), and a sampled
// campaign records far fewer exec_run spans than executions.
func TestCampaignSpanSampling(t *testing.T) {
	run := func(opts ...pmrace.CampaignOption) *pmrace.Campaign {
		base := []pmrace.CampaignOption{
			pmrace.WithBudget(40, time.Minute),
			pmrace.WithWorkers(1),
			pmrace.WithThreads(1),
			pmrace.WithMode(pmrace.ModeNone),
			pmrace.WithSeed(7),
		}
		c, err := pmrace.NewCampaign(context.Background(), "pclht", append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		for range c.Events() {
		}
		if _, err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		return c
	}

	plain := run()
	if plain.Spans() != nil {
		t.Fatal("tracing must be off by default")
	}
	if err := plain.WriteTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTrace on an untraced campaign must error")
	}

	sampled := run(pmrace.WithTracing(8))
	res, _ := sampled.Wait()
	execSpans := 0
	for _, s := range sampled.Spans() {
		if s.Name == obs.SpanExecRun {
			execSpans++
		}
	}
	if execSpans == 0 {
		t.Fatal("sampled campaign recorded no exec_run spans")
	}
	if execSpans > res.Execs/2 {
		t.Fatalf("sampling rate 8 recorded %d exec_run spans over %d execs", execSpans, res.Execs)
	}
}

// TestCampaignBundleSpans checks every forensic bundle of a traced campaign
// carries spans.json with the flight-recorder snapshot at bundle time.
func TestCampaignBundleSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("full fuzzing loop")
	}
	dir := t.TempDir()
	c, err := pmrace.NewCampaign(context.Background(), "pclht",
		pmrace.WithBudget(60, time.Minute),
		pmrace.WithWorkers(2),
		pmrace.WithSeed(7),
		pmrace.WithKeySpace(12),
		pmrace.WithOpsPerSeed(40),
		pmrace.WithArtifacts(dir),
		pmrace.WithTracing(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	for range c.Events() {
	}
	res, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bugs) == 0 {
		t.Fatal("campaign found no bugs, cannot test bundle spans")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	bundles := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		bundles++
		path := filepath.Join(dir, e.Name())
		if _, err := os.Stat(filepath.Join(path, artifact.SpansFile)); err != nil {
			t.Fatalf("bundle %s has no %s: %v", e.Name(), artifact.SpansFile, err)
		}
		b, err := artifact.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Spans) == 0 {
			t.Fatalf("bundle %s: spans.json is empty for a traced campaign", e.Name())
		}
	}
	if bundles == 0 {
		t.Fatalf("no bundles written for %d bugs", len(res.Bugs))
	}
}
