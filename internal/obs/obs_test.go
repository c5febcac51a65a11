package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryCounterConcurrent hammers one counter from 8 goroutines and
// checks the total is exact.
func TestRegistryCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter(MExecs)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 80000 {
		t.Fatalf("counter = %d, want 80000", got)
	}
	if reg.Counter(MExecs) != c {
		t.Fatal("Counter is not get-or-create: second lookup returned a new handle")
	}
}

// TestNilMetricHandles checks every metric type is nil-receiver safe, so
// producers can hold nil handles when metrics are disabled.
func TestNilMetricHandles(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	c.Inc()
	c.Add(3)
	g.Set(7)
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil metric handles must read as zero")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	r.Snapshot() // must not panic
}

// TestHistogramSnapshot checks count/sum/mean and that the quantile bounds
// bracket the observations.
func TestHistogramSnapshot(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Microsecond)
	}
	h.Observe(50 * time.Millisecond)
	st := h.Snapshot()
	if st.Count != 101 {
		t.Fatalf("count = %d, want 101", st.Count)
	}
	wantSum := 100*100*time.Microsecond + 50*time.Millisecond
	if st.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", st.Sum, wantSum)
	}
	if st.P50 < 100*time.Microsecond || st.P50 > time.Millisecond {
		t.Fatalf("p50 = %v, want a bucket bound near 100µs", st.P50)
	}
	if st.P95 > st.P50*1024 {
		t.Fatalf("p95 = %v implausibly far above p50 %v", st.P95, st.P50)
	}
}

// TestEmitterStampsAndSinks checks sequence stamping and synchronous sink
// fan-out.
func TestEmitterStampsAndSinks(t *testing.T) {
	col := NewCollector()
	em := NewEmitter(col)
	em.Emit(&PhaseChange{Phase: "fuzzing", Prev: "init"})
	em.Emit(&ExecDone{Exec: 1, NewBits: 3})
	if err := em.Close(); err != nil {
		t.Fatal(err)
	}
	evs := col.Events()
	if len(evs) != 2 {
		t.Fatalf("collector saw %d events, want 2", len(evs))
	}
	if evs[0].Meta().Seq != 1 || evs[1].Meta().Seq != 2 {
		t.Fatalf("bad sequence stamps: %d, %d", evs[0].Meta().Seq, evs[1].Meta().Seq)
	}
	if evs[1].Kind() != KindExecDone {
		t.Fatalf("kind = %s, want %s", evs[1].Kind(), KindExecDone)
	}
	// Emit after Close is a silent no-op.
	em.Emit(&ExecDone{Exec: 2})
	if len(col.Events()) != 2 {
		t.Fatal("emit after Close reached the sink")
	}
}

// TestEmitterNil checks the nil emitter is inert.
func TestEmitterNil(t *testing.T) {
	var em *Emitter
	em.Emit(&ExecDone{})
	if em.Registry() != nil {
		t.Fatal("nil emitter must return a nil registry")
	}
	if em.Dropped() != 0 {
		t.Fatal("nil emitter must report no drops")
	}
	if err := em.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEmitterChannelRing checks ring-buffer shedding: with a full buffer and
// no consumer, old events are displaced and the final event still lands.
func TestEmitterChannelRing(t *testing.T) {
	em := NewEmitter()
	ch, _ := em.Subscribe(4)
	for i := 1; i <= 10; i++ {
		em.Emit(&ExecDone{Exec: i})
	}
	em.Emit(&CampaignDone{Stats: Stats{Execs: 10}})
	em.Close()
	var got []Event
	for ev := range ch {
		got = append(got, ev)
	}
	if len(got) != 4 {
		t.Fatalf("buffered %d events, want 4", len(got))
	}
	if _, ok := got[len(got)-1].(*CampaignDone); !ok {
		t.Fatalf("last buffered event is %T, want *CampaignDone", got[len(got)-1])
	}
	if em.Dropped() == 0 {
		t.Fatal("expected dropped-event accounting")
	}
}

// TestJSONLSink checks every line is standalone-parseable and carries the
// envelope plus payload.
func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	em := NewEmitter(NewJSONLSink(&buf))
	em.Emit(&ExecDone{Exec: 7, Worker: 2, NewBits: 5, BranchCov: 100, AliasCov: 40})
	em.Emit(&BugConfirmed{Class: "inter", Site: "pclht.go:42"})
	em.Emit(&CampaignDone{Stats: Stats{Target: "pclht", Execs: 7, Bugs: 1}})
	if err := em.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want 3", len(lines))
	}
	type envelope struct {
		Kind Kind                   `json:"kind"`
		Seq  uint64                 `json:"seq"`
		AtMs float64                `json:"at_ms"`
		Data map[string]interface{} `json:"data"`
	}
	var last envelope
	for i, line := range lines {
		var env envelope
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("line %d not parseable: %v\n%s", i, err, line)
		}
		if env.Seq != uint64(i+1) {
			t.Fatalf("line %d seq = %d", i, env.Seq)
		}
		last = env
	}
	if last.Kind != KindCampaignDone {
		t.Fatalf("last line kind = %s, want %s", last.Kind, KindCampaignDone)
	}
	stats, ok := last.Data["stats"].(map[string]interface{})
	if !ok {
		t.Fatalf("campaign_done payload missing stats: %v", last.Data)
	}
	if stats["execs"].(float64) != 7 || stats["bugs"].(float64) != 1 {
		t.Fatalf("campaign_done stats = %v", stats)
	}
}

// TestProgressSink checks the renderer emits a final line on Close.
func TestProgressSink(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	p := NewProgressSink(w, time.Hour, func() Stats {
		return Stats{Execs: 42, ExecsPerSec: 21.5, BranchCov: 9, Bugs: 1}
	})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "42 execs") || !strings.HasSuffix(out, "\n") {
		t.Fatalf("progress output %q", out)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestFingerprintStable checks fingerprints ignore stamps and timing.
func TestFingerprintStable(t *testing.T) {
	a := &ExecDone{Exec: 3, NewBits: 1, Duration: 5 * time.Millisecond}
	a.Seq, a.At = 9, time.Second
	b := &ExecDone{Exec: 3, NewBits: 1, Duration: 9 * time.Millisecond}
	b.Seq, b.At = 2, time.Minute
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatalf("fingerprints differ:\n%s\n%s", Fingerprint(a), Fingerprint(b))
	}
	if Fingerprint(a) == Fingerprint(&ExecDone{Exec: 4, NewBits: 1}) {
		t.Fatal("fingerprint must include payload fields")
	}
}

// TestEmitterDerivesEventMetrics checks each event kind moves exactly its
// own registry metrics, by the amounts its fields state, and nothing else.
// Histograms are keyed by name (observation count) and name+"_sum" (ns).
func TestEmitterDerivesEventMetrics(t *testing.T) {
	cases := []struct {
		ev   Event
		want map[string]int64
	}{
		{&PhaseChange{Phase: "fuzzing", Prev: "init"}, nil},
		{&ExecDone{Exec: 1, BranchCov: 17, AliasCov: 5, Candidates: 9, Inconsistencies: 2, Syncs: 1, Duration: 3 * time.Millisecond},
			map[string]int64{
				MExecs: 1, MInconsistencies: 3, MBranchCov: 17, MAliasCov: 5,
				SpanHistName(SpanExecRun): 1, SpanHistName(SpanExecRun) + "_sum": int64(3 * time.Millisecond),
			}},
		{&SeedAccepted{Origin: "initial", Ops: 4, CorpusSize: 1}, map[string]int64{MSeedsAccepted: 1}},
		{&InterleavingScheduled{Addr: 64, Priority: 3}, map[string]int64{MInterleavings: 1}},
		{&InconsistencyFound{Class: "inter"}, nil},
		{&ValidationVerdict{Class: "sync", Status: "bug", CrashStates: 4, Latency: 7 * time.Millisecond},
			map[string]int64{
				MValidations: 1, MValidateCrashStates: 4,
				SpanHistName(SpanValidate): 1, SpanHistName(SpanValidate) + "_sum": int64(7 * time.Millisecond),
			}},
		{&BugConfirmed{Class: "inter", Site: "pclht.go:42"}, map[string]int64{MBugs: 1}},
		{&CampaignDone{Stats: Stats{Execs: 1, Bugs: 1}}, nil},
	}
	values := func(reg *Registry) map[string]int64 {
		snap := reg.Snapshot()
		out := make(map[string]int64)
		for n, v := range snap.Counters {
			out[n] = v
		}
		for n, v := range snap.Gauges {
			out[n] = v
		}
		for n, h := range snap.Histograms {
			out[n] = h.Count
			out[n+"_sum"] = int64(h.Sum)
		}
		return out
	}
	for _, tc := range cases {
		em := NewEmitter()
		before := values(em.Registry())
		em.Emit(tc.ev)
		got := make(map[string]int64)
		for n, v := range values(em.Registry()) {
			if d := v - before[n]; d != 0 {
				got[n] = d
			}
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s moved %v, want %v", tc.ev.Kind(), got, tc.want)
			continue
		}
		for n, d := range tc.want {
			if got[n] != d {
				t.Errorf("%s moved %v, want %v", tc.ev.Kind(), got, tc.want)
				break
			}
		}
	}
}
