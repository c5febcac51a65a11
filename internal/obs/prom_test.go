package obs

import (
	"bytes"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"span_exec_run":  "span_exec_run",
		"weird-name.x":   "weird_name_x",
		"9lives":         "_9lives",
		"a:b":            "a:b",
		"CamelCase_ok":   "CamelCase_ok",
		"with space/sep": "with_space_sep",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusCountersGauges(t *testing.T) {
	r := NewRegistry()
	r.Counter(MBugs).Add(3)
	r.Gauge(MBranchCov).Set(17)
	var b bytes.Buffer
	if err := WritePrometheusLabeled(&b, LabeledRegistry{Reg: r}); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE pmrace_cover_branch_bits gauge\n" +
		"pmrace_cover_branch_bits 17\n" +
		"# TYPE pmrace_detect_bugs_total counter\n" +
		"pmrace_detect_bugs_total 3\n"
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n got: %q\nwant: %q", b.String(), want)
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var b bytes.Buffer
	if err := WritePrometheusLabeled(&b, LabeledRegistry{}); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry: err=%v out=%q", err, b.String())
	}
}

// promSample is one parsed non-comment exposition line.
type promSample struct {
	name  string
	le    string // histogram bucket label, "" otherwise
	value float64
}

// parsePrometheus is a minimal text-format parser: it checks every line is
// `name[{le="v"}] value` with a numeric value, that every sample belongs to
// a family declared by a preceding # TYPE line, and returns the samples.
func parsePrometheus(t *testing.T, text string) (samples []promSample, types map[string]string) {
	t.Helper()
	types = make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, valStr := line[:sp], line[sp+1:]
		var s promSample
		if i := strings.IndexByte(name, '{'); i >= 0 {
			label := name[i:]
			s.name = name[:i]
			if !strings.HasPrefix(label, `{le="`) || !strings.HasSuffix(label, `"}`) {
				t.Fatalf("unexpected label set %q", label)
			}
			s.le = label[len(`{le="`) : len(label)-len(`"}`)]
		} else {
			s.name = name
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		s.value = v
		// Every sample must belong to a declared family: its name or,
		// for histogram series, the name minus the suffix.
		base := s.name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if _, ok := types[base]; !ok && strings.HasSuffix(base, suf) {
				base = strings.TrimSuffix(base, suf)
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %q has no # TYPE declaration", s.name)
		}
		samples = append(samples, s)
	}
	return samples, types
}

func TestWritePrometheusHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(SpanHistName(SpanExecRun))
	for _, d := range []time.Duration{
		500 * time.Nanosecond, // bucket 0 (sub-microsecond)
		time.Microsecond,      // bucket 0 (le="1e-06" is inclusive)
		3 * time.Microsecond,  // bucket 2
		5 * time.Second,       // mid-range
		5000 * time.Second,    // overflow: only visible in +Inf
	} {
		h.Observe(d)
	}
	var b bytes.Buffer
	if err := WritePrometheusLabeled(&b, LabeledRegistry{Reg: r}); err != nil {
		t.Fatal(err)
	}
	samples, types := parsePrometheus(t, b.String())
	if types["pmrace_span_exec_run_seconds"] != "histogram" {
		t.Fatalf("family type = %q, want histogram (types: %v)", types["pmrace_span_exec_run_seconds"], types)
	}

	var les []float64
	var cum []float64
	var sum, count float64
	for _, s := range samples {
		switch s.name {
		case "pmrace_span_exec_run_seconds_bucket":
			if s.le == "+Inf" {
				les = append(les, 1e308)
			} else {
				le, err := strconv.ParseFloat(s.le, 64)
				if err != nil {
					t.Fatalf("bucket le %q: %v", s.le, err)
				}
				les = append(les, le)
			}
			cum = append(cum, s.value)
		case "pmrace_span_exec_run_seconds_sum":
			sum = s.value
		case "pmrace_span_exec_run_seconds_count":
			count = s.value
		}
	}
	if len(les) != histBuckets {
		t.Fatalf("bucket lines = %d, want %d (31 finite + +Inf)", len(les), histBuckets)
	}
	if !sort.Float64sAreSorted(les) {
		t.Fatalf("le bounds not increasing: %v", les)
	}
	if les[0] != 1e-6 {
		t.Fatalf("first le = %v, want 1e-06", les[0])
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative counts decrease at %d: %v", i, cum)
		}
	}
	if count != 5 || cum[len(cum)-1] != 5 {
		t.Fatalf("count = %v, +Inf = %v, want 5", count, cum[len(cum)-1])
	}
	// The finite buckets hold only the four in-range observations; the
	// 5000s overflow appears in +Inf alone.
	if cum[len(cum)-2] != 4 {
		t.Fatalf("last finite bucket = %v, want 4", cum[len(cum)-2])
	}
	wantSum := 5005.000004 + 500e-9
	if diff := sum - wantSum; diff < -1e-6 || diff > 1e-6 {
		t.Fatalf("sum = %v, want ~%v", sum, wantSum)
	}
}

// TestHistogramBucketInclusive pins Prometheus le-inclusivity: a duration of
// exactly 2^i µs must count toward the le=2^i µs bucket, not the next one.
func TestHistogramBucketInclusive(t *testing.T) {
	h := &Histogram{}
	h.Observe(time.Microsecond)        // le="1e-06"
	h.Observe(2 * time.Microsecond)    // le="2e-06"
	h.Observe(1024 * time.Microsecond) // le="0.001024"
	counts, count, _ := h.Buckets()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	for i, want := range map[int]int64{0: 1, 1: 1, 10: 1} {
		if counts[i] != want {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, counts[i], want, counts[:12])
		}
	}
}

// TestHistogramBucketsConsistent checks a Buckets copy racing Observe
// never holds more bucket observations than its count: the exposition's
// finite le buckets must stay at or below +Inf and _count.
func TestHistogramBucketsConsistent(t *testing.T) {
	h := &Histogram{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(time.Duration(i%4096+w) * time.Microsecond)
			}
		}(w)
	}
	for i := 0; i < 20000; i++ {
		counts, count, _ := h.Buckets()
		var sum int64
		for _, c := range counts {
			sum += c
		}
		if sum != count {
			close(stop)
			wg.Wait()
			t.Fatalf("copy %d: buckets sum to %d, count = %d", i, sum, count)
		}
	}
	close(stop)
	wg.Wait()
}

func TestWritePrometheusSortedAcrossKinds(t *testing.T) {
	r := NewRegistry()
	r.Counter(MExecs).Inc()
	r.Counter(MBugs).Inc()
	r.Gauge(MAliasCov).Set(1)
	r.Histogram(SpanHistName(SpanValidate)).Observe(time.Millisecond)
	var b bytes.Buffer
	if err := WritePrometheusLabeled(&b, LabeledRegistry{Reg: r}); err != nil {
		t.Fatal(err)
	}
	var fams []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fams = append(fams, strings.Fields(line)[2])
		}
	}
	if !sort.StringsAreSorted(fams) {
		t.Fatalf("families not sorted: %v", fams)
	}
	// Rendering twice produces identical output (deterministic).
	var b2 bytes.Buffer
	if err := WritePrometheusLabeled(&b2, LabeledRegistry{Reg: r}); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Fatal("exposition output not deterministic")
	}
}

// TestWritePrometheusLabeled merges two registries under distinct campaign
// labels: one # TYPE line per family, one labeled sample series per
// registry, histogram buckets carrying the labels before le, and label
// values escaped.
func TestWritePrometheusLabeled(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter(MExecs).Add(3)
	r2.Counter(MExecs).Add(5)
	r1.Gauge(MBranchCov).Set(7)
	r1.Histogram(SpanHistName(SpanValidate)).Observe(time.Millisecond)

	var b bytes.Buffer
	err := WritePrometheusLabeled(&b,
		LabeledRegistry{Labels: []Label{{"campaign", "c0001"}, {"target", "pclht"}}, Reg: r1},
		LabeledRegistry{Labels: []Label{{"campaign", "c0002"}, {"target", `x"y`}}, Reg: r2},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()

	if n := strings.Count(out, "# TYPE pmrace_fuzz_execs_total counter"); n != 1 {
		t.Fatalf("exec family TYPE line appears %d times:\n%s", n, out)
	}
	for _, want := range []string{
		`pmrace_fuzz_execs_total{campaign="c0001",target="pclht"} 3`,
		`pmrace_fuzz_execs_total{campaign="c0002",target="x\"y"} 5`,
		`pmrace_cover_branch_bits{campaign="c0001",target="pclht"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing sample %q in:\n%s", want, out)
		}
	}
	// Histogram samples carry the label set too: buckets merge it with le,
	// sum/count wrap it alone.
	if !strings.Contains(out, `_bucket{campaign="c0001",target="pclht",le=`) {
		t.Errorf("histogram buckets not labeled:\n%s", out)
	}
	if !strings.Contains(out, `_count{campaign="c0001",target="pclht"} 1`) {
		t.Errorf("histogram count not labeled:\n%s", out)
	}
	// A registry without labels renders plain samples.
	var plain bytes.Buffer
	if err := WritePrometheusLabeled(&plain, LabeledRegistry{Reg: r1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain.String(), "pmrace_fuzz_execs_total 3\n") {
		t.Errorf("unlabeled exposition changed:\n%s", plain.String())
	}
}
