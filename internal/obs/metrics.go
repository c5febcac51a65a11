package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Standard metric names; keeping them here stops dashboards and code
// drifting. The emitter derives the execution, seed, interleaving,
// inconsistency, validation, crash-state, bug and coverage series and the
// exec_run and validate stage histograms from the typed events
// (Emitter.Emit); the rest are facts with no event, which their producers
// count directly. Stage latency histograms are named by SpanHistName.
const (
	MExecs                = "fuzz_execs_total"
	MSeedsAccepted        = "corpus_seeds_accepted_total"
	MInterleavings        = "sched_interleavings_total"
	MInterleavingsPruned  = "sched_interleavings_pruned_total"
	MInconsistencies      = "detect_inconsistencies_total"
	MBugs                 = "detect_bugs_total"
	MCheckpointRestores   = "exec_checkpoint_restores_total"
	MValidations          = "validate_runs_total"
	MValidateCrashStates  = "validate_crash_states_total"
	MValidateWallTimeouts = "validate_wall_timeouts_total"
	// Lock hangs (spin locks and LockMutex mutexes), one series per
	// rt.HangReport.Reason, and the PM-aware waits that ended on their
	// timer instead of an event.
	MLockHangsCycle      = "rt_lock_hangs_cycle_total"
	MLockHangsDeadOwner  = "rt_lock_hangs_dead_owner_total"
	MLockHangsOwnLock    = "rt_lock_hangs_own_lock_total"
	MLockHangsDeadline   = "rt_lock_hangs_deadline_total"
	MCondWaitTimeouts    = "sched_cond_wait_timeouts_total"
	MWriterStallTimeouts = "sched_writer_stall_timeouts_total"
	MEventsDropped       = "obs_events_dropped_total"
	GQueueDepth          = "serve_queue_depth"
	GWorkerBudgetInUse   = "serve_worker_budget_in_use"
	MBranchCov           = "cover_branch_bits"
	MAliasCov            = "cover_alias_bits"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-receiver safe so producers can hold a nil handle when metrics are
// disabled without branching at every increment site.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically updated instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two latency buckets; bucket i holds
// observations with ceil(log2(us)) == i, so the range spans 1µs..~2200s.
const histBuckets = 32

// Histogram accumulates durations into lock-free power-of-two buckets: one
// atomic add per observation, no mutex on the hot path. A histogram can also
// carry one exemplar: a pointer from the latency distribution to a concrete
// artifact (bundle name) that exhibited it, surfaced in JSON snapshots.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	ex      atomic.Pointer[Exemplar]
}

// Exemplar links a histogram to one concrete observation's artifact.
type Exemplar struct {
	// Label identifies the exemplar source, e.g. an artifact bundle name.
	Label string `json:"label"`
	// Value is the observation's duration.
	Value time.Duration `json:"value_ns"`
}

// SetExemplar records label as the histogram's exemplar (last writer wins).
func (h *Histogram) SetExemplar(label string, v time.Duration) {
	if h == nil || label == "" {
		return
	}
	h.ex.Store(&Exemplar{Label: label, Value: v})
}

// Exemplar returns the current exemplar, or nil.
func (h *Histogram) Exemplar() *Exemplar {
	if h == nil {
		return nil
	}
	return h.ex.Load()
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	us := d.Microseconds()
	// bits.Len64(us-1) is ceil(log2(us)): exactly 2^i µs lands in bucket i,
	// matching the inclusive le=2^i µs bound the Prometheus renderer
	// exports for it. Non-positive durations land in bucket 0.
	var idx int
	if us > 0 {
		idx = bits.Len64(uint64(us) - 1)
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Buckets returns a copy of the raw per-bucket counts plus the total count
// and sum in nanoseconds. Bucket i holds observations with
// ceil(log2(microseconds)) == i, i.e. durations in (2^(i-1), 2^i] µs (the
// last bucket also absorbs overflow); the Prometheus renderer turns these
// into cumulative le-bounds. count is the sum of the copied buckets, so a
// copy racing Observe never has a bucket total above its count.
func (h *Histogram) Buckets() (counts [histBuckets]int64, count, sumNs int64) {
	if h == nil {
		return
	}
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		count += counts[i]
	}
	return counts, count, h.sum.Load()
}

// HistStat is a histogram snapshot.
type HistStat struct {
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Mean  time.Duration `json:"mean_ns"`
	// P50/P95 are bucket-upper-bound approximations.
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	// Exemplar links the distribution to a concrete artifact when one was
	// recorded (e.g. the bundle name of a validated finding).
	Exemplar   string        `json:"exemplar,omitempty"`
	ExemplarNs time.Duration `json:"exemplar_ns,omitempty"`
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistStat {
	if h == nil {
		return HistStat{}
	}
	var st HistStat
	st.Count = h.count.Load()
	st.Sum = time.Duration(h.sum.Load())
	if st.Count == 0 {
		return st
	}
	st.Mean = st.Sum / time.Duration(st.Count)
	st.P50 = h.quantile(st.Count, 0.50)
	st.P95 = h.quantile(st.Count, 0.95)
	if ex := h.ex.Load(); ex != nil {
		st.Exemplar = ex.Label
		st.ExemplarNs = ex.Value
	}
	return st
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// quantile returns the upper bound of the bucket containing the q-quantile.
func (h *Histogram) quantile(count int64, q float64) time.Duration {
	rank := int64(q * float64(count))
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum > rank {
			// Bucket i holds values up to 2^i microseconds.
			return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
		}
	}
	// Unreachable: the last bucket absorbs every overflow observation.
	return time.Duration(uint64(1)<<(histBuckets-1)) * time.Microsecond
}

// Registry is a names-to-metrics map with lock-free metric updates.
// Get-or-create goes through a mutex (rare); producers cache the returned
// handles, so steady-state cost is one atomic op per update.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Safe to call
// on a nil registry (returns a nil, no-op handle).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// MetricsSnapshot is a point-in-time copy of every registered metric.
type MetricsSnapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms map[string]HistStat `json:"histograms"`
}

// Snapshot copies all metric values.
func (r *Registry) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistStat),
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		snap.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		snap.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		snap.Histograms[n] = h.Snapshot()
	}
	return snap
}

// Names returns all registered metric names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
