package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Emitter is the hub every producer layer emits through. It stamps events
// with a sequence number and elapsed time, forwards them synchronously to
// the attached sinks, and offers bounded subscriber channels with
// ring-buffer semantics: when a consumer falls behind, the oldest buffered
// event is shed so the hot path never blocks on a slow reader. Sinks never
// drop.
//
// Emit is also the one writer of every registry metric that restates a
// typed event (see count): producers emit the fact and never bump its
// counter beside it. The Registry is exposed for reads and for the facts
// that have no event, whose producers cache their own handles.
//
// A nil *Emitter is a valid no-op producer target, so layers like the
// detection DB can emit unconditionally.
type Emitter struct {
	start   time.Time
	seq     atomic.Uint64
	reg     *Registry
	dropped *Counter
	ev      eventMetrics

	mu       sync.Mutex
	sinks    []Sink
	subs     []chan Event
	closed   bool
	terminal Event // the CampaignDone event, once emitted
}

// NewEmitter creates an emitter with the given sinks attached.
func NewEmitter(sinks ...Sink) *Emitter {
	e := &Emitter{start: time.Now(), reg: NewRegistry(), sinks: sinks}
	e.dropped = e.reg.Counter(MEventsDropped)
	e.ev = newEventMetrics(e.reg)
	return e
}

// eventMetrics are the cached handles of the event-derived registry
// series; Emit updates them and nothing else writes them. The two stage
// histograms are the exec_run and validate span histograms: these events
// time every execution and every verdict, so the tracer leaves them alone.
type eventMetrics struct {
	execs, seeds, interleavings, inconsistencies *Counter
	validations, crashStates, bugs               *Counter
	branchCov, aliasCov                          *Gauge
	execRun, validate                            *Histogram
}

func newEventMetrics(reg *Registry) eventMetrics {
	return eventMetrics{
		execs:           reg.Counter(MExecs),
		seeds:           reg.Counter(MSeedsAccepted),
		interleavings:   reg.Counter(MInterleavings),
		inconsistencies: reg.Counter(MInconsistencies),
		validations:     reg.Counter(MValidations),
		crashStates:     reg.Counter(MValidateCrashStates),
		bugs:            reg.Counter(MBugs),
		branchCov:       reg.Gauge(MBranchCov),
		aliasCov:        reg.Gauge(MAliasCov),
		execRun:         reg.Histogram(SpanHistName(SpanExecRun)),
		validate:        reg.Histogram(SpanHistName(SpanValidate)),
	}
}

// count moves the metrics that restate ev; Emit calls it under its lock.
// Inconsistencies stay the raw per-execution count (before deduplication).
// Coverage only grows, but workers emit ExecDone outside the lock that
// computed its counts, so the coverage gauges keep the largest count seen.
func (m *eventMetrics) count(ev Event) {
	switch v := ev.(type) {
	case *ExecDone:
		m.execs.Inc()
		m.inconsistencies.Add(int64(v.Inconsistencies + v.Syncs))
		m.branchCov.Set(max(m.branchCov.Value(), int64(v.BranchCov)))
		m.aliasCov.Set(max(m.aliasCov.Value(), int64(v.AliasCov)))
		m.execRun.Observe(v.Duration)
	case *SeedAccepted:
		m.seeds.Inc()
	case *InterleavingScheduled:
		m.interleavings.Inc()
	case *ValidationVerdict:
		m.validations.Inc()
		m.validate.Observe(v.Latency)
		m.crashStates.Add(int64(v.CrashStates))
	case *BugConfirmed:
		m.bugs.Inc()
	}
}

// AddSink attaches a sink; call before the campaign starts emitting.
func (e *Emitter) AddSink(s Sink) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sinks = append(e.sinks, s)
}

// Registry returns the emitter's metrics registry.
func (e *Emitter) Registry() *Registry {
	if e == nil {
		return nil
	}
	return e.reg
}

// Dropped returns how many events the subscriber channels shed.
func (e *Emitter) Dropped() int64 {
	if e == nil {
		return 0
	}
	return e.dropped.Value()
}

// Subscribe returns a fresh subscriber channel buffering buf events (256
// when buf <= 0). Every call creates its own channel that receives its own
// copy of each event, so consumers (Campaign.Events, an SSE stream per HTTP
// client) never steal events from each other; when a channel's buffer is
// full, the next event displaces its oldest one. Close closes every
// channel; the returned cancel func detaches and closes this one earlier,
// and is idempotent and safe to call after Close.
//
// Terminal-event delivery is deterministic: a subscriber attaching after
// campaign_done was emitted — during drain, or even after Close — still
// receives that terminal event (pre-delivered into the fresh channel), so a
// late SSE client always observes the campaign's conclusion instead of an
// empty stream.
func (e *Emitter) Subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 256
	}
	ch := make(chan Event, buf)
	if e == nil {
		close(ch)
		return ch, func() {}
	}
	e.mu.Lock()
	if e.terminal != nil {
		ch <- e.terminal // fresh channel, buf >= 1: never blocks
	}
	if e.closed {
		e.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	e.subs = append(e.subs, ch)
	e.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			e.mu.Lock()
			defer e.mu.Unlock()
			if e.closed {
				// Close already closed every channel; closing again
				// here would panic.
				return
			}
			for i, c := range e.subs {
				if c == ch {
					e.subs = append(e.subs[:i], e.subs[i+1:]...)
					break
				}
			}
			close(ch)
		})
	}
	return ch, cancel
}

// Emit stamps ev, moves the registry metrics it restates, and delivers it
// to all sinks and the subscriber channels.
func (e *Emitter) Emit(ev Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	// Stamped under the lock that delivers, so every sink and subscriber
	// sees seq in increasing order even when workers emit concurrently.
	m := ev.Meta()
	m.Seq = e.seq.Add(1)
	m.At = time.Since(e.start)
	if ev.Kind() == KindCampaignDone {
		// Remembered under the same critical section that delivers it, so
		// a Subscribe racing this Emit either attaches first (and
		// receives it below) or pre-receives it on attach — never both,
		// never neither.
		e.terminal = ev
	}
	e.ev.count(ev)
	for _, s := range e.sinks {
		s.Emit(ev)
	}
	for _, ch := range e.subs {
		e.sendRing(ch, ev)
	}
}

// sendRing delivers ev to a bounded subscriber channel without ever
// blocking: both the send and the ring-buffer eviction are non-blocking, so
// holding the emitter mutex around it is safe. Every shed counts in
// obs_events_dropped_total.
func (e *Emitter) sendRing(ch chan Event, ev Event) {
	select {
	case ch <- ev:
	default:
		// Shed the oldest buffered event to make room. The receive
		// races with the consumer; losing that race just means the
		// consumer caught up and the retried send finds capacity.
		select {
		case <-ch:
			e.dropped.Inc()
		default:
		}
		select {
		case ch <- ev:
		default:
			e.dropped.Inc()
		}
	}
}

// Close marks the emitter terminal: the subscriber channels are closed and
// sinks are closed. Emit calls after Close are no-ops; Close is idempotent.
func (e *Emitter) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for _, ch := range e.subs {
		close(ch)
	}
	e.subs = nil
	sinks := e.sinks
	e.sinks = nil
	e.mu.Unlock()
	var first error
	for _, s := range sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Fingerprint renders an event as a deterministic string: everything except
// the stamped sequence number and all timing fields. Two campaigns with the
// same configuration and seed produce identical fingerprint sequences
// ("identical modulo timestamps"), which the determinism tests assert.
func Fingerprint(ev Event) string {
	switch v := ev.(type) {
	case *PhaseChange:
		return fmt.Sprintf("phase_change %s<-%s", v.Phase, v.Prev)
	case *ExecDone:
		return fmt.Sprintf("exec_done #%d w%d new=%d br=%d al=%d cand=%d inc=%d sync=%d",
			v.Exec, v.Worker, v.NewBits, v.BranchCov, v.AliasCov, v.Candidates, v.Inconsistencies, v.Syncs)
	case *SeedAccepted:
		return fmt.Sprintf("seed_accepted %s ops=%d corpus=%d", v.Origin, v.Ops, v.CorpusSize)
	case *InterleavingScheduled:
		return fmt.Sprintf("interleaving w%d addr=%#x prio=%d skip=%d", v.Worker, v.Addr, v.Priority, v.Skip)
	case *InconsistencyFound:
		return fmt.Sprintf("inconsistency %s w=%s r=%s s=%s var=%s flow=%s",
			v.Class, v.WriteSite, v.ReadSite, v.StoreSite, v.Var, v.Flow)
	case *ValidationVerdict:
		return fmt.Sprintf("verdict %s %s hung=%v states=%d", v.Class, v.Status, v.RecoveryHung, v.CrashStates)
	case *BugConfirmed:
		return fmt.Sprintf("bug %s site=%s var=%s", v.Class, v.Site, v.Var)
	case *CampaignDone:
		return fmt.Sprintf("campaign_done target=%s mode=%s execs=%d seeds=%d br=%d al=%d inc=%d bugs=%d",
			v.Stats.Target, v.Stats.Mode, v.Stats.Execs, v.Stats.Seeds,
			v.Stats.BranchCov, v.Stats.AliasCov, v.Stats.Inconsistencies, v.Stats.Bugs)
	default:
		return strings.TrimSpace(fmt.Sprintf("%s %+v", ev.Kind(), ev))
	}
}
