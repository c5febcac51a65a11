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
// the attached sinks, and offers a bounded subscriber channel with
// ring-buffer semantics: when the consumer falls behind, the oldest
// buffered event is shed so the hot path never blocks on a slow reader.
// Sinks never drop.
//
// Emit is also the one writer of every registry metric that restates a
// typed event (see count): producers emit the fact and never bump its
// counter beside it. The Registry is exposed for reads and for the facts
// that have no event, whose producers cache their own handles.
//
// A nil *Emitter is a valid no-op producer target, so layers like the
// detection DB can emit unconditionally.
type Emitter struct {
	start      time.Time
	seq        atomic.Uint64
	reg        *Registry
	dropped    *Counter
	sseDropped *Counter
	ev         eventMetrics

	mu       sync.Mutex
	sinks    []Sink
	ch       chan Event
	extras   []chan Event
	closed   bool
	terminal Event // the CampaignDone event, once emitted
}

// NewEmitter creates an emitter with the given sinks attached.
func NewEmitter(sinks ...Sink) *Emitter {
	e := &Emitter{start: time.Now(), reg: NewRegistry(), sinks: sinks}
	e.dropped = e.reg.Counter(MEventsDropped)
	e.sseDropped = e.reg.Counter(MSSEDropped)
	e.ev = newEventMetrics(e.reg)
	return e
}

// eventMetrics are the cached handles of the event-derived registry
// series; Emit updates them and nothing else writes them.
type eventMetrics struct {
	execs, seeds, interleavings, inconsistencies *Counter
	validations, crashStates, bugs               *Counter
	branchCov, aliasCov                          *Gauge
	execLatency, validationLatency               *Histogram
}

func newEventMetrics(reg *Registry) eventMetrics {
	return eventMetrics{
		execs:             reg.Counter(MExecs),
		seeds:             reg.Counter(MSeedsAccepted),
		interleavings:     reg.Counter(MInterleavings),
		inconsistencies:   reg.Counter(MInconsistencies),
		validations:       reg.Counter(MValidations),
		crashStates:       reg.Counter(MValidateCrashStates),
		bugs:              reg.Counter(MBugs),
		branchCov:         reg.Gauge(MBranchCov),
		aliasCov:          reg.Gauge(MAliasCov),
		execLatency:       reg.Histogram(HExecLatency),
		validationLatency: reg.Histogram(HValidationLatency),
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
		m.execLatency.Observe(v.Duration)
	case *SeedAccepted:
		m.seeds.Inc()
	case *InterleavingScheduled:
		m.interleavings.Inc()
	case *ValidationVerdict:
		m.validations.Inc()
		m.validationLatency.Observe(v.Latency)
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

// Elapsed returns the time since the emitter (campaign) started.
func (e *Emitter) Elapsed() time.Duration {
	if e == nil {
		return 0
	}
	return time.Since(e.start)
}

// Dropped returns how many events the subscriber channel shed.
func (e *Emitter) Dropped() int64 {
	if e == nil {
		return 0
	}
	return e.dropped.Value()
}

// Subscribe returns the event channel, creating it with the given buffer on
// first call (256 when buf <= 0). The channel is closed by Close; events
// emitted while the buffer is full displace the oldest buffered event.
func (e *Emitter) Subscribe(buf int) <-chan Event {
	if buf <= 0 {
		buf = 256
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ch == nil {
		e.ch = make(chan Event, buf)
	}
	return e.ch
}

// SubscribeExtra returns an additional, independent subscriber channel with
// the same ring-buffer shedding as Subscribe (256 when buf <= 0). Unlike
// Subscribe — which always hands back the one campaign channel — every call
// creates a fresh channel that receives its own copy of each event, so
// transient consumers (an SSE stream per HTTP client) never steal events
// from Campaign.Events. The returned cancel func detaches and closes the
// channel; it is idempotent and safe to call after Close.
//
// Terminal-event delivery is deterministic: a subscriber attaching after
// campaign_done was emitted — during drain, or even after Close — still
// receives that terminal event (pre-delivered into the fresh channel), so a
// late SSE client always observes the campaign's conclusion instead of an
// empty stream.
func (e *Emitter) SubscribeExtra(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 256
	}
	ch := make(chan Event, buf)
	if e == nil {
		close(ch)
		return ch, func() {}
	}
	e.mu.Lock()
	if e.closed {
		if e.terminal != nil {
			ch <- e.terminal // fresh channel, buf >= 1: never blocks
		}
		e.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	if e.terminal != nil {
		ch <- e.terminal
	}
	e.extras = append(e.extras, ch)
	e.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			e.mu.Lock()
			closed := e.closed
			for i, c := range e.extras {
				if c == ch {
					e.extras = append(e.extras[:i], e.extras[i+1:]...)
					break
				}
			}
			e.mu.Unlock()
			if !closed {
				// Close already closed every extra channel; closing
				// again here would panic.
				close(ch)
			}
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
		// a SubscribeExtra racing this Emit either attaches first (and
		// receives it below) or pre-receives it on attach — never both,
		// never neither.
		e.terminal = ev
	}
	e.ev.count(ev)
	for _, s := range e.sinks {
		s.Emit(ev)
	}
	if e.ch != nil {
		e.sendRing(e.ch, ev, false)
	}
	for _, ch := range e.extras {
		e.sendRing(ch, ev, true)
	}
}

// sendRing delivers ev to a bounded subscriber channel without ever
// blocking: both the send and the ring-buffer eviction are non-blocking, so
// holding the emitter mutex around it is safe. extra marks SSE-style
// SubscribeExtra channels, whose sheds are additionally counted in
// obs_sse_dropped_total.
func (e *Emitter) sendRing(ch chan Event, ev Event, extra bool) {
	drop := func() {
		e.dropped.Inc()
		if extra {
			e.sseDropped.Inc()
		}
	}
	select {
	case ch <- ev:
	default:
		// Shed the oldest buffered event to make room. The receive
		// races with the consumer; losing that race just means the
		// consumer caught up and the retried send finds capacity.
		select {
		case <-ch:
			drop()
		default:
		}
		select {
		case ch <- ev:
		default:
			drop()
		}
	}
}

// Close marks the emitter terminal: the subscriber channel is closed and
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
	if e.ch != nil {
		close(e.ch)
	}
	for _, ch := range e.extras {
		close(ch)
	}
	e.extras = nil
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
