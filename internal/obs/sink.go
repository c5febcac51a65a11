package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Sink consumes campaign events. Emit is called synchronously from fuzzing
// workers, so implementations must be safe for concurrent use and cheap;
// Close flushes buffered state once the campaign is over.
type Sink interface {
	Emit(Event)
	Close() error
}

// Envelope is the wire form of one event: the stamped envelope plus the
// kind-specific payload. It is one JSONL trace line, and the data field of
// one Server-Sent Events frame.
type Envelope struct {
	Kind Kind    `json:"kind"`
	Seq  uint64  `json:"seq"`
	AtMs float64 `json:"at_ms"`
	Data Event   `json:"data"`
}

// JSONLSink writes one JSON object per event to w — the machine-readable
// campaign trace behind EXPERIMENTS.md's time-series plots.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONLSink creates a JSONL trace writer over w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(ev Event) {
	m := ev.Meta()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(Envelope{
		Kind: ev.Kind(),
		Seq:  m.Seq,
		AtMs: float64(m.At) / float64(time.Millisecond),
		Data: ev,
	})
}

// Close implements Sink; it reports the first write error, if any.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Collector is an in-memory sink for tests: it records every event in
// emission order.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit implements Sink.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev)
}

// Close implements Sink.
func (c *Collector) Close() error { return nil }

// Events returns a copy of the recorded events.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Kinds returns the recorded event kinds in order.
func (c *Collector) Kinds() []Kind {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Kind, len(c.events))
	for i, ev := range c.events {
		out[i] = ev.Kind()
	}
	return out
}

// ProgressSink renders a single human status line (execs, execs/s,
// coverage, bugs) at a fixed interval, pulling numbers from a Stats
// provider rather than accumulating events itself.
type ProgressSink struct {
	w     io.Writer
	snap  func() Stats
	stop  chan struct{}
	done  chan struct{}
	close sync.Once
}

// NewProgressSink starts a progress renderer writing to w every interval
// (1s when interval <= 0). snap supplies the live statistics.
func NewProgressSink(w io.Writer, interval time.Duration, snap func() Stats) *ProgressSink {
	if interval <= 0 {
		interval = time.Second
	}
	p := &ProgressSink{
		w:    w,
		snap: snap,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go p.loop(interval)
	return p
}

func (p *ProgressSink) loop(interval time.Duration) {
	defer close(p.done)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			p.render(false)
		case <-p.stop:
			p.render(true)
			return
		}
	}
}

func (p *ProgressSink) render(last bool) {
	st := p.snap()
	end := "\r"
	if last {
		end = "\n"
	}
	fmt.Fprintf(p.w, "%8d execs | %7.1f exec/s | cov %5d br / %5d alias | %d inconsistencies | %d bugs%s",
		st.Execs, st.ExecsPerSec, st.BranchCov, st.AliasCov, st.Inconsistencies, st.Bugs, end)
}

// Emit implements Sink; progress is time-driven, not event-driven.
func (p *ProgressSink) Emit(Event) {}

// Close stops the renderer after a final full-stats line.
func (p *ProgressSink) Close() error {
	p.close.Do(func() { close(p.stop) })
	<-p.done
	return nil
}

// MultiSink fans one event out to several sinks.
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// Close implements Sink; it closes every sink and returns the first error.
func (m MultiSink) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
