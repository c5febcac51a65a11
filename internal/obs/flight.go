package obs

import (
	"sort"
	"sync"
)

// FlightRecorder keeps the last N completed spans in one ring buffer under
// one mutex. Recording is O(1) with one short critical section; Snapshot
// sorts into start order and is only taken on timeline exports and bundle
// writes — the rare path pays for the hot path.
type FlightRecorder struct {
	mu   sync.Mutex
	buf  []Span
	pos  int
	full bool
}

// NewFlightRecorder creates a recorder keeping the last capacity spans (at
// least one).
func NewFlightRecorder(capacity int) *FlightRecorder {
	return &FlightRecorder{buf: make([]Span, max(capacity, 1))}
}

// Record appends a completed span, evicting the oldest span when the ring
// is full.
func (f *FlightRecorder) Record(sp Span) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.buf[f.pos] = sp
	f.pos++
	if f.pos == len(f.buf) {
		f.pos = 0
		f.full = true
	}
	f.mu.Unlock()
}

// Snapshot copies out the recorded spans sorted by start time (ties by ID,
// so snapshots are deterministic for a given recording).
func (f *FlightRecorder) Snapshot() []Span {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	var out []Span
	if f.full {
		out = append(out, f.buf[f.pos:]...)
	}
	out = append(out, f.buf[:f.pos]...)
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNs != out[j].StartNs {
			return out[i].StartNs < out[j].StartNs
		}
		return out[i].ID < out[j].ID
	})
	return out
}
