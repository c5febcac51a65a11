package taint

import "sync"

// Label identifies a set of taint sources. The zero label is the empty set.
type Label uint32

// None is the empty taint label.
const None Label = 0

// Event describes a taint source: one PM inter- or intra-thread inconsistency
// candidate, i.e. one dynamic read of non-persisted data.
type Event struct {
	// Addr is the word-aligned PM offset that was read while dirty.
	Addr uint64
	// Epoch is the store epoch observed at the read; the event is only
	// actionable while the word is still dirty at this epoch.
	Epoch uint32
	// WriteSite and ReadSite are the instruction sites of the dirty store
	// and of the read.
	WriteSite uint32
	ReadSite  uint32
	// Writer and Reader are the thread IDs involved. Writer != Reader
	// marks an inter-thread candidate, Writer == Reader an intra-thread
	// candidate.
	Writer int32
	Reader int32
	// Seq is a per-table sequence number, for stable report ordering.
	Seq uint64
}

// Inter reports whether the event crosses threads.
func (e Event) Inter() bool { return e.Writer != e.Reader }

type node struct {
	// leaf event, valid when l == r == 0
	ev Event
	// union children, valid when l or r nonzero
	l, r Label
}

// Table allocates labels and resolves them back to event sets. It is safe
// for concurrent use.
type Table struct {
	mu     sync.Mutex
	nodes  []node // index 0 unused (Label 0 = None)
	unions map[[2]Label]Label
	seq    uint64
	// events memoises Events per label. A label's event set never changes
	// once allocated, and tainted stores expand the same labels again and
	// again.
	events [][]Event
}

// NewTable creates an empty label table.
func NewTable() *Table {
	return &Table{
		nodes:  make([]node, 1),
		unions: make(map[[2]Label]Label),
	}
}

// NewLeaf creates a fresh label for a single candidate event.
func (t *Table) NewLeaf(ev Event) Label {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	ev.Seq = t.seq
	t.nodes = append(t.nodes, node{ev: ev})
	return Label(len(t.nodes) - 1)
}

// Union returns a label representing the union of a and b. Unions are
// memoised: Union(a, b) == Union(b, a) and repeated calls return the same
// label. Union with None returns the other label unchanged.
func (t *Table) Union(a, b Label) Label {
	if a == None {
		return b
	}
	if b == None || a == b {
		return a
	}
	if a > b {
		a, b = b, a
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]Label{a, b}
	if l, ok := t.unions[key]; ok {
		return l
	}
	t.nodes = append(t.nodes, node{l: a, r: b})
	l := Label(len(t.nodes) - 1)
	t.unions[key] = l
	return l
}

// UnionAll folds Union over a list of labels.
func (t *Table) UnionAll(labels []Label) Label {
	out := None
	for _, l := range labels {
		out = t.Union(out, l)
	}
	return out
}

// Events expands a label into its set of leaf events. The result is
// deduplicated and ordered by event sequence number. It is memoised and
// shared between callers: treat it as read-only.
func (t *Table) Events(l Label) []Event {
	if l == None {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(l) >= len(t.nodes) {
		return nil
	}
	if int(l) < len(t.events) && t.events[l] != nil {
		return t.events[l]
	}
	var out []Event
	if n := t.nodes[l]; n.l == None && n.r == None {
		out = []Event{n.ev}
	} else {
		out = t.walk(l)
	}
	if int(l) >= len(t.events) {
		t.events = append(t.events, make([][]Event, len(t.nodes)-len(t.events))...)
	}
	t.events[l] = out
	return out
}

// walk collects the leaf events under a union label, sorted by Seq. Caller
// holds t.mu.
func (t *Table) walk(l Label) []Event {
	seen := map[Label]bool{}
	var out []Event
	var walk func(Label)
	walk = func(l Label) {
		// A union may name a label this table never allocated: shadow
		// labels in a restored checkpoint outlive the table that made
		// them.
		if l == None || seen[l] || int(l) >= len(t.nodes) {
			return
		}
		seen[l] = true
		n := t.nodes[l]
		if n.l == None && n.r == None {
			out = append(out, n.ev)
			return
		}
		walk(n.l)
		walk(n.r)
	}
	walk(l)
	// Insertion order of the walk may interleave; sort by Seq for
	// deterministic reports.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Seq < out[j-1].Seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Has reports whether the label's event set contains an event with the given
// write site.
func (t *Table) Has(l Label, writeSite uint32) bool {
	for _, ev := range t.Events(l) {
		if ev.WriteSite == writeSite {
			return true
		}
	}
	return false
}

// Size returns the number of allocated labels (excluding None).
func (t *Table) Size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.nodes) - 1
}
