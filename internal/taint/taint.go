package taint

import (
	"cmp"
	"slices"
	"sync"
)

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
	// mark, gen, stack and leaves are walk's visited stamps, current
	// stamp, work stack and leaf buffer, reused across walks.
	mark   []uint32
	gen    uint32
	stack  []Label
	leaves []Event
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
//
// A union whose children are both expanded already costs one linear merge
// of the children's sets. The common case is a taint chain: a tainted store
// expands its label, and the chain's next link is a union of that label and
// one fresh leaf. Any other union falls back to a walk of its subgraph.
// Either way the result slice is the only allocation. A child label that
// was not allocated before its union is treated as None: shadow labels in a
// restored checkpoint outlive the table that made them, and a union's event
// set must not change when this table later allocates the same number.
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
	out := t.expand(l)
	if n := len(t.nodes); len(t.events) < n {
		// t.events only ever grows, so the elements past its length
		// are still nil.
		t.events = slices.Grow(t.events, n-len(t.events))[:n]
	}
	t.events[l] = out
	return out
}

// expand computes the event set of an allocated, unmemoised label. Caller
// holds t.mu.
func (t *Table) expand(l Label) []Event {
	n := t.nodes[l]
	if n.l == None && n.r == None {
		return []Event{n.ev}
	}
	var la, lb [1]Event
	a, aok := t.childSet(n.l, l, &la)
	b, bok := t.childSet(n.r, l, &lb)
	if !aok || !bok {
		return t.walk(l)
	}
	return merge(a, b)
}

// childSet returns the event set of child c of union parent without a walk:
// empty for None or a label allocated after the union, the memoised set, or
// a leaf's event copied into buf. ok is false for an unmemoised union.
// Caller holds t.mu.
func (t *Table) childSet(c, parent Label, buf *[1]Event) (set []Event, ok bool) {
	if c == None || c >= parent {
		return nil, true
	}
	if int(c) < len(t.events) && t.events[c] != nil {
		return t.events[c], true
	}
	if n := &t.nodes[c]; n.l == None && n.r == None {
		buf[0] = n.ev
		return buf[:], true
	}
	return nil, false
}

// merge unions two event sets that are sorted by Seq and deduplicated into
// a new one. Sequence numbers are unique per leaf, so equal Seq means the
// same event.
func merge(a, b []Event) []Event {
	out := make([]Event, 0, len(a)+len(b))
	if len(a) > 0 && len(b) > 0 && b[0].Seq < a[0].Seq {
		a, b = b, a
	}
	// Merge only while the runs overlap, then copy the rest whole: a
	// chain link (a label unioned with a leaf newer than all its events)
	// is two disjoint runs and skips the loop.
	for len(a) > 0 && len(b) > 0 && a[len(a)-1].Seq >= b[0].Seq {
		switch {
		case a[0].Seq < b[0].Seq:
			out, a = append(out, a[0]), a[1:]
		case b[0].Seq < a[0].Seq:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// walk collects the leaf events under a union label, sorted by Seq: an
// iterative depth-first walk over the table's reusable visited stamps and
// work stack. Caller holds t.mu.
func (t *Table) walk(l Label) []Event {
	if len(t.mark) < len(t.nodes) {
		t.mark = slices.Grow(t.mark, len(t.nodes)-len(t.mark))[:len(t.nodes)]
	}
	t.gen++
	if t.gen == 0 {
		clear(t.mark)
		t.gen = 1
	}
	leaves, stack := t.leaves[:0], append(t.stack[:0], l)
	t.mark[l] = t.gen
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[x]
		if n.l == None && n.r == None {
			leaves = append(leaves, n.ev)
			continue
		}
		for _, c := range [2]Label{n.l, n.r} {
			if c != None && c < x && t.mark[c] != t.gen {
				t.mark[c] = t.gen
				stack = append(stack, c)
			}
		}
	}
	t.leaves, t.stack = leaves[:0], stack[:0]
	slices.SortFunc(leaves, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
	return slices.Clone(leaves)
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
