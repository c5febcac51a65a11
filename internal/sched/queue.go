package sched

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
)

// AddrStats accumulates the observed accesses to one PM address across the
// executions of a seed. The runtime records every instrumented load and
// store; the fuzzer folds the records into the priority queue of shared data
// accesses from which sync points are selected (paper §4.2.2).
//
// Loads and Stores are the sorted, duplicate-free sets of sites that loaded
// and stored the address. A site slice, once stored, is never written
// again: adding a site replaces the slice with a new one. A queue Entry can
// therefore share the slices while the aggregate keeps growing.
type AddrStats struct {
	Loads  []site.ID
	Stores []site.ID
	Total  int

	// first is the first thread seen (valid when Total > 0); shared is set
	// once a second thread is seen. Together they answer Shared without
	// keeping the thread set.
	first  pmem.ThreadID
	shared bool
}

// NewAddrStats creates empty per-address statistics.
func NewAddrStats() *AddrStats { return &AddrStats{} }

// Record adds one access.
func (a *AddrStats) Record(t pmem.ThreadID, s site.ID, isStore bool) {
	if isStore {
		a.Stores = insertSite(a.Stores, s)
	} else {
		a.Loads = insertSite(a.Loads, s)
	}
	a.noteThread(t)
	a.Total++
}

// noteThread folds thread t into the first/shared pair. Call it before
// Total grows.
func (a *AddrStats) noteThread(t pmem.ThreadID) {
	if a.Total == 0 {
		a.first = t
	} else if t != a.first {
		a.shared = true
	}
}

// Shared reports whether the address was accessed by more than one thread
// (the "shared data access" selection principle).
func (a *AddrStats) Shared() bool { return a.shared }

// Merge folds other into a. It never writes into other's site slices, nor
// into a's: sites other adds make new slices.
func (a *AddrStats) Merge(other *AddrStats) {
	if other.Total == 0 {
		return
	}
	a.Loads = unionSites(a.Loads, other.Loads)
	a.Stores = unionSites(a.Stores, other.Stores)
	a.shared = a.shared || other.shared
	a.noteThread(other.first)
	a.Total += other.Total
}

// insertSite returns the sorted set with s added: set itself when s is
// already in it, otherwise a new slice.
func insertSite(set []site.ID, s site.ID) []site.ID {
	i, found := slices.BinarySearch(set, s)
	if found {
		return set
	}
	out := make([]site.ID, len(set)+1)
	copy(out, set[:i])
	out[i] = s
	copy(out[i+1:], set[i:])
	return out
}

// unionSites returns the sorted union of two sorted sets: a itself when b
// adds nothing, b itself when a is empty, otherwise a new slice.
func unionSites(a, b []site.ID) []site.ID {
	if len(a) == 0 {
		return b
	}
	extra, i := 0, 0
	for _, s := range b {
		for i < len(a) && a[i] < s {
			i++
		}
		if i == len(a) || a[i] != s {
			extra++
		}
	}
	if extra == 0 {
		return a
	}
	out := make([]site.ID, 0, len(a)+extra)
	i = 0
	for _, s := range b {
		for i < len(a) && a[i] < s {
			out = append(out, a[i])
			i++
		}
		if i < len(a) && a[i] == s {
			i++
		}
		out = append(out, s)
	}
	return append(out, a[i:]...)
}

// Entry is one priority-queue element: a PM address with the load and store
// instructions that access it. The loads become sync points (cond_wait is
// injected before them); the stores trigger cond_signal. LoadSites and
// StoreSites are sorted and read-only: they may be the statistics' own
// slices.
type Entry struct {
	Addr       pmem.Addr
	LoadSites  []site.ID
	StoreSites []site.ID
	Priority   int
}

// Key identifies the entry for the per-seed skip bookkeeping.
func (e *Entry) Key() pmem.Addr { return e.Addr }

// Describe renders the entry for span attribution: the address with its
// load/store site counts and priority.
func (e *Entry) Describe() string {
	if e == nil {
		return ""
	}
	return fmt.Sprintf("%#x loads=%d stores=%d prio=%d",
		uint64(e.Addr), len(e.LoadSites), len(e.StoreSites), e.Priority)
}

// Queue is the priority queue of shared PM data access instructions grouped
// by address. Entries are ordered by access frequency (hot shared data
// first) and popped at most once per seed. All methods are safe for
// concurrent use: one mutex guards the cursor, so concurrent pops never
// lose or repeat an entry.
type Queue struct {
	mu      sync.Mutex
	entries []*Entry
	next    int
}

// BuildQueue constructs a queue from per-address statistics. Only addresses
// matching the paper's three selection principles are included: PM accesses,
// shared across threads, prioritized by access frequency. Entries also need
// at least one load and one store (otherwise no read-after-write interleaving
// exists to force).
func BuildQueue(stats map[pmem.Addr]*AddrStats) *Queue {
	q := &Queue{}
	for addr, st := range stats {
		if !st.Shared() || len(st.Loads) == 0 || len(st.Stores) == 0 {
			continue
		}
		q.entries = append(q.entries, &Entry{
			Addr:       addr,
			LoadSites:  st.Loads,
			StoreSites: st.Stores,
			Priority:   st.Total,
		})
	}
	sort.Slice(q.entries, func(i, j int) bool {
		if q.entries[i].Priority != q.entries[j].Priority {
			return q.entries[i].Priority > q.entries[j].Priority
		}
		return q.entries[i].Addr < q.entries[j].Addr
	})
	return q
}

// Len returns the number of entries in the queue.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries)
}

// Remaining returns how many entries have not been popped yet.
func (q *Queue) Remaining() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries) - q.next
}

// Pop returns the next unexplored entry, or nil when the queue is exhausted.
func (q *Queue) Pop() *Entry {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.next >= len(q.entries) {
		return nil
	}
	e := q.entries[q.next]
	q.next++
	return e
}
