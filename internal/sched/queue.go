package sched

import (
	"fmt"
	"sort"
	"sync"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
)

// AddrStats accumulates the observed accesses to one PM address across the
// executions of a seed. The runtime records every instrumented load and
// store; the fuzzer folds the records into the priority queue of shared data
// accesses from which sync points are selected (paper §4.2.2).
type AddrStats struct {
	Loads   map[site.ID]int
	Stores  map[site.ID]int
	Threads map[pmem.ThreadID]struct{}
	Total   int
}

// NewAddrStats creates empty per-address statistics.
func NewAddrStats() *AddrStats {
	return &AddrStats{
		Loads:   make(map[site.ID]int),
		Stores:  make(map[site.ID]int),
		Threads: make(map[pmem.ThreadID]struct{}),
	}
}

// Record adds one access.
func (a *AddrStats) Record(t pmem.ThreadID, s site.ID, isStore bool) {
	if isStore {
		a.Stores[s]++
	} else {
		a.Loads[s]++
	}
	a.Threads[t] = struct{}{}
	a.Total++
}

// Shared reports whether the address was accessed by more than one thread
// (the "shared data access" selection principle).
func (a *AddrStats) Shared() bool { return len(a.Threads) > 1 }

// Merge folds other into a.
func (a *AddrStats) Merge(other *AddrStats) {
	for s, n := range other.Loads {
		a.Loads[s] += n
	}
	for s, n := range other.Stores {
		a.Stores[s] += n
	}
	for t := range other.Threads {
		a.Threads[t] = struct{}{}
	}
	a.Total += other.Total
}

// Entry is one priority-queue element: a PM address with the load and store
// instructions that access it. The loads become sync points (cond_wait is
// injected before them); the stores trigger cond_signal.
type Entry struct {
	Addr       pmem.Addr
	LoadSites  map[site.ID]struct{}
	StoreSites map[site.ID]struct{}
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
		e := &Entry{
			Addr:       addr,
			LoadSites:  make(map[site.ID]struct{}, len(st.Loads)),
			StoreSites: make(map[site.ID]struct{}, len(st.Stores)),
			Priority:   st.Total,
		}
		for s := range st.Loads {
			e.LoadSites[s] = struct{}{}
		}
		for s := range st.Stores {
			e.StoreSites[s] = struct{}{}
		}
		q.entries = append(q.entries, e)
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
