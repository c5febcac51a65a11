package sched

import (
	"sync"
	"testing"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
)

func testStats(n int) map[pmem.Addr]*AddrStats {
	stats := make(map[pmem.Addr]*AddrStats)
	for i := 0; i < n; i++ {
		st := NewAddrStats()
		st.Record(0, site.ID(2*i+1), false)
		st.Record(1, site.ID(2*i+2), true)
		st.Total = n - i // descending priority
		stats[pmem.Addr(i*8)] = st
	}
	return stats
}

// Two workers draining one queue must see each entry exactly once: none
// lost, none popped twice.
func TestQueueConcurrentPop(t *testing.T) {
	for round := 0; round < 50; round++ {
		q := BuildQueue(testStats(16))
		var wg sync.WaitGroup
		popped := make([][]*Entry, 2)
		for w := range popped {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for e := q.Pop(); e != nil; e = q.Pop() {
					popped[w] = append(popped[w], e)
				}
			}()
		}
		wg.Wait()
		seen := make(map[pmem.Addr]bool, 16)
		for _, es := range popped {
			for _, e := range es {
				if seen[e.Addr] {
					t.Fatalf("round %d: entry %d popped twice", round, e.Addr)
				}
				seen[e.Addr] = true
			}
		}
		if len(seen) != 16 {
			t.Fatalf("round %d: popped %d distinct entries, want 16", round, len(seen))
		}
		if q.Remaining() != 0 || q.Len() != 16 {
			t.Fatalf("round %d: Remaining=%d Len=%d after drain", round, q.Remaining(), q.Len())
		}
	}
}

// An interleaving whose signature has never been recorded must never be
// pruned, whatever the table has seen from other classes.
func TestEquivNeverPrunesUnseenSignature(t *testing.T) {
	c := NewEquivClasses()
	// Populate the table with stale classes sharing one boring outcome.
	boring := OutcomeSig{Alias: 1, Dirty: 2}
	for key := uint64(0); key < 100; key++ {
		c.Record(key, c.OutcomeNovel(boring))
		c.Record(key, c.OutcomeNovel(boring)) // repeat round: stale
	}
	for key := uint64(1000); key < 1100; key++ {
		if c.ShouldPrune(key) {
			t.Fatalf("unseen signature %d pruned", key)
		}
	}
}

func TestEquivPruneLifecycle(t *testing.T) {
	c := NewEquivClasses()
	key := uint64(42)
	if c.ShouldPrune(key) {
		t.Fatal("never-run class pruned")
	}
	// First round produced a globally novel outcome: keep exploring.
	c.Record(key, c.OutcomeNovel(OutcomeSig{Alias: 7, Dirty: 7}))
	if c.ShouldPrune(key) {
		t.Fatal("class with novel last outcome pruned")
	}
	// Re-run repeated an already-seen outcome: now prunable.
	c.Record(key, c.OutcomeNovel(OutcomeSig{Alias: 7, Dirty: 7}))
	if !c.ShouldPrune(key) {
		t.Fatal("stale class not pruned")
	}
	// A new outcome resurrects the class.
	c.Record(key, c.OutcomeNovel(OutcomeSig{Alias: 8, Dirty: 8}))
	if c.ShouldPrune(key) {
		t.Fatal("class resurrected by novel outcome still pruned")
	}
}

// A round that found a bug keeps its class schedulable for the next round
// even when the outcome signature repeats; once the class goes quiet — no
// novel outcome, no bug — it is pruned (the finding is already recorded).
func TestEquivBugRoundKeepsClass(t *testing.T) {
	c := NewEquivClasses()
	key := uint64(7)
	out := OutcomeSig{Alias: 3, Dirty: 4}
	c.OutcomeNovel(out) // outcome already seen globally
	c.Record(key, c.OutcomeNovel(out) || true)
	if c.ShouldPrune(key) {
		t.Fatal("bug-bearing round pruned")
	}
	c.Record(key, c.OutcomeNovel(out) || false)
	if !c.ShouldPrune(key) {
		t.Fatal("quiet class not pruned after its bug was recorded")
	}
}

// EntrySignature must be deterministic and sensitive to every component it
// folds.
func TestEntrySignatureComponents(t *testing.T) {
	mk := func() *Entry {
		return &Entry{
			Addr:       64,
			LoadSites:  []site.ID{1, 2, 3},
			StoreSites: []site.ID{9, 10},
		}
	}
	base := EntrySignature(mk(), 0)
	for i := 0; i < 20; i++ {
		if got := EntrySignature(mk(), 0); got != base {
			t.Fatalf("signature varies across identical entries: %x vs %x", got, base)
		}
	}
	if EntrySignature(mk(), 1) == base {
		t.Fatal("skip count not folded into signature")
	}
	e := mk()
	e.Addr = 128
	if EntrySignature(e, 0) == base {
		t.Fatal("address not folded into signature")
	}
	e = mk()
	e.LoadSites = e.LoadSites[:2]
	if EntrySignature(e, 0) == base {
		t.Fatal("load-site set not folded into signature")
	}
	e = mk()
	e.StoreSites = append(e.StoreSites, 11)
	if EntrySignature(e, 0) == base {
		t.Fatal("store-site set not folded into signature")
	}
	// Load sites and store sites must not be interchangeable.
	a := &Entry{Addr: 8, LoadSites: []site.ID{5}, StoreSites: []site.ID{6}}
	b := &Entry{Addr: 8, LoadSites: []site.ID{6}, StoreSites: []site.ID{5}}
	if EntrySignature(a, 0) == EntrySignature(b, 0) {
		t.Fatal("swapping load and store site sets keeps the signature")
	}
}

// TestEquivConcurrentAccess drives one table from four workers at once;
// under -race it checks the table's locking.
func TestEquivConcurrentAccess(t *testing.T) {
	c := NewEquivClasses()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := uint64(i % 17)
				c.ShouldPrune(key)
				novel := c.OutcomeNovel(OutcomeSig{Alias: uint64(w), Dirty: uint64(i % 5)})
				c.Record(key, novel || i%31 == 0)
			}
		}(w)
	}
	wg.Wait()
}
