package sched

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
)

// modelStats is the reference model of AddrStats: per-site counts and the
// full thread set, in maps.
type modelStats struct {
	loads, stores map[site.ID]int
	threads       map[pmem.ThreadID]struct{}
	total         int
}

func newModelStats() *modelStats {
	return &modelStats{
		loads:   map[site.ID]int{},
		stores:  map[site.ID]int{},
		threads: map[pmem.ThreadID]struct{}{},
	}
}

func (m *modelStats) record(t pmem.ThreadID, s site.ID, isStore bool) {
	if isStore {
		m.stores[s]++
	} else {
		m.loads[s]++
	}
	m.threads[t] = struct{}{}
	m.total++
}

func (m *modelStats) merge(o *modelStats) {
	for s, n := range o.loads {
		m.loads[s] += n
	}
	for s, n := range o.stores {
		m.stores[s] += n
	}
	for t := range o.threads {
		m.threads[t] = struct{}{}
	}
	m.total += o.total
}

// modelEntry is a queue entry of the model, with map site sets.
type modelEntry struct {
	addr          pmem.Addr
	loads, stores map[site.ID]int
	priority      int
}

// modelQueue is the map-based queue construction: shared addresses with at
// least one load and one store, by Total descending, then address.
func modelQueue(stats map[pmem.Addr]*modelStats) []modelEntry {
	var out []modelEntry
	for a, m := range stats {
		if len(m.threads) > 1 && len(m.loads) > 0 && len(m.stores) > 0 {
			out = append(out, modelEntry{addr: a, loads: m.loads, stores: m.stores, priority: m.total})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].priority != out[j].priority {
			return out[i].priority > out[j].priority
		}
		return out[i].addr < out[j].addr
	})
	return out
}

// modelSignature is EntrySignature over map site sets.
func modelSignature(e modelEntry, skip int) uint64 {
	h := mix64(uint64(e.addr) ^ 0x9e3779b97f4a7c15)
	h ^= mix64(uint64(skip)<<1 | 1)
	var loads, stores uint64
	for s := range e.loads {
		loads ^= mix64(uint64(s) | 1<<40)
	}
	for s := range e.stores {
		stores ^= mix64(uint64(s) | 1<<41)
	}
	return mix64(h ^ loads*0xbf58476d1ce4e5b9 ^ stores*0x94d049bb133111eb)
}

func keysOf(m map[site.ID]int) []site.ID {
	out := make([]site.ID, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

func checkStats(t *testing.T, a pmem.Addr, got *AddrStats, want *modelStats) {
	t.Helper()
	if got.Shared() != (len(want.threads) > 1) || got.Total != want.total ||
		!slices.Equal(got.Loads, keysOf(want.loads)) || !slices.Equal(got.Stores, keysOf(want.stores)) {
		t.Fatalf("addr %d: got shared=%v total=%d loads=%v stores=%v; model threads=%d total=%d loads=%v stores=%v",
			a, got.Shared(), got.Total, got.Loads, got.Stores,
			len(want.threads), want.total, keysOf(want.loads), keysOf(want.stores))
	}
}

// TestAddrStatsMatchesMapModel drives random Record/Merge sequences through
// AddrStats and the map model side by side. The fold mirrors the fuzzer's:
// an execution's statistics are adopted for an unseen address and merged
// otherwise. Every address must agree on Shared, Total and the site sets,
// and the queue must have the model's entries, order, priorities and
// signatures. Entries taken mid-way must not change as merging goes on.
func TestAddrStatsMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		agg := map[pmem.Addr]*AddrStats{}
		model := map[pmem.Addr]*modelStats{}
		nAddrs := 1 + rng.Intn(12)
		nThreads := 1 + rng.Intn(4)
		nSites := 1 + rng.Intn(10)

		type snapshot struct {
			e             *Entry
			loads, stores []site.ID
		}
		var snaps []snapshot

		for exec := 0; exec < 1+rng.Intn(8); exec++ {
			run := map[pmem.Addr]*AddrStats{}
			runModel := map[pmem.Addr]*modelStats{}
			for i := rng.Intn(60); i > 0; i-- {
				a := pmem.Addr(8 * rng.Intn(nAddrs))
				th := pmem.ThreadID(rng.Intn(nThreads))
				s := site.ID(1 + rng.Intn(nSites))
				isStore := rng.Intn(2) == 0
				if run[a] == nil {
					run[a], runModel[a] = NewAddrStats(), newModelStats()
				}
				run[a].Record(th, s, isStore)
				runModel[a].record(th, s, isStore)
			}
			for a, st := range run {
				checkStats(t, a, st, runModel[a])
				if x, ok := agg[a]; ok {
					x.Merge(st)
				} else if rng.Intn(2) == 0 {
					agg[a] = st
				} else {
					agg[a] = NewAddrStats()
					agg[a].Merge(st)
				}
				if model[a] == nil {
					model[a] = newModelStats()
				}
				model[a].merge(runModel[a])
			}
			// Merging empty statistics changes nothing.
			for _, x := range agg {
				x.Merge(NewAddrStats())
				break
			}
			for a, x := range agg {
				checkStats(t, a, x, model[a])
			}
			if e := BuildQueue(agg).Pop(); e != nil {
				snaps = append(snaps, snapshot{e, slices.Clone(e.LoadSites), slices.Clone(e.StoreSites)})
			}
		}

		q := BuildQueue(agg)
		want := modelQueue(model)
		if q.Len() != len(want) {
			t.Fatalf("round %d: queue has %d entries, model %d", round, q.Len(), len(want))
		}
		for i, w := range want {
			e := q.Pop()
			if e.Addr != w.addr || e.Priority != w.priority ||
				!slices.Equal(e.LoadSites, keysOf(w.loads)) || !slices.Equal(e.StoreSites, keysOf(w.stores)) {
				t.Fatalf("round %d entry %d: got %+v, model addr=%d prio=%d loads=%v stores=%v",
					round, i, e, w.addr, w.priority, keysOf(w.loads), keysOf(w.stores))
			}
			for skip := 0; skip < 3; skip++ {
				if got, ws := EntrySignature(e, skip), modelSignature(w, skip); got != ws {
					t.Fatalf("round %d entry %d skip %d: signature %x, model %x", round, i, skip, got, ws)
				}
			}
		}
		for _, sn := range snaps {
			if !slices.Equal(sn.e.LoadSites, sn.loads) || !slices.Equal(sn.e.StoreSites, sn.stores) {
				t.Fatalf("round %d: entry for %d changed after later merges: %v/%v, was %v/%v",
					round, sn.e.Addr, sn.e.LoadSites, sn.e.StoreSites, sn.loads, sn.stores)
			}
		}
	}
}

// TestEntryReadDuringStatsMerge: a PM-aware execution reads its popped
// entry's site sets without the campaign lock while another worker keeps
// merging new sites into the same statistics under it. Run under -race, it
// fails if a merge writes into an array the entry shares.
func TestEntryReadDuringStatsMerge(t *testing.T) {
	const addr = 64
	// The aggregate grows by merges, one execution's statistics at a time,
	// as the campaign's does.
	st := NewAddrStats()
	for s := site.ID(2); s <= 80; s += 2 {
		run := NewAddrStats()
		run.Record(0, s, false)
		run.Record(1, s+1, true)
		st.Merge(run)
	}
	var mu sync.Mutex // the campaign lock guarding the aggregate
	stats := map[pmem.Addr]*AddrStats{addr: st}
	mu.Lock()
	e := BuildQueue(stats).Pop()
	mu.Unlock()
	loads, stores := slices.Clone(e.LoadSites), slices.Clone(e.StoreSites)

	p := NewPMAware(testConfig(), e, 0)
	p.BeginExec(1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			// Thread 7 never started, so a matching load does not
			// wait, and no reader waits for a matching store's signal.
			p.BeforeLoad(7, addr, site.ID(2+2*(i%40)))
			p.AfterStore(7, addr, site.ID(3+2*(i%40)))
			_ = EntrySignature(e, 0)
			_ = p.Describe()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			// Sites interleave with the entry's, so every merge
			// inserts in the middle of the sets.
			run := NewAddrStats()
			run.Record(pmem.ThreadID(i%3), site.ID(1+2*(i%40)), i%2 == 0)
			run.Record(pmem.ThreadID(i%3), site.ID(1000+i), i%2 == 1)
			mu.Lock()
			stats[addr].Merge(run)
			mu.Unlock()
		}
	}()
	wg.Wait()
	p.EndExec()
	if !slices.Equal(e.LoadSites, loads) || !slices.Equal(e.StoreSites, stores) {
		t.Fatalf("popped entry changed under merging: %v/%v, was %v/%v", e.LoadSites, e.StoreSites, loads, stores)
	}
	mu.Lock()
	defer mu.Unlock()
	if n := len(st.Loads) + len(st.Stores); n <= len(loads)+len(stores) {
		t.Fatalf("merges added no sites (%d)", n)
	}
}
