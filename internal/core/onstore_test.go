package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/taint"
)

// refOnStore is the reference side-effect check: one event at a time, the
// word's state and the finding key looked up afresh and the detector's lock
// taken per event; a finding counts once per store. OnStore must report
// exactly what it reports.
func refOnStore(d *Detector, sc StoreCheck) []*Inconsistency {
	var found []*Inconsistency
	var stack []string
	captured := false
	counted := map[[3]uint32]bool{}
	for _, pair := range [2]struct {
		lab  taint.Label
		flow FlowKind
	}{{sc.ValLab, FlowValue}, {sc.AddrLab, FlowAddress}} {
		if pair.lab == taint.None {
			continue
		}
		lineage := d.labels.Events(pair.lab)
		for _, ev := range lineage {
			if !sc.External && ev.Addr >= sc.Addr&^7 && ev.Addr < sc.Addr+sc.Size {
				continue
			}
			if sc.WordState != nil {
				if m := sc.WordState(ev.Addr); !m.Dirty || ev.Epoch <= m.CleanEpoch {
					continue
				}
			}
			kind := KindIntra
			if ev.Inter() {
				kind = KindInter
			}
			key := inconKey(ev.WriteSite, sc.Site, kind)
			d.mu.Lock()
			if prev, ok := d.incons[key]; ok {
				if !counted[key] {
					prev.Count++
					counted[key] = true
				}
				d.mu.Unlock()
				continue
			}
			counted[key] = true
			if !captured && sc.Stack != nil && (sc.Known == nil || !sc.Known(key)) {
				stack, captured = sc.Stack(), true
			}
			in := &Inconsistency{
				Kind:        kind,
				Event:       ev,
				StoreSite:   sc.Site,
				StoreThread: sc.Thread,
				External:    sc.External,
				SideEffect:  pmem.Range{Off: sc.Addr, Len: sc.Size},
				DirtyRange:  pmem.Range{Off: ev.Addr, Len: pmem.WordSize},
				Flow:        pair.flow,
				Stack:       stack,
				Lineage:     lineage,
				Count:       1,
			}
			d.incons[key] = in
			d.inconOrd = append(d.inconOrd, key)
			d.mu.Unlock()
			found = append(found, in)
		}
	}
	return found
}

// sameFindings reports the first difference between two finding lists.
func sameFindings(got, want []*Inconsistency) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d findings, reference %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case g.Kind != w.Kind || g.Event != w.Event || g.StoreSite != w.StoreSite ||
			g.StoreThread != w.StoreThread || g.External != w.External || g.Flow != w.Flow:
			return fmt.Errorf("finding %d: %v %+v, reference %v %+v", i, g.Kind, g.Event, w.Kind, w.Event)
		case g.SideEffect != w.SideEffect || g.DirtyRange != w.DirtyRange:
			return fmt.Errorf("finding %d: ranges %v %v, reference %v %v", i, g.SideEffect, g.DirtyRange, w.SideEffect, w.DirtyRange)
		case !slices.Equal(g.Lineage, w.Lineage) || !slices.Equal(g.Stack, w.Stack):
			return fmt.Errorf("finding %d: lineage or stack differs", i)
		case g.Count != w.Count:
			return fmt.Errorf("finding %d: count %d, reference %d", i, g.Count, w.Count)
		}
	}
	return nil
}

// TestOnStoreMatchesReference drives OnStore and the reference loop with
// the same random stores — lineages up to hundreds of events over many
// words and keys, random word states, stores over their own dependencies,
// external effects, known findings — and requires the same findings in the
// same order with the same counts, and one word-state lookup per run of
// events on one word.
func TestOnStoreMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := taint.NewTable()
		got, want := NewDetector(tb), NewDetector(tb)
		words := 4 + rng.Intn(28)
		labels := []taint.Label{taint.None}
		var last taint.Event
		for i := 0; i < 200; i++ {
			r := rng.Intn(6)
			if len(labels) < 3 || r < 4 {
				ev := taint.Event{
					Addr:      uint64(8 * rng.Intn(words)),
					Epoch:     uint32(1 + rng.Intn(4)),
					WriteSite: uint32(1 + rng.Intn(24)),
					ReadSite:  uint32(100 + rng.Intn(4)),
					Writer:    int32(1 + rng.Intn(3)),
					Reader:    int32(1 + rng.Intn(3)),
				}
				if i > 0 && rng.Intn(2) == 0 {
					// Same word and write site as the last leaf:
					// lineages get runs, as a taint chain's do.
					ev.Addr, ev.WriteSite = last.Addr, last.WriteSite
				}
				last = ev
				leaf := tb.NewLeaf(ev)
				if r < 2 {
					// A chain link: the newest label joined with the
					// fresh leaf.
					leaf = tb.Union(labels[len(labels)-1], leaf)
				}
				labels = append(labels, leaf)
				continue
			}
			labels = append(labels, tb.Union(labels[rng.Intn(len(labels))], labels[rng.Intn(len(labels))]))
		}
		known := map[[3]uint32]bool{}
		for k := 0; k < 10; k++ {
			known[inconKey(uint32(1+rng.Intn(24)), site.ID(1+rng.Intn(3)), KindInter+Kind(rng.Intn(2)))] = true
		}
		stackCalls := [2]int{}
		for s := 0; s < 300; s++ {
			states := make(map[pmem.Addr]pmem.WordMeta)
			for w := 0; w < words; w++ {
				states[pmem.Addr(8*w)] = pmem.WordMeta{Dirty: rng.Intn(4) != 0, CleanEpoch: uint32(rng.Intn(3))}
			}
			lookups := make(map[pmem.Addr]int)
			sc := StoreCheck{
				Thread:    pmem.ThreadID(1 + rng.Intn(3)),
				Site:      site.ID(1 + rng.Intn(3)),
				Addr:      pmem.Addr(8 * rng.Intn(words+4)),
				Size:      uint64(8 * (1 + rng.Intn(2))),
				ValLab:    labels[rng.Intn(len(labels))],
				External:  rng.Intn(8) == 0,
				Known:     func(k [3]uint32) bool { return known[k] },
				WordState: func(a pmem.Addr) pmem.WordMeta { return states[a] },
			}
			if rng.Intn(3) == 0 {
				sc.AddrLab = labels[rng.Intn(len(labels))]
			}
			if rng.Intn(10) == 0 {
				sc.WordState = nil
			}
			gsc, wsc := sc, sc
			if sc.WordState != nil {
				gsc.WordState = func(a pmem.Addr) pmem.WordMeta { lookups[a]++; return states[a] }
			}
			gsc.Stack = func() []string { stackCalls[0]++; return []string{fmt.Sprint("store ", s)} }
			wsc.Stack = func() []string { stackCalls[1]++; return []string{fmt.Sprint("store ", s)} }
			if err := sameFindings(got.OnStore(gsc), refOnStore(want, wsc)); err != nil {
				t.Fatalf("seed %d store %d: %v", seed, s, err)
			}
			if stackCalls[0] != stackCalls[1] {
				t.Fatalf("seed %d store %d: %d stack captures, reference %d", seed, s, stackCalls[0], stackCalls[1])
			}
			// A run of events on one word costs one lookup.
			runs, last := 0, pmem.Addr(1)
			for _, ev := range slices.Concat(tb.Events(sc.ValLab), tb.Events(sc.AddrLab)) {
				if ev.Addr != last {
					runs, last = runs+1, ev.Addr
				}
			}
			total := 0
			for _, n := range lookups {
				total += n
			}
			if total > runs {
				t.Fatalf("seed %d store %d: %d word lookups for %d runs of events on one word", seed, s, total, runs)
			}
		}
		if err := sameFindings(got.Inconsistencies(), want.Inconsistencies()); err != nil {
			t.Fatalf("seed %d: recorded: %v", seed, err)
		}
	}
}

// A store counts once toward each finding it reaches, however many lineage
// events lead there: a 97-link chain on one word, stored twice, reads 2.
func TestOnStoreCountsOncePerStore(t *testing.T) {
	d := newDet()
	lab := taint.None
	for i := 0; i < 97; i++ {
		lab = d.Labels().Union(lab, d.OnDirtyRead(interEvent(10, 20, 64)))
	}
	if n := len(d.Labels().Events(lab)); n != 97 {
		t.Fatalf("chain has %d events, want 97", n)
	}
	sc := StoreCheck{Thread: 2, Site: 99, Addr: 256, Size: 8, ValLab: lab,
		WordState: func(pmem.Addr) pmem.WordMeta { return pmem.WordMeta{Dirty: true} }}
	if found := d.OnStore(sc); len(found) != 1 {
		t.Fatalf("first store found %d findings, want 1", len(found))
	}
	if found := d.OnStore(sc); len(found) != 0 {
		t.Fatalf("second store found %d new findings, want 0", len(found))
	}
	ins := d.Inconsistencies()
	if len(ins) != 1 || ins[0].Count != 2 {
		t.Fatalf("findings %d, count %d: want one finding counted twice", len(ins), ins[0].Count)
	}
}

// BenchmarkOnStoreChain: a tainted store whose lineage is an n-link taint
// chain on one word — an allocator's unflushed bump pointer — repeating a
// known finding, as every allocation after the first does. One link is the
// common one-event lineage. The word-state lookup takes a lock, as the
// pool's does. The reference loop runs the same stores for comparison.
func BenchmarkOnStoreChain(b *testing.B) {
	for _, impl := range []struct {
		name    string
		onStore func(*Detector, StoreCheck) []*Inconsistency
	}{{"OnStore", (*Detector).OnStore}, {"reference", refOnStore}} {
		for _, links := range []int{1, 16, 128, 1024} {
			b.Run(fmt.Sprintf("%s/links=%d", impl.name, links), func(b *testing.B) {
				d := newDet()
				lab := taint.None
				for i := 0; i < links; i++ {
					lab = d.Labels().Union(lab, d.OnDirtyRead(interEvent(10, 20, 64)))
					d.Labels().Events(lab)
				}
				var mu sync.Mutex
				state := func(pmem.Addr) pmem.WordMeta {
					mu.Lock()
					defer mu.Unlock()
					return pmem.WordMeta{Dirty: true}
				}
				sc := StoreCheck{Thread: 2, Site: 99, Addr: 256, Size: 8, ValLab: lab, WordState: state}
				impl.onStore(d, sc)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					impl.onStore(d, sc)
				}
			})
		}
	}
}
