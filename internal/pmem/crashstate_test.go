package pmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refState is a crash state as full-image enumeration builds it.
type refState struct {
	name          string
	hasSideEffect bool
	img           []byte
}

// refCrashStates is the full-image reference for CrashStates: a pool-sized
// copy per state, the pending-line states copied from the adversarial image
// with the staged line applied. The pool must be quiescent.
func refCrashStates(p *Pool, extra []Range, max int) []refState {
	adv := p.CrashImageWith(extra)
	states := []refState{{StateSideEffect, true, adv}}
	if max <= 1 {
		return states
	}
	states = append(states, refState{StateBaseline, false, p.CrashImage()})
	if len(states) >= max {
		return states
	}
	p.mu.Lock()
	staged := p.stagedLines()
	p.mu.Unlock()
	var lines []Addr
	for l := range staged {
		lines = append(lines, l)
	}
	slices.Sort(lines)
	for _, l := range lines {
		if len(states) >= max {
			break
		}
		img := append([]byte(nil), adv...)
		data := staged[l]
		copy(img[l:l+LineSize], data[:])
		states = append(states, refState{fmt.Sprintf("pending-line@%#x", l), true, img})
	}
	return states
}

// randomExtra returns one to three side-effect ranges, some straddling a
// line boundary and some running past the pool's end.
func randomExtra(rng *rand.Rand, size uint64) []Range {
	extra := make([]Range, 1+rng.Intn(3))
	for i := range extra {
		switch rng.Intn(3) {
		case 0: // one word
			extra[i] = Range{Off: Addr(rng.Uint64()%(size/WordSize)) * WordSize, Len: WordSize}
		case 1: // straddles a line boundary
			line := Addr(1+rng.Uint64()%(size/LineSize-1)) * LineSize
			extra[i] = Range{Off: line - 1 - Addr(rng.Intn(20)), Len: 2 + uint64(rng.Intn(100))}
		default: // clamped at the pool's end
			extra[i] = Range{Off: size - 1 - Addr(rng.Intn(100)), Len: 200}
		}
	}
	return extra
}

// checkStates compares CrashStates with the full-image reference and checks
// that every overlay is sorted, duplicate-free and holds no line equal to its
// base.
func checkStates(t *testing.T, p *Pool, extra []Range, max int) {
	t.Helper()
	want := refCrashStates(p, extra, max)
	got := p.CrashStates(extra, max)
	if len(got) != len(want) {
		t.Fatalf("%d states, reference %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], want[i]
		if g.Name != w.name || g.HasSideEffect != w.hasSideEffect {
			t.Fatalf("state %d = %q/%v, reference %q/%v", i, g.Name, g.HasSideEffect, w.name, w.hasSideEffect)
		}
		if g.size != p.Size() {
			t.Fatalf("state %d: size %d, pool %d", i, g.size, p.Size())
		}
		if img := g.Image(); !bytes.Equal(img, w.img) {
			at := 0
			for at < len(img) && img[at] == w.img[at] {
				at++
			}
			t.Fatalf("state %d (%s): image differs from the reference at %#x", i, g.Name, at)
		}
		for j, ln := range g.lines {
			if j > 0 && ln.off <= g.lines[j-1].off {
				t.Fatalf("state %d: overlay lines out of order at %#x", i, ln.off)
			}
			if bytes.Equal(ln.data[:], g.baseLine(ln.off)) {
				t.Fatalf("state %d: overlay line %#x equals its base", i, ln.off)
			}
		}
	}
}

// Every crash state is an overlay that materialises to exactly the image the
// full-copy enumeration builds, with the same names, side-effect flags and
// order: on new pools, pools restored from snapshots that carry dirty words
// and pending flushes, pools restored again to the same and to another
// snapshot, eADR pools and image pools.
func TestCrashStatesMatchFullImages(t *testing.T) {
	const size = 64 << 10
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		check := func(p *Pool) {
			t.Helper()
			for _, max := range []int{1, 2, 4, 64} {
				checkStates(t, p, randomExtra(rng, p.Size()), max)
			}
			checkStates(t, p, nil, 4)
		}
		eadr := seed%3 == 0
		p := NewWithOptions(size, Options{EADR: eadr})
		randomOps(rng, p, 300)
		check(p) // zero base

		s1 := p.Snapshot() // dirty words; pending flushes are dropped
		q := NewFromSnapshot(s1)
		randomOps(rng, q, 300)
		check(q)
		q.Restore(s1) // same base: touched-line restore
		randomOps(rng, q, 300)
		check(q)
		randomOps(rng, p, 300)
		s2 := p.Snapshot()
		q.Restore(s2) // another base: full copy
		randomOps(rng, q, 300)
		check(q)

		img := p.CrashImage()
		r := FromImage(img) // no base: every line is a candidate
		randomOps(rng, r, 300)
		check(r)
		r.Release()
	}
}

// PersistedState is the baseline state of CrashStates.
func TestPersistedStateIsBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := New(32 << 10)
	randomOps(rng, p, 500)
	q := NewFromSnapshot(p.Snapshot())
	randomOps(rng, q, 500)
	for _, pool := range []*Pool{p, q} {
		st := pool.PersistedState()
		if st.Name != StateBaseline || st.HasSideEffect {
			t.Fatalf("state %q/%v, want the baseline", st.Name, st.HasSideEffect)
		}
		if !bytes.Equal(st.Image(), pool.CrashImage()) {
			t.Fatalf("persisted state differs from the crash image")
		}
	}
}

// ImageState's overlay reproduces its image, zero-padded to whole lines.
func TestImageStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 63, 64, 4096, 4096 + 13} {
		img := make([]byte, n)
		rng.Read(img)
		img[0] = 0
		st := ImageState("x", true, img)
		want := make([]byte, roundSize(uint64(n)))
		copy(want, img)
		if !bytes.Equal(st.Image(), want) {
			t.Fatalf("%d bytes: image differs", n)
		}
		if got := FromState(st).LoadBytes(0, st.size); !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: recovery pool differs", n)
		}
	}
}

// A recovery pool handed out by FromState is field-for-field a New pool
// holding the state's image, whatever its previous user did and whichever
// base its bytes held: reused on the same base (a touched-line reset), on
// another base of the same size, on the zero base, and after a FromImage
// pool, whose bytes name no base and must be replaced in full.
func TestFromStateRecycledEqualsFresh(t *testing.T) {
	drainFreePools()
	defer drainFreePools()
	const size = 64 << 10
	rng := rand.New(rand.NewSource(5))
	var snaps []*Snapshot
	for i := 0; i < 2; i++ {
		p := New(size)
		randomOps(rng, p, 400)
		snaps = append(snaps, p.Snapshot())
	}
	state := func(base int) CrashState {
		var p *Pool
		if base < 0 {
			p = New(size)
		} else {
			p = NewFromSnapshot(snaps[base])
		}
		randomOps(rng, p, 200)
		states := p.CrashStates(randomExtra(rng, size), 4)
		return states[rng.Intn(len(states))]
	}
	var prev *Pool
	reuse := func(step string, p *Pool, img []byte) {
		t.Helper()
		if p != prev {
			t.Fatalf("%s: the released pool was not reused", step)
		}
		assertHolds(t, p, img)
		for a := Addr(0); a < size; a += WordSize {
			if p.Overwritten(Range{Off: a, Len: WordSize}) {
				t.Fatalf("%s: word %#x overwritten on a fresh recovery pool", step, a)
			}
		}
		randomOps(rng, p, 2000)
		p.Release()
	}
	prev = FromState(state(0))
	randomOps(rng, prev, 2000)
	prev.Release()
	for i, base := range []int{0, 0, 1, 1, 0, -1, -1, 1, 2, 0, 2, -1, 0} {
		if base == 2 { // a full image, no base
			img := make([]byte, size)
			rng.Read(img)
			reuse(fmt.Sprintf("step %d (image)", i), FromImage(img), img)
			continue
		}
		st := state(base)
		reuse(fmt.Sprintf("step %d (base %d)", i, base), FromState(st), st.Image())
	}
}

// The free list hands a state a pool already holding its base when it has
// one, and records the base by id, so a campaign's recovery pools keep no
// snapshot reachable.
func TestFreeListPrefersSameBase(t *testing.T) {
	drainFreePools()
	defer drainFreePools()
	const size = 8 << 10
	a, b := New(size).Snapshot(), New(size).Snapshot()
	onA := NewFromSnapshot(a).CrashStates(nil, 1)[0]
	onB := NewFromSnapshot(b).CrashStates(nil, 1)[0]
	pa, pb := FromState(onA), FromState(onB)
	pa.Release()
	pb.Release()
	if got := FromState(onA); got != pa {
		t.Fatalf("a state on base A did not get the pool last reset on A")
	}
	freePools.mu.Lock()
	defer freePools.mu.Unlock()
	for _, fp := range freePools.bySize[size] {
		if fp.imageID != baseID(b) {
			t.Fatalf("free pool records base %d, want %d", fp.imageID, baseID(b))
		}
	}
}

// dirtyWordsScan is the full-pool reference for DirtyWords.
func dirtyWordsScan(p *Pool, max int) []DirtyWord {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []DirtyWord
	for w := range p.meta {
		m := &p.meta[w]
		if !m.Dirty {
			continue
		}
		a := Addr(w) * WordSize
		out = append(out, DirtyWord{Addr: a, Cache: le64(p.cache[a:]), Persisted: le64(p.persisted[a:]),
			Writer: m.Writer, Site: m.Site, Epoch: m.Epoch})
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// DirtyWords walks only the touched lines and the snapshot's dirty list, and
// returns exactly what a full scan returns, in address order and under the
// same cap: on pools whose snapshot carried dirty words, restored again to
// the same snapshot, on new pools and on image pools.
func TestDirtyWordsMatchesFullScan(t *testing.T) {
	const size = 32 << 10
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		check := func(p *Pool) {
			t.Helper()
			for _, max := range []int{0, 1, 3, 17, 256} {
				got, want := p.DirtyWords(max), dirtyWordsScan(p, max)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d max %d: %d dirty words, full scan %d", seed, max, len(got), len(want))
				}
			}
		}
		p := New(size)
		randomOps(rng, p, 400)
		check(p)
		snap := p.Snapshot()
		if len(snap.dirty) == 0 {
			t.Fatalf("seed %d: snapshot carries no dirty words", seed)
		}
		q := NewFromSnapshot(snap)
		check(q)
		randomOps(rng, q, 300)
		check(q)
		q.Restore(snap)
		randomOps(rng, q, 100)
		check(q)
		r := FromImage(p.CrashImage())
		randomOps(rng, r, 100)
		check(r)
	}
}

// BenchmarkCrashStates is the capture of four crash states for a finding on
// a pmwal-sized pool restored from its checkpoint, after an execution that
// stored to 40 lines, persisted half of them and left two flushes unfenced.
func BenchmarkCrashStates(b *testing.B) {
	const size = 256 << 10
	base := New(size)
	for a := Addr(0); a < size; a += 512 {
		base.Store64(0, 1, a, uint64(a)+1)
	}
	base.PersistNow(0, 0, size)
	p := NewFromSnapshot(base.Snapshot())
	for a := Addr(0); a < 40*LineSize; a += LineSize {
		p.Store64(1, 2, a, 7)
	}
	p.PersistNow(1, 0, 20*LineSize)
	p.Flush(1, 30*LineSize, 2*LineSize)
	extra := []Range{{Off: 38 * LineSize, Len: 8}}
	if n := len(p.CrashStates(extra, 4)); n != 4 {
		b.Fatalf("%d states, want 4", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.CrashStates(extra, 4)
	}
}
