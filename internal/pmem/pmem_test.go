package pmem

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewRoundsUpToLineSize(t *testing.T) {
	p := New(100)
	if p.Size() != 128 {
		t.Fatalf("size = %d, want 128", p.Size())
	}
	if New(0).Size() != LineSize {
		t.Fatalf("zero-size pool should round up to one line")
	}
	if New(128).Size() != 128 {
		t.Fatalf("aligned size must be preserved")
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	p := New(1024)
	p.Store64(1, 7, 64, 0xdeadbeefcafe)
	if got := p.Load64(64); got != 0xdeadbeefcafe {
		t.Fatalf("Load64 = %#x, want 0xdeadbeefcafe", got)
	}
}

func TestStoreIsVisibleButNotPersisted(t *testing.T) {
	p := New(1024)
	p.Store64(1, 7, 64, 42)
	if got := p.Load64(64); got != 42 {
		t.Fatalf("cache visibility: got %d, want 42", got)
	}
	if got := p.PersistedLoad64(64); got != 0 {
		t.Fatalf("persisted image should be 0 before flush+fence, got %d", got)
	}
	st := p.WordState(64)
	if !st.Dirty || st.Writer != 1 || st.Site != 7 {
		t.Fatalf("word state = %+v, want dirty writer=1 site=7", st)
	}
}

func TestFlushAloneDoesNotPersist(t *testing.T) {
	p := New(1024)
	p.Store64(1, 7, 64, 42)
	p.Flush(1, 64, 8)
	if got := p.PersistedLoad64(64); got != 0 {
		t.Fatalf("flush without fence must not persist, got %d", got)
	}
	if !p.WordState(64).Dirty {
		t.Fatalf("word must stay dirty until fence")
	}
}

func TestFlushFencePersistsAndCleans(t *testing.T) {
	p := New(1024)
	p.Store64(1, 7, 64, 42)
	p.Flush(1, 64, 8)
	p.Fence(1)
	if got := p.PersistedLoad64(64); got != 42 {
		t.Fatalf("persisted = %d, want 42", got)
	}
	if p.WordState(64).Dirty {
		t.Fatalf("word must be clean after flush+fence")
	}
}

func TestFenceOnlyCommitsOwnThreadsFlushes(t *testing.T) {
	p := New(1024)
	p.Store64(1, 7, 64, 42)
	p.Flush(1, 64, 8)
	p.Fence(2) // other thread's fence
	if got := p.PersistedLoad64(64); got != 0 {
		t.Fatalf("another thread's fence must not commit, got %d", got)
	}
	p.Fence(1)
	if got := p.PersistedLoad64(64); got != 42 {
		t.Fatalf("own fence must commit, got %d", got)
	}
}

func TestStoreBetweenFlushAndFenceStaysDirty(t *testing.T) {
	p := New(1024)
	p.Store64(1, 7, 64, 1)
	p.Flush(1, 64, 8)
	p.Store64(1, 8, 64, 2) // overwrite after CLWB captured the line
	p.Fence(1)
	if got := p.PersistedLoad64(64); got != 1 {
		t.Fatalf("fence must commit the flushed value 1, got %d", got)
	}
	if !p.WordState(64).Dirty {
		t.Fatalf("the post-flush store must remain dirty")
	}
	if got := p.Load64(64); got != 2 {
		t.Fatalf("cache must hold the newest value 2, got %d", got)
	}
}

func TestFlushCoversWholeLines(t *testing.T) {
	p := New(1024)
	p.Store64(1, 7, 64, 11)
	p.Store64(1, 7, 120, 22) // same line as 64? line 64..127 -> yes
	p.Flush(1, 64, 8)        // flushing one word flushes the whole line
	p.Fence(1)
	if got := p.PersistedLoad64(120); got != 22 {
		t.Fatalf("line-granularity flush must persist neighbours, got %d", got)
	}
}

func TestNTStorePersistsImmediately(t *testing.T) {
	p := New(1024)
	p.NTStore64(3, 9, 128, 77)
	if got := p.PersistedLoad64(128); got != 77 {
		t.Fatalf("NT store must be persisted, got %d", got)
	}
	if p.WordState(128).Dirty {
		t.Fatalf("NT store must leave the word clean")
	}
	if got := p.Load64(128); got != 77 {
		t.Fatalf("NT store must be visible in cache, got %d", got)
	}
}

func TestStoreBytesAndLoadBytes(t *testing.T) {
	p := New(1024)
	data := []byte("hello persistent world")
	p.StoreBytes(2, 5, 200, data)
	if got := p.LoadBytes(200, uint64(len(data))); !bytes.Equal(got, data) {
		t.Fatalf("LoadBytes = %q, want %q", got, data)
	}
	for a := Addr(200); a < 200+Addr(len(data)); a += WordSize {
		if !p.WordState(a).Dirty {
			t.Fatalf("byte store must dirty covered word %d", a)
		}
	}
}

func TestCAS64(t *testing.T) {
	p := New(1024)
	p.Store64(1, 1, 64, 10)
	ok, old := p.CAS64(2, 2, 64, 10, 20)
	if !ok || old != 10 {
		t.Fatalf("CAS success expected, ok=%v old=%d", ok, old)
	}
	if got := p.Load64(64); got != 20 {
		t.Fatalf("CAS must store new value, got %d", got)
	}
	st := p.WordState(64)
	if st.Writer != 2 {
		t.Fatalf("CAS writer = %d, want 2", st.Writer)
	}
	ok, old = p.CAS64(3, 3, 64, 10, 30)
	if ok || old != 20 {
		t.Fatalf("CAS failure expected, ok=%v old=%d", ok, old)
	}
	if p.WordState(64).Writer != 2 {
		t.Fatalf("failed CAS must not change writer")
	}
}

func TestCrashImageDropsUnflushedWrites(t *testing.T) {
	p := New(1024)
	p.Store64(1, 1, 0, 111)
	p.Flush(1, 0, 8)
	p.Fence(1)
	p.Store64(1, 2, 512, 222) // never flushed
	img := p.CrashImage()
	q := FromImage(img)
	if got := q.Load64(0); got != 111 {
		t.Fatalf("persisted write lost across crash: got %d", got)
	}
	if got := q.Load64(512); got != 0 {
		t.Fatalf("unflushed write must be lost, got %d", got)
	}
}

func TestCrashImageWithForcesRanges(t *testing.T) {
	p := New(1024)
	p.Store64(1, 1, 512, 222) // unflushed
	img := p.CrashImageWith([]Range{{Off: 512, Len: 8}})
	q := FromImage(img)
	if got := q.Load64(512); got != 222 {
		t.Fatalf("forced range must appear in image, got %d", got)
	}
}

// TestCrashImageWithOutOfBoundsPanics is the regression test for the silent
// `continue` that used to drop fully out-of-range side-effect ranges: a bad
// range would yield a crash image missing its own side effect and a
// falsely-clean recovery run. It must panic with a diagnostic instead.
func TestCrashImageWithOutOfBoundsPanics(t *testing.T) {
	p := New(128)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("fully out-of-range crash-image range must panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "outside pool") {
			t.Fatalf("panic = %v, want range diagnostic", r)
		}
	}()
	p.CrashImageWith([]Range{{Off: 1 << 30, Len: 8}})
}

// TestCrashImageWithClampsPartialOverlap: a range that starts inside the pool
// but runs past its end is clamped to the pool boundary, not dropped.
func TestCrashImageWithClampsPartialOverlap(t *testing.T) {
	p := New(128)
	p.Store64(1, 1, 120, 77) // unflushed, in the last word
	img := p.CrashImageWith([]Range{{Off: 120, Len: 64}})
	if len(img) != 128 {
		t.Fatalf("image size = %d, want 128", len(img))
	}
	if got := FromImage(img).Load64(120); got != 77 {
		t.Fatalf("clamped range must still force the in-bounds prefix, got %d", got)
	}
}

// TestCrashImageWithZeroLenRangeIgnored: zero-length ranges stay no-ops even
// when their offset is out of range (a Range{} zero value must be harmless).
func TestCrashImageWithZeroLenRangeIgnored(t *testing.T) {
	p := New(128)
	img := p.CrashImageWith([]Range{{Off: 1 << 30, Len: 0}})
	if len(img) != 128 {
		t.Fatalf("image size = %d, want 128", len(img))
	}
}

func TestCrashStatesSingleIsAdversarialImage(t *testing.T) {
	p := New(256)
	p.Store64(1, 1, 64, 9) // unflushed
	states := p.CrashStates([]Range{{Off: 64, Len: 8}}, 1)
	if len(states) != 1 {
		t.Fatalf("max=1 must yield exactly the adversarial state, got %d", len(states))
	}
	st := states[0]
	if st.Name != StateSideEffect || !st.HasSideEffect {
		t.Fatalf("state = %+v, want side-effect-persisted", st)
	}
	if got := FromImage(st.Img).Load64(64); got != 9 {
		t.Fatalf("adversarial image must force the side effect, got %d", got)
	}
}

func TestCrashStatesEnumeratesBaselineAndPendingLines(t *testing.T) {
	p := New(512)
	p.Store64(1, 1, 64, 5)
	p.PersistNow(1, 64, 8)
	p.Store64(1, 1, 128, 7) // flushed but unfenced: a pending line
	p.Flush(1, 128, 8)
	p.Store64(1, 1, 256, 3) // dirty side effect
	states := p.CrashStates([]Range{{Off: 256, Len: 8}}, 8)
	if len(states) != 3 {
		t.Fatalf("got %d states, want adversarial+baseline+1 pending line", len(states))
	}
	if states[0].Name != StateSideEffect || states[1].Name != StateBaseline {
		t.Fatalf("state order = %q, %q", states[0].Name, states[1].Name)
	}
	if states[1].HasSideEffect {
		t.Fatalf("baseline must not claim the side effect")
	}
	base := FromImage(states[1].Img)
	if base.Load64(64) != 5 || base.Load64(256) != 0 {
		t.Fatalf("baseline must be the plain persisted image")
	}
	pend := states[2]
	if pend.Name != "pending-line@0x80" || !pend.HasSideEffect {
		t.Fatalf("pending state = %+v", pend)
	}
	pimg := FromImage(pend.Img)
	if pimg.Load64(128) != 7 {
		t.Fatalf("pending state must apply the staged line, got %d", pimg.Load64(128))
	}
	if pimg.Load64(256) != 3 {
		t.Fatalf("pending state must keep the adversarial side effect, got %d", pimg.Load64(256))
	}
	RecycleStates(states)
}

func TestCrashStatesRespectsCap(t *testing.T) {
	p := New(1024)
	for i := 0; i < 4; i++ {
		addr := Addr(64 * (i + 1))
		p.Store64(1, 1, addr, uint64(i+1))
		p.Flush(1, addr, 8)
	}
	p.Store64(1, 1, 768, 9)
	states := p.CrashStates([]Range{{Off: 768, Len: 8}}, 3)
	if len(states) != 3 {
		t.Fatalf("got %d states, want cap of 3", len(states))
	}
}

func TestRecycleStatesClearsImages(t *testing.T) {
	p := New(128)
	states := p.CrashStates(nil, 2)
	RecycleStates(states)
	for i, st := range states {
		if st.Img != nil {
			t.Fatalf("state %d image not cleared after recycle", i)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := New(1024)
	p.Store64(1, 1, 64, 5)
	p.PersistNow(1, 64, 8)
	s := p.Snapshot()
	p.Store64(1, 2, 64, 99)
	p.Store64(1, 2, 128, 100)
	p.Restore(s)
	if got := p.Load64(64); got != 5 {
		t.Fatalf("restore must revert cache, got %d", got)
	}
	if got := p.Load64(128); got != 0 {
		t.Fatalf("restore must revert later writes, got %d", got)
	}
	if got := p.PersistedLoad64(64); got != 5 {
		t.Fatalf("restore must revert persisted image, got %d", got)
	}
}

func TestNewFromSnapshotIsIndependent(t *testing.T) {
	p := New(256)
	p.Store64(1, 1, 0, 7)
	s := p.Snapshot()
	q := NewFromSnapshot(s)
	q.Store64(1, 2, 0, 8)
	if got := p.Load64(0); got != 7 {
		t.Fatalf("pools must be independent, got %d", got)
	}
	if got := q.Load64(0); got != 8 {
		t.Fatalf("snapshot pool write lost, got %d", got)
	}
}

func TestRestoreSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on size mismatch")
		}
	}()
	p := New(128)
	q := New(256)
	p.Restore(q.Snapshot())
}

func TestOutOfBoundsAccessPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on out-of-bounds load")
		}
	}()
	New(128).Load64(128)
}

func TestShadowLabels(t *testing.T) {
	p := New(1024)
	p.SetShadowLabel(64, 16, 9)
	if got := p.ShadowLabel(64); got != 9 {
		t.Fatalf("shadow = %d, want 9", got)
	}
	if got := p.ShadowLabel(72); got != 9 {
		t.Fatalf("shadow of second word = %d, want 9", got)
	}
	if got := p.ShadowLabel(80); got != 0 {
		t.Fatalf("untouched shadow = %d, want 0", got)
	}
	p.SetShadowLabel(72, 8, 4)
	labels := p.ShadowLabelRange(64, 24)
	if len(labels) != 2 {
		t.Fatalf("label range = %v, want two labels", labels)
	}
}

func TestShadowLabelRangeDeduplicates(t *testing.T) {
	p := New(1024)
	p.SetShadowLabel(0, 64, 5)
	labels := p.ShadowLabelRange(0, 64)
	if len(labels) != 1 || labels[0] != 5 {
		t.Fatalf("labels = %v, want [5]", labels)
	}
}

func TestSwapAccessor(t *testing.T) {
	p := New(1024)
	prev := p.SwapAccessor(64, Accessor{Site: 1, Thread: 1, Valid: true})
	if prev.Valid {
		t.Fatalf("first access must see invalid previous accessor")
	}
	prev = p.SwapAccessor(64, Accessor{Site: 2, Thread: 2, Valid: true})
	if !prev.Valid || prev.Site != 1 || prev.Thread != 1 {
		t.Fatalf("prev = %+v, want site 1 thread 1", prev)
	}
}

func TestEpochAdvancesPerStore(t *testing.T) {
	p := New(1024)
	e0 := p.EpochAt(64)
	p.Store64(1, 1, 64, 1)
	e1 := p.EpochAt(64)
	p.Store64(1, 1, 64, 2)
	e2 := p.EpochAt(64)
	if e1 != e0+1 || e2 != e1+1 {
		t.Fatalf("epochs %d %d %d must increase by one per store", e0, e1, e2)
	}
}

func TestPersistedEquals(t *testing.T) {
	p := New(1024)
	p.Store64(1, 1, 64, 42)
	if p.PersistedEquals(64, 8) {
		t.Fatalf("dirty range must not compare equal")
	}
	p.PersistNow(1, 64, 8)
	if !p.PersistedEquals(64, 8) {
		t.Fatalf("persisted range must compare equal")
	}
}

func TestStats(t *testing.T) {
	p := New(1024)
	p.Store64(1, 1, 0, 1)
	p.Flush(1, 0, 8)
	p.Fence(1)
	s, f, fe := p.Stats()
	if s != 1 || f != 1 || fe != 1 {
		t.Fatalf("stats = %d %d %d, want 1 1 1", s, f, fe)
	}
}

func TestRandomEvictionPersistsButKeepsDirty(t *testing.T) {
	p := NewWithOptions(LineSize, Options{EvictProb: 1, EvictSeed: 1})
	p.Store64(1, 1, 0, 9)
	// With one line and eviction probability 1, one more store forces the
	// dirty line back to the persisted image.
	p.Store64(1, 1, 8, 10)
	if got := p.PersistedLoad64(0); got != 9 {
		t.Fatalf("evicted line must be persisted, got %d", got)
	}
	if !p.WordState(0).Dirty {
		t.Fatalf("eviction must not clear the dirty bit")
	}
}

// Property: any write that was flushed and fenced before a crash survives in
// the crash image; any write that was never flushed is absent (zero).
func TestCrashConsistencyProperty(t *testing.T) {
	f := func(seed int64, spec []byte) bool {
		if len(spec) == 0 {
			return true
		}
		p := New(4096)
		type rec struct {
			addr Addr
			val  uint64
			per  bool
		}
		written := map[Addr]rec{}
		for i, b := range spec {
			// Keep flushed and unflushed writes on distinct cache
			// lines so line-granularity flushes don't persist
			// bystanders.
			persist := b%2 == 0
			slot := Addr(b%16) * 2
			if persist {
				slot++
			}
			addr := slot * LineSize
			val := uint64(i + 1)
			p.Store64(1, 1, addr, val)
			if persist {
				p.Flush(1, addr, 8)
				p.Fence(1)
			}
			written[addr] = rec{addr, val, persist}
		}
		img := p.CrashImage()
		q := FromImage(img)
		for _, r := range written {
			got := q.Load64(r.addr)
			if r.per && got != r.val {
				return false
			}
			if !r.per && got != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot/restore is an exact round trip for cache and persisted
// images regardless of interleaved stores and flushes.
func TestSnapshotRestoreProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		p := New(2048)
		for i, op := range ops {
			addr := Addr(op%(2048/8)) * 8
			p.Store64(1, 1, addr, uint64(i))
			if op%3 == 0 {
				p.PersistNow(1, addr, 8)
			}
		}
		before := p.Snapshot()
		img0 := p.CrashImage()
		cache0 := p.LoadBytes(0, 2048)
		for i, op := range ops {
			addr := Addr(op%(2048/8)) * 8
			p.Store64(2, 2, addr, uint64(i)+7777)
		}
		p.Restore(before)
		return bytes.Equal(p.CrashImage(), img0) && bytes.Equal(p.LoadBytes(0, 2048), cache0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: fence is idempotent — a second fence with no intervening flush
// changes nothing.
func TestFenceIdempotentProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		p := New(1024)
		for i, v := range vals {
			addr := Addr(v%(1024/8)) * 8
			p.Store64(1, 1, addr, uint64(i))
			p.Flush(1, addr, 8)
		}
		p.Fence(1)
		img1 := p.CrashImage()
		p.Fence(1)
		return bytes.Equal(img1, p.CrashImage())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStore64(b *testing.B) {
	p := New(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Store64(1, 1, Addr(i%(1<<17))*8, uint64(i))
	}
}

func BenchmarkFlushFence(b *testing.B) {
	p := New(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := Addr(i%(1<<14)) * 64
		p.Store64(1, 1, addr, uint64(i))
		p.Flush(1, addr, 8)
		p.Fence(1)
	}
}

func TestEADRStoresAreDurableImmediately(t *testing.T) {
	p := NewWithOptions(1024, Options{EADR: true})
	if !p.EADR() {
		t.Fatalf("EADR flag lost")
	}
	p.Store64(1, 7, 64, 42)
	if got := p.PersistedLoad64(64); got != 42 {
		t.Fatalf("eADR store must be durable at visibility, got %d", got)
	}
	if p.WordState(64).Dirty {
		t.Fatalf("eADR words are never dirty")
	}
	p.StoreBytes(1, 7, 128, []byte("battery-backed"))
	if !p.PersistedEquals(128, 14) {
		t.Fatalf("eADR byte store must be durable")
	}
	ok, _ := p.CAS64(2, 8, 64, 42, 43)
	if !ok || p.PersistedLoad64(64) != 43 {
		t.Fatalf("eADR CAS must be durable")
	}
}

func TestEADRCrashLosesNothing(t *testing.T) {
	p := NewWithOptions(1024, Options{EADR: true})
	p.Store64(1, 7, 64, 42) // never flushed
	q := FromImage(p.CrashImage())
	if got := q.Load64(64); got != 42 {
		t.Fatalf("eADR crash must preserve unflushed stores, got %d", got)
	}
}
