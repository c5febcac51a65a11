package cover

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestSetReportsNew(t *testing.T) {
	b := NewBitmap()
	if !b.Set(42) {
		t.Fatalf("first Set must report new")
	}
	if b.Set(42) {
		t.Fatalf("second Set of same hash must not report new")
	}
	if b.Count() != 1 {
		t.Fatalf("count = %d, want 1", b.Count())
	}
}

func TestSetWrapsModuloMapSize(t *testing.T) {
	b := NewBitmap()
	b.Set(7)
	if b.Set(7 + MapSize) {
		t.Fatalf("hashes equal mod MapSize must collide")
	}
}

func TestMergeCountsNewBits(t *testing.T) {
	a, b := NewBitmap(), NewBitmap()
	a.Set(1)
	a.Set(2)
	b.Set(2)
	b.Set(3)
	newBits := a.Merge(b)
	if newBits != 1 {
		t.Fatalf("merge newBits = %d, want 1", newBits)
	}
	if a.Count() != 3 {
		t.Fatalf("count after merge = %d, want 3", a.Count())
	}
	if n := a.Merge(b); n != 0 {
		t.Fatalf("second merge must add nothing, got %d", n)
	}
}

func TestReset(t *testing.T) {
	b := NewBitmap()
	b.Set(5)
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("count after reset = %d", b.Count())
	}
	if !b.Set(5) {
		t.Fatalf("bit must be new again after reset")
	}
}

func TestCoverageMergeAndCounts(t *testing.T) {
	c1, c2 := New(), New()
	c2.Branch.Set(1)
	c2.Alias.Set(2)
	if n := c1.Merge(c2); n != 2 {
		t.Fatalf("coverage merge = %d, want 2", n)
	}
	br, al := c1.Counts()
	if br != 1 || al != 1 {
		t.Fatalf("counts = %d %d, want 1 1", br, al)
	}
	c1.Reset()
	br, al = c1.Counts()
	if br != 0 || al != 0 {
		t.Fatalf("counts after reset = %d %d", br, al)
	}
}

func TestEdgeHashDirectional(t *testing.T) {
	if EdgeHash(1, 2) == EdgeHash(2, 1) {
		t.Fatalf("edge hash must distinguish direction")
	}
}

func TestAliasHashDistinguishesPersistencyState(t *testing.T) {
	h1 := AliasHash(10, true, 20, false)
	h2 := AliasHash(10, false, 20, false)
	h3 := AliasHash(10, true, 20, true)
	if h1 == h2 || h1 == h3 || h2 == h3 {
		t.Fatalf("alias hashes must depend on persistency states: %d %d %d", h1, h2, h3)
	}
}

func TestAliasHashDistinguishesSites(t *testing.T) {
	if AliasHash(1, false, 2, false) == AliasHash(3, false, 2, false) {
		t.Fatalf("alias hash must depend on the first site")
	}
	if AliasHash(1, false, 2, false) == AliasHash(1, false, 4, false) {
		t.Fatalf("alias hash must depend on the second site")
	}
}

func TestConcurrentSet(t *testing.T) {
	b := NewBitmap()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.Set(uint64(i))
			}
		}(g)
	}
	wg.Wait()
	if b.Count() != 1000 {
		t.Fatalf("concurrent count = %d, want 1000", b.Count())
	}
}

// Property: merge is monotone (counts never decrease) and idempotent.
func TestMergeMonotoneIdempotentProperty(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := NewBitmap(), NewBitmap()
		for _, x := range xs {
			a.Set(uint64(x))
		}
		for _, y := range ys {
			b.Set(uint64(y))
		}
		before := a.Count()
		a.Merge(b)
		mid := a.Count()
		a.Merge(b)
		return mid >= before && a.Count() == mid && mid <= before+b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of set bits equals the number of distinct hashes mod
// MapSize.
func TestCountMatchesDistinctProperty(t *testing.T) {
	f := func(xs []uint16) bool {
		b := NewBitmap()
		distinct := map[uint64]bool{}
		for _, x := range xs {
			h := uint64(x)
			b.Set(h)
			distinct[h%MapSize] = true
		}
		return b.Count() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge through the summary fast path sees exactly the bits Set
// raised, and the summary stays consistent across Merge-populated bitmaps.
func TestMergeSummaryEquivalenceProperty(t *testing.T) {
	f := func(xs []uint64) bool {
		src, dst, chained := NewBitmap(), NewBitmap(), NewBitmap()
		distinct := map[uint64]bool{}
		for _, x := range xs {
			src.Set(x)
			distinct[x%MapSize] = true
		}
		if dst.Merge(src) != len(distinct) || dst.Count() != src.Count() {
			return false
		}
		// Merging a merge-populated bitmap must carry the same bits: the
		// summary raised inside Merge has to cover them.
		return chained.Merge(dst) == len(distinct) && chained.Hash() == src.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHashOrderIndependent(t *testing.T) {
	a, b := NewBitmap(), NewBitmap()
	hashes := []uint64{3, 99, 7777, 65535, 1 << 40}
	for _, h := range hashes {
		a.Set(h)
	}
	for i := len(hashes) - 1; i >= 0; i-- {
		b.Set(hashes[i])
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("hash depends on insertion order: %#x vs %#x", a.Hash(), b.Hash())
	}
	if a.Hash() == NewBitmap().Hash() {
		t.Fatalf("non-empty bitmap hashes like empty")
	}
	b.Set(123456)
	if a.Hash() == b.Hash() {
		t.Fatalf("different bit sets must hash differently")
	}
	a.Reset()
	if a.Hash() != NewBitmap().Hash() {
		t.Fatalf("reset bitmap must hash like empty")
	}
}

// The hot merge in the fuzzer loop must stay allocation-free; the summary
// walk must not introduce hidden allocations.
func TestMergeAllocFree(t *testing.T) {
	x, y := NewBitmap(), NewBitmap()
	for i := 0; i < 4096; i++ {
		y.Set(uint64(i * 13))
	}
	if avg := testing.AllocsPerRun(100, func() { x.Merge(y); x.Hash() }); avg != 0 {
		t.Fatalf("Merge+Hash allocates %.1f objects per run, want 0", avg)
	}
}

func BenchmarkSet(b *testing.B) {
	bm := NewBitmap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Set(uint64(i))
	}
}

func BenchmarkMerge(b *testing.B) {
	x, y := NewBitmap(), NewBitmap()
	for i := 0; i < 1000; i++ {
		y.Set(uint64(i * 7))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Merge(y)
	}
}
