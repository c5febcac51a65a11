package pmem

import (
	"bytes"
	"math/rand"
	"testing"
)

// drainFreePools empties the recovery free list so a test or benchmark
// starts from known state.
func drainFreePools() {
	freePools.mu.Lock()
	defer freePools.mu.Unlock()
	clear(freePools.bySize)
}

// randomOps runs a random mix of every pool operation that writes data,
// metadata, labels, accessor records or pending flushes, some of them left
// unfenced at the end.
func randomOps(rng *rand.Rand, p *Pool, n int) {
	// Half the accesses land in a small hot region so flushes, stores and
	// fences collide on the same lines; the rest spread over the pool.
	addr := func(align uint64, span uint64) Addr {
		limit := p.Size() - span
		if rng.Intn(2) == 0 && limit > 4096 {
			limit = 4096
		}
		return Addr(rng.Uint64()%(limit+1)) &^ (align - 1)
	}
	for i := 0; i < n; i++ {
		t := ThreadID(rng.Intn(3))
		site := uint32(rng.Intn(100) + 1)
		label := uint32(rng.Intn(5))
		switch rng.Intn(12) {
		case 0:
			p.InstrStore64(t, site, addr(8, 8), rng.Uint64(), label)
		case 1:
			data := make([]byte, 1+rng.Intn(100))
			rng.Read(data)
			p.InstrStoreBytes(t, site, addr(1, uint64(len(data))), data, label)
		case 2:
			p.InstrNTStore64(t, site, addr(8, 8), rng.Uint64(), label)
		case 3:
			data := make([]byte, 1+rng.Intn(40))
			rng.Read(data)
			p.NTStoreBytes(t, site, addr(1, uint64(len(data))), data)
		case 4: // CAS that succeeds
			a := addr(8, 8)
			p.InstrCAS64(t, site, a, p.Load64(a), rng.Uint64(), label)
		case 5: // CAS that fails
			a := addr(8, 8)
			p.InstrCAS64(t, site, a, p.Load64(a)+1, rng.Uint64(), label)
			p.CAS64(t, site, a, p.Load64(a)+1, 0)
		case 6: // flush left pending
			p.Flush(t, addr(1, 200), 1+uint64(rng.Intn(200)))
		case 7: // flush then fence
			p.Flush(t, addr(1, 100), 1+uint64(rng.Intn(100)))
			p.Fence(t)
		case 8:
			p.InstrLoad64(t, site, addr(8, 8))
			p.InstrLoadBytes(t, site, addr(1, 64), 1+uint64(rng.Intn(64)))
			p.Load64(addr(8, 8))
		case 9:
			p.Store64(t, site, addr(8, 8), rng.Uint64())
			p.PersistNow(t, addr(1, 64), 1+uint64(rng.Intn(64)))
		case 10:
			p.SetShadowLabel(addr(8, 64), 1+uint64(rng.Intn(64)), label)
			p.SwapAccessor(addr(8, 8), Accessor{Site: site, Thread: t, Valid: true})
		default:
			p.Fence(t)
		}
	}
}

// assertHolds compares every field of p but the touched bitmap and the base
// id with a New pool holding img.
func assertHolds(t *testing.T, p *Pool, img []byte) {
	t.Helper()
	want := New(uint64(len(img)))
	copy(want.cache, img)
	copy(want.persisted, img)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.size != want.size || p.eadr || p.baseSnap != nil {
		t.Fatalf("size %d eadr %v baseSnap %v, want size %d and neither set",
			p.size, p.eadr, p.baseSnap != nil, want.size)
	}
	if !bytes.Equal(p.cache, want.cache) {
		t.Fatalf("cache differs from image")
	}
	if !bytes.Equal(p.persisted, want.persisted) {
		t.Fatalf("persisted image differs from image")
	}
	for i := range want.meta {
		if p.meta[i] != want.meta[i] {
			t.Fatalf("meta[%d] = %+v, want %+v", i, p.meta[i], want.meta[i])
		}
		if p.shadow[i] != 0 {
			t.Fatalf("shadow[%d] = %d, want 0", i, p.shadow[i])
		}
		if p.last[i] != (Accessor{}) {
			t.Fatalf("last[%d] = %+v, want zero", i, p.last[i])
		}
	}
	for i, n := range p.linePending {
		if n != 0 {
			t.Fatalf("linePending[%d] = %d, want 0", i, n)
		}
	}
	if len(p.touched) != len(want.touched) || len(p.linePending) != len(want.linePending) {
		t.Fatalf("bitmap lengths differ from a new pool")
	}
	for th, entries := range p.pending {
		if len(entries) != 0 {
			t.Fatalf("thread %d has %d pending lines, want none", th, len(entries))
		}
	}
}

// assertEqualsFresh is assertHolds with the touched bitmap cleared too, as
// FromImage leaves it.
func assertEqualsFresh(t *testing.T, p *Pool, img []byte) {
	t.Helper()
	assertHolds(t, p, img)
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, w := range p.touched {
		if w != 0 {
			t.Fatalf("touched[%d] = %#x, want 0", i, w)
		}
	}
}

// A pool handed out again by FromImage after Release must be
// indistinguishable from a new pool holding the same image, whatever its
// previous user did: stores of every kind, CAS that succeed and fail,
// flushes with and without fences, loads, labels and accessor swaps.
func TestFromImageRecycledEqualsFresh(t *testing.T) {
	drainFreePools()
	defer drainFreePools()
	rng := rand.New(rand.NewSource(1))
	sizes := []int{
		256 << 10, 256<<10 - 13, // same rounded size: tail past the image is cleared
		512 << 10, 256 << 10, 512<<10 - 1, 512 << 10,
		256<<10 - 13, 256 << 10,
	}
	var prev *Pool
	for i, n := range sizes {
		img := make([]byte, n)
		rng.Read(img)
		p := FromImage(img)
		if prev != nil && prev.Size() == roundSize(uint64(n)) && p != prev {
			t.Fatalf("step %d: FromImage did not reuse the released %d-byte pool", i, prev.Size())
		}
		assertEqualsFresh(t, p, img)
		// The validation oracle relies on Overwritten: nothing is
		// overwritten until something stores to it.
		for a := Addr(0); a+WordSize <= p.Size(); a += WordSize {
			if p.Overwritten(Range{Off: a, Len: WordSize}) {
				t.Fatalf("step %d: word %#x reported overwritten on a fresh image pool", i, a)
			}
		}
		a := Addr(rng.Intn(int(p.Size()/WordSize))) * WordSize
		p.Store64(1, 1, a, 1)
		if !p.Overwritten(Range{Off: a, Len: WordSize}) {
			t.Fatalf("step %d: stored word %#x not reported overwritten", i, a)
		}
		if a > 0 && p.Overwritten(Range{Off: a - WordSize, Len: WordSize}) {
			t.Fatalf("step %d: neighbour of %#x reported overwritten", i, a)
		}
		randomOps(rng, p, 2000)
		p.Release()
		prev = p
	}
}

// Release ignores pools FromImage never builds: eADR pools and pools based
// on a snapshot, which executors recycle on their own.
func TestReleaseIgnoresEADRAndSnapshotPools(t *testing.T) {
	drainFreePools()
	defer drainFreePools()
	eadr := NewWithOptions(4096, Options{EADR: true})
	eadr.Release()
	snapPool := NewFromSnapshot(New(4096).Snapshot())
	snapPool.Release()
	if q := FromImage(make([]byte, 4096)); q == eadr || q == snapPool {
		t.Fatalf("FromImage handed out a pool Release must ignore")
	}
}

// BenchmarkFromImage is the cost of mapping a pmwal-sized crash image for
// recovery: fresh allocates a new pool each time, recycled resets a released
// one. Both touch a few lines, as a short recovery does.
func BenchmarkFromImage(b *testing.B) {
	img := make([]byte, 256<<10)
	rand.New(rand.NewSource(1)).Read(img)
	touch := func(p *Pool) {
		for a := Addr(0); a < 16*LineSize; a += LineSize {
			p.InstrStore64(0, 1, a, 1, 0)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		drainFreePools()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			touch(FromImage(img))
		}
	})
	b.Run("recycled", func(b *testing.B) {
		drainFreePools()
		FromImage(img).Release()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := FromImage(img)
			touch(p)
			p.Release()
		}
	})
	drainFreePools()
}
