// Race stress tests for the shared hot-path structures: the lock-free
// coverage bitmap, the site registry (return-PC and runtime.Callers paths)
// and the pmem pool, each hammered from 8 goroutines. Run under the race
// detector (`go test -race -run HotPathRace`); CI does.
package pmrace_test

import (
	"context"
	"sync"
	"testing"
	"time"

	pmrace "github.com/pmrace-go/pmrace"
	"github.com/pmrace-go/pmrace/internal/cover"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
)

const stressGoroutines = 8

// TestHotPathRaceBitmap hammers Bitmap.Set and Merge concurrently with
// overlapping hash ranges so every word sees CAS contention.
func TestHotPathRaceBitmap(t *testing.T) {
	global := cover.NewBitmap()
	var wg sync.WaitGroup
	for g := 0; g < stressGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := cover.NewBitmap()
			for i := 0; i < 20000; i++ {
				// Overlapping ranges: every goroutine revisits hashes
				// its neighbours set.
				h := cover.EdgeHash(uint32(i%4096), uint32(g%3))
				local.Set(h)
				global.Set(h)
				if i%512 == 0 {
					global.Merge(local)
					global.Count()
				}
			}
			global.Merge(local)
		}(g)
	}
	wg.Wait()
	if global.Count() == 0 {
		t.Fatal("no coverage recorded")
	}
}

// resolveCaller resolves its caller's call site the way a runtime hook does:
// the frame-pointer return PC through the registry's lock-free map, or the
// runtime.Callers unwind where that path is unavailable.
//
//go:noinline
func resolveCaller() site.ID {
	if pc := site.ReturnPC(); pc != 0 && returnPCVerified {
		return site.ResolvePC(pc)
	}
	return site.Here(0)
}

var returnPCVerified = site.VerifyReturnPC()

// TestHotPathRaceSites hammers the registry's copy-on-write publication from
// concurrent hook-style resolutions plus runtime.Callers lookups, checking all
// goroutines resolve one call site to one ID.
func TestHotPathRaceSites(t *testing.T) {
	ids := make([]site.ID, stressGoroutines)
	var wg sync.WaitGroup
	for g := 0; g < stressGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var last site.ID
			for i := 0; i < 20000; i++ {
				last = resolveCaller()
				if i%64 == 0 {
					site.Here(0) // runtime.Callers path
					site.Lookup(last)
				}
			}
			ids[g] = last
		}(g)
	}
	wg.Wait()
	for g := 1; g < stressGoroutines; g++ {
		if ids[g] != ids[0] {
			t.Fatalf("goroutine %d resolved site %v, goroutine 0 resolved %v", g, ids[g], ids[0])
		}
	}
}

// TestHotPathRacePool hammers one pool: overlapping loads, stores,
// flush/fence cycles, CAS and accessor swaps from 8 simulated threads while
// another goroutine interleaves the whole-pool operations (Snapshot,
// CrashImage) that copy the pool's images and the crash-state capture that
// walks its touched lines.
func TestHotPathRacePool(t *testing.T) {
	const poolSize = 1 << 16
	p := pmem.New(poolSize)
	snap := p.Snapshot()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < stressGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tid := pmem.ThreadID(g)
			st := uint32(g + 1)
			for i := 0; i < 8000; i++ {
				// Rotate through lines so threads meet on the same
				// words and spans sometimes straddle two lines.
				addr := pmem.Addr((i*56 + g*8) % (poolSize - 64))
				switch i % 7 {
				case 0:
					p.Store64(tid, st, addr, uint64(i))
				case 1:
					p.Load64(addr)
					p.WordState(addr)
				case 2:
					p.Flush(tid, addr, 16)
					p.Fence(tid)
				case 3:
					p.CAS64(tid, st, addr, 0, uint64(g))
				case 4:
					p.SwapAccessor(addr, pmem.Accessor{Site: st, Thread: tid, Valid: true})
					p.ShadowLabel(addr)
				case 5:
					p.InstrStore64(tid, st, addr, uint64(i), uint32(g))
				case 6:
					p.InstrLoad64(tid, st, addr)
				}
			}
		}(g)
	}
	// Whole-pool operations racing the per-access paths.
	var imgWG sync.WaitGroup
	imgWG.Add(1)
	go func() {
		defer imgWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			p.CrashImage()
			p.CrashStates([]pmem.Range{{Off: 64, Len: 8}}, 4)
			p.DirtyWords(16)
			p.Snapshot()
		}
	}()
	wg.Wait()
	close(done)
	imgWG.Wait()
	p.Restore(snap)
	if got := p.Load64(0); got != 0 {
		t.Fatalf("restored pool word 0 = %d, want 0", got)
	}
}

// TestHotPathRaceCampaignCancel hammers the campaign observability path
// under the race detector: 8 fuzzing workers emitting events through the
// shared emitter, a consumer draining the subscriber channel, concurrent
// Snapshot callers, and a mid-run context cancellation that must stop every
// worker within one execution.
func TestHotPathRaceCampaignCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := pmrace.NewCampaign(ctx, "pclht",
		pmrace.WithBudget(1<<30, time.Hour),
		pmrace.WithWorkers(stressGoroutines),
		pmrace.WithSeed(9),
		pmrace.WithSink(pmrace.NewCollector()),
		pmrace.WithEventBuffer(64), // small ring: exercise drop-oldest shedding
	)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent snapshot readers racing the workers.
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = c.Snapshot()
			}
		}()
	}

	// Cancel once a handful of executions have flowed through the stream.
	execs := 0
	for ev := range c.Events() {
		if _, ok := ev.(*pmrace.ExecDone); ok {
			if execs++; execs == 5 {
				cancel()
			}
		}
	}
	res, err := c.Wait()
	close(stop)
	snapWG.Wait()
	if err != nil {
		t.Fatalf("cancelled campaign returned error: %v", err)
	}
	if res.Execs < 5 {
		t.Fatalf("campaign stopped after %d execs, want >= 5", res.Execs)
	}
}
