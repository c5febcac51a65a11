package fuzz

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/targets/pmwal"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// countingName registers a stub target that counts the instances built and
// the Setup calls made, so tests can see when a campaign skips Setup.
const countingName = "fuzz-test-counting"

var countingBuilt, countingSetups atomic.Int64

type countingTarget struct{ stubTarget }

func (c *countingTarget) Setup(t *rt.Thread) error {
	countingSetups.Add(1)
	t.Store64(256, 1, 0, 0) // give the checkpoint a non-zero word
	t.Flush(256, 8)
	t.Fence()
	return nil
}

func init() {
	targets.Register(countingName, func() targets.Target {
		countingBuilt.Add(1)
		return &countingTarget{}
	})
}

// Executors of one registered target share execution pools, each restored
// to its own base snapshot, so every registered target's Setup must build
// the same checkpoint each time: equal cache and persisted images and equal
// word metadata, on both platforms.
func TestCheckpointSetupDeterministic(t *testing.T) {
	for _, name := range targets.Names() {
		for _, eadr := range []bool{false, true} {
			f, err := targets.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			var pools [2]*pmem.Pool
			for i := range pools {
				snap, err := NewExecutor(f, ExecOptions{UseCheckpoints: true, EADR: eadr}).checkpoint()
				if err != nil {
					t.Fatalf("%s eadr=%v: %v", name, eadr, err)
				}
				pools[i] = pmem.NewFromSnapshot(snap)
			}
			a, b := pools[0], pools[1]
			if string(a.LoadBytes(0, a.Size())) != string(b.LoadBytes(0, b.Size())) {
				t.Errorf("%s eadr=%v: cache images differ", name, eadr)
			}
			for w := pmem.Addr(0); w < a.Size(); w += pmem.WordSize {
				if pa, pb := a.PersistedLoad64(w), b.PersistedLoad64(w); pa != pb {
					t.Errorf("%s eadr=%v: persisted word %#x: %#x vs %#x", name, eadr, w, pa, pb)
					break
				}
				if ma, mb := a.WordState(w), b.WordState(w); ma != mb {
					t.Errorf("%s eadr=%v: word %#x metadata: %+v vs %+v", name, eadr, w, ma, mb)
					break
				}
			}
		}
	}
}

// A campaign of a registered target finds the pool an earlier campaign of
// it returned, and so never runs the target's Setup. GC is off and one P
// runs both campaigns, so the pool is still on the free list; the race
// detector drops a sync.Pool Put at random, so a race build retries.
func TestSecondCampaignSkipsSetup(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	campaign := func() int64 {
		before := countingSetups.Load()
		fz, err := New(countingName, Options{MaxExecs: 3, Workers: 1, Duration: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fz.Run(); err != nil {
			t.Fatal(err)
		}
		return countingSetups.Load() - before
	}
	if n := campaign(); n > 1 {
		t.Fatalf("first campaign ran Setup %d times, want at most 1", n)
	}
	for attempt := 1; ; attempt++ {
		n := campaign()
		if n == 0 {
			break
		}
		if !raceEnabled || attempt == 8 {
			t.Fatalf("campaign %d ran Setup %d times with a pool free, want 0", attempt+1, n)
		}
	}
	// An explicit factory keeps its own list: its first campaign builds
	// its checkpoint even though the registered target's list holds a pool.
	before := countingSetups.Load()
	fz := NewWithFactory(func() targets.Target { return &countingTarget{} }, Options{MaxExecs: 1, Workers: 1})
	if _, err := fz.Run(); err != nil {
		t.Fatal(err)
	}
	if n := countingSetups.Load() - before; n != 1 {
		t.Fatalf("explicit-factory campaign ran Setup %d times, want 1", n)
	}
}

// pmwal's fixed variant reports the name "pmwal" too, so campaigns built
// from explicit factories must never draw from the registered target's list
// or from each other's: a seeded-bug pool handed to the fixed variant would
// be a different program's checkpoint.
func TestExplicitFactoriesKeepPrivatePools(t *testing.T) {
	opts := Options{MaxExecs: 2, Workers: 1, Protocol: true, Duration: 10 * time.Second}
	seeded := NewWithFactory(func() targets.Target { return pmwal.New() }, opts)
	fixed := NewWithFactory(func() targets.Target { return pmwal.NewFixed() }, opts)
	registered, err := New("pmwal", opts)
	if err != nil {
		t.Fatal(err)
	}
	if seeded.exec.pools == fixed.exec.pools ||
		seeded.exec.pools == registered.exec.pools ||
		fixed.exec.pools == registered.exec.pools {
		t.Fatal("explicit-factory campaigns share a free list")
	}
	if _, err := seeded.Run(); err != nil {
		t.Fatal(err)
	}
	if v := fixed.exec.pools.Get(); v != nil {
		t.Fatal("the fixed variant's list holds a pool it never returned")
	}
}

// Two concurrent campaigns of one registered target share one free list:
// each restores pools the other returned, and crash states captured on a
// pool keep its base snapshot whichever executor built it. Run under -race.
func TestConcurrentCampaignsSharePools(t *testing.T) {
	opts := Options{
		Threads: 2, KeySpace: 8, OpsPerSeed: 16,
		MaxExecs: 24, Workers: 2, Seed: 3,
		Duration: 20 * time.Second,
	}
	var fzs [2]*Fuzzer
	for i := range fzs {
		fz, err := New("pclht", opts)
		if err != nil {
			t.Fatal(err)
		}
		fzs[i] = fz
	}
	if fzs[0].exec.pools != fzs[1].exec.pools {
		t.Fatal("campaigns of one registered target use different lists")
	}
	var wg sync.WaitGroup
	errs := make([]error, len(fzs))
	for i, fz := range fzs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = fz.Run()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
		if st := fzs[i].Snapshot(); st.Execs == 0 {
			t.Fatalf("campaign %d ran no executions", i)
		}
	}
}

// BenchmarkCampaignSetup is what a P-CLHT campaign pays before its first
// execution ends: fuzz.New plus that execution. Its first iteration builds
// the target's checkpoint; later ones find a pool on the process-wide list,
// so B/op reads near one execution's allocations, not a pool's.
func BenchmarkCampaignSetup(b *testing.B) {
	seed := workload.NewGenerator(5, 8, 2).NewSeed(10)
	b.ReportAllocs()
	for range b.N {
		fz, err := New("pclht", Options{Threads: 2, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fz.exec.Run(seed, sched.None{}); err != nil {
			b.Fatal(err)
		}
	}
}
