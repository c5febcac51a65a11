// The pclht-dataloss example replays the paper's motivating bug (P-CLHT,
// §2.3.2, Figures 2 and 3) as a deterministic two-thread walkthrough instead
// of a fuzzing campaign, so the whole failure can be read end to end:
//
//  1. thread-1 fills the table until a resize swaps the global table pointer
//     (ht_off) — the swap is stored but not yet flushed;
//  2. thread-2 reads the unflushed pointer and inserts a key-value item into
//     the new table with non-temporal (immediately durable) stores;
//  3. the machine crashes before thread-1's flush: the table pointer reverts
//     to the old table, and thread-2's item — although it reached PM — is
//     unreachable. Data loss.
//
// The example drives the real P-CLHT implementation and the real detector:
// the inconsistency PMRace reports in step 2 is precisely the one whose
// crash image demonstrates the loss in step 3.
//
// Run it:
//
//	go run ./examples/pclht-dataloss
package main

import (
	"fmt"
	"log"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/targets/pclht"
)

func main() {
	ht := pclht.New()
	var detected []*core.Inconsistency
	var crashImg []byte
	env := rt.NewEnv(pmem.New(ht.PoolSize()), rt.Config{
		OnInconsistency: func(e *rt.Env, in *core.Inconsistency) {
			detected = append(detected, in)
			// Duplicate the pool at the adversarial crash point: the
			// durable side effect persisted, the dependency not.
			if crashImg == nil && in.Kind == core.KindInter {
				crashImg = e.Pool().CrashImageWith([]pmem.Range{in.SideEffect})
			}
		},
	})

	setup := env.Spawn()
	if err := ht.Setup(setup); err != nil {
		log.Fatal(err)
	}
	setup.Exit()

	// Phase 1: fill the table to the brink of a resize.
	fmt.Println("phase 1: thread-1 loads the table towards a resize")
	t1 := env.Spawn()
	var keys []string
	for i := 0; i < 23; i++ {
		k := fmt.Sprintf("key%03d", i)
		keys = append(keys, k)
		if err := ht.Put(t1, k, "stable"); err != nil {
			log.Fatal(err)
		}
	}

	// Phase 2: force the buggy interleaving with the PM-aware machinery:
	// thread-2 waits at the table-pointer load; thread-1's resize signals
	// after the unflushed pointer swap and stalls before the flush.
	fmt.Println("phase 2: resize vs. concurrent insert (the Figure 2 interleaving)")
	stats := statsRun(ht)
	entry := entryForHtOff(stats)
	if entry == nil {
		log.Fatal("no priority-queue entry for the table pointer")
	}
	// Re-run on a fresh environment under the PM-aware strategy.
	ht2 := pclht.New()
	detected = detected[:0]
	crashImg = nil
	env2 := rt.NewEnv(pmem.New(ht2.PoolSize()), rt.Config{
		OnInconsistency: func(e *rt.Env, in *core.Inconsistency) {
			detected = append(detected, in)
			if crashImg == nil && in.Kind == core.KindInter {
				crashImg = e.Pool().CrashImageWith([]pmem.Range{in.SideEffect})
			}
		},
		Strategy: sched.NewPMAware(sched.DefaultConfig(), entry, 0),
	})
	boot := env2.Spawn()
	if err := ht2.Setup(boot); err != nil {
		log.Fatal(err)
	}
	boot.Exit()
	env2.BeginExec(2)
	done := make(chan struct{})
	go func() { // thread-1: fills and eventually resizes
		th := env2.Spawn()
		defer th.Exit()
		for i := 0; i < 30; i++ {
			ht2.Put(th, fmt.Sprintf("key%03d", i), "stable")
		}
		close(done)
	}()
	go func() { // thread-2: inserts the item that will be lost
		th := env2.Spawn()
		defer th.Exit()
		for i := 0; i < 40; i++ {
			ht2.Put(th, "victim", "precious")
		}
	}()
	<-done
	env2.EndExec()

	inter := 0
	for _, in := range detected {
		if in.Kind == core.KindInter {
			inter++
		}
	}
	fmt.Printf("  detector: %d inconsistencies, %d inter-thread\n", len(detected), inter)
	for _, in := range detected {
		if in.Kind == core.KindInter {
			fmt.Printf("  PMRace report: insert through unflushed table pointer\n")
			fmt.Printf("    pointer stored at %s, read at %s, item written at %s (%s flow)\n",
				site.Lookup(site.ID(in.Event.WriteSite)), site.Lookup(site.ID(in.Event.ReadSite)),
				site.Lookup(in.StoreSite), in.Flow)
			break
		}
	}
	if crashImg == nil {
		fmt.Println("  (interleaving not hit this run — try again; the fuzzer retries automatically)")
		return
	}

	// Phase 3: crash at the detected point and recover.
	fmt.Println("phase 3: crash and recovery")
	ht3 := pclht.New()
	env3 := rt.NewEnv(pmem.FromImage(crashImg), rt.Config{})
	th3 := env3.Spawn()
	if err := ht3.Recover(th3); err != nil {
		log.Fatal(err)
	}
	if _, ok := ht3.Get(th3, "victim"); ok {
		fmt.Println("  victim item survived (crash landed after the flush)")
	} else {
		fmt.Println("  DATA LOSS: the durably-written 'victim' item is unreachable —")
		fmt.Println("  the crash reverted the unflushed table pointer (paper Figure 3)")
	}
}

// statsRun executes a filler workload once to collect the access statistics
// the priority queue is built from.
func statsRun(ht *pclht.HT) map[pmem.Addr]*sched.AddrStats {
	env := rt.NewEnv(pmem.New(ht.PoolSize()), rt.Config{CollectStats: true})
	th := env.Spawn()
	if err := ht.Setup(th); err != nil {
		log.Fatal(err)
	}
	th.Exit()
	a, b := env.Spawn(), env.Spawn()
	for i := 0; i < 30; i++ {
		ht.Put(a, fmt.Sprintf("key%03d", i), "v")
		ht.Put(b, "victim", "precious")
	}
	a.Exit()
	b.Exit()
	return env.TakeStats()
}

// entryForHtOff picks the hottest shared-address entry — the global table
// pointer, which every operation loads and the resize stores.
func entryForHtOff(stats map[pmem.Addr]*sched.AddrStats) *sched.Entry {
	q := sched.BuildQueue(stats)
	return q.Pop()
}
