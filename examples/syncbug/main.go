// The syncbug example demonstrates PM Synchronization Inconsistency
// (Definition 3) and the post-failure validation that separates the true bug
// from the benign cases, using the CCEH reproduction:
//
//   - CCEH persists its segment locks in PM and its recovery forgets to
//     release them (paper Table 2, Bug 6): after a crash while a lock was
//     held, every post-recovery writer to that segment hangs.
//   - The directory lock is also persisted but recovery re-initializes it —
//     the same detection validates as a false positive.
//
// Run it:
//
//	go run ./examples/syncbug
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/targets/cceh"
	"github.com/pmrace-go/pmrace/internal/validate"
)

func main() {
	ht := cceh.New()
	var syncs []struct {
		si  *core.SyncInconsistency
		img []byte
	}
	env := rt.NewEnv(pmem.New(ht.PoolSize()), rt.Config{
		OnSync: func(e *rt.Env, si *core.SyncInconsistency) {
			// Duplicate the pool with the lock update force-persisted:
			// the adversarial crash point for this inconsistency.
			img := e.Pool().CrashImageWith([]pmem.Range{{Off: si.Addr, Len: 8}})
			syncs = append(syncs, struct {
				si  *core.SyncInconsistency
				img []byte
			}{si, img})
		},
	})
	th := env.Spawn()
	if err := ht.Setup(th); err != nil {
		log.Fatal(err)
	}

	// A small workload updates segment locks (every Put) and the
	// directory lock (splits).
	fmt.Println("running workload: every lock update on an annotated PM")
	fmt.Println("synchronization variable is a PM Synchronization Inconsistency")
	for i := 0; i < 120; i++ {
		if err := ht.Put(th, fmt.Sprintf("key%04d", i), "v"); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("detected %d synchronization inconsistencies\n\n", len(syncs))

	// Post-failure validation: restart on each crash image and check the
	// annotated variable against its expected initial value.
	factory := func() targets.Target { return cceh.New() }
	verdicts := map[string]core.Status{}
	for _, s := range syncs {
		r := validate.Sync(factory, pmem.AdversarialState(s.img), s.si, validate.Options{})
		name := s.si.Var.Name
		if cur, ok := verdicts[name]; !ok || r.Status == core.StatusBug && cur != core.StatusBug {
			verdicts[name] = r.Status
		}
		fmt.Printf("  %-13s updated at %-14s -> %s\n", s.si.Var.Name, site.Lookup(s.si.Site), r.Status)
	}

	fmt.Println("\nverdict per variable type:")
	for name, st := range verdicts {
		switch st {
		case core.StatusBug:
			fmt.Printf("  %-13s BUG — recovery never re-initializes it (paper Bug 6)\n", name)
		default:
			fmt.Printf("  %-13s benign — recovery re-initializes it (validated FP)\n", name)
		}
	}

	// Demonstrate the consequence: recover from an image with a held
	// segment lock and watch the writer hang.
	fmt.Println("\nconsequence: post-recovery hang on the never-released segment lock")
	var bugImg []byte
	for _, s := range syncs {
		if s.si.Var.Name == "segment-lock" && s.si.NewVal != 0 {
			bugImg = s.img
			break
		}
	}
	if bugImg == nil {
		log.Fatal("no segment-lock image captured")
	}
	ht2 := cceh.New()
	var hung *rt.HangReport
	env2 := rt.NewEnv(pmem.FromImage(bugImg), rt.Config{HangTimeout: 50 * time.Millisecond})
	th2 := env2.Spawn()
	if err := ht2.Recover(th2); err != nil {
		log.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				herr, ok := r.(rt.HangError)
				if !ok {
					panic(r)
				}
				hung = &herr.Report
			}
		}()
		for i := 0; i < 200; i++ {
			ht2.Put(th2, fmt.Sprintf("key%04d", i), "after-crash")
		}
	}()
	if hung != nil {
		fmt.Printf("  a writer hung acquiring the restored lock at %s — the PM Execution Context Bug manifests\n", hung.Site)
	} else {
		fmt.Println("  (the workload avoided the locked segment this run)")
	}
}
