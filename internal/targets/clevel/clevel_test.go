package clevel

import (
	"fmt"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/pmdk"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/validate"
)

func setup(t *testing.T) (*rt.Env, *rt.Thread, *HT, []validate.Result) {
	t.Helper()
	h := New()
	var caps []struct {
		in  *core.Inconsistency
		img []byte
	}
	env := rt.NewEnv(pmem.New(h.PoolSize()), rt.Config{
		OnInconsistency: func(e *rt.Env, in *core.Inconsistency) {
			caps = append(caps, struct {
				in  *core.Inconsistency
				img []byte
			}{in, e.Pool().CrashImageWith([]pmem.Range{in.SideEffect})})
		},
	})
	th := env.Spawn()
	if err := h.Setup(th); err != nil {
		t.Fatalf("setup: %v", err)
	}
	var results []validate.Result
	factory := func() targets.Target { return New() }
	for _, c := range caps {
		results = append(results, validate.Inconsistency(factory, pmem.AdversarialState(c.img), c.in,
			validate.Options{Whitelist: core.NewWhitelist(pmdk.DefaultWhitelist()...)}))
	}
	return env, th, h, results
}

func TestRegistered(t *testing.T) {
	tgt, err := targets.New("clevel")
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	if tgt.Annotations() != 0 {
		t.Fatalf("clevel has no annotations")
	}
}

func TestPutGetDelete(t *testing.T) {
	_, th, h, _ := setup(t)
	if err := h.Put(th, "alpha", "one"); err != nil {
		t.Fatalf("put: %v", err)
	}
	v, ok := h.Get(th, "alpha")
	if !ok || v != targets.Fingerprint("one") {
		t.Fatalf("get = %d %v", v, ok)
	}
	h.Put(th, "alpha", "two")
	if v, _ := h.Get(th, "alpha"); v != targets.Fingerprint("two") {
		t.Fatalf("update failed")
	}
	if !h.Delete(th, "alpha") {
		t.Fatalf("delete failed")
	}
	if _, ok := h.Get(th, "alpha"); ok {
		t.Fatalf("deleted key found")
	}
	if h.Delete(th, "alpha") {
		t.Fatalf("double delete must fail")
	}
}

func TestManyInserts(t *testing.T) {
	_, th, h, _ := setup(t)
	const n = 80
	for i := 0; i < n; i++ {
		if err := h.Put(th, fmt.Sprintf("key%04d", i), "v"); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		if _, ok := h.Get(th, fmt.Sprintf("key%04d", i)); !ok {
			t.Fatalf("key%04d lost", i)
		}
	}
}

// TestConstructorInconsistencyIsBenign is the Figure 7 scenario end to end:
// the constructor produces intra-thread inconsistencies, and post-failure
// validation classifies every one as a false positive (validated through the
// rebuild, or whitelisted through mini-PMDK's transactional allocation).
func TestConstructorInconsistencyIsBenign(t *testing.T) {
	env, _, _, results := setup(t)
	ins := env.Detector().Inconsistencies()
	if len(ins) == 0 {
		t.Fatalf("the constructor must produce inconsistencies (Figure 7)")
	}
	if len(results) == 0 {
		t.Fatalf("no validations ran")
	}
	for i, r := range results {
		if r.Status == core.StatusBug {
			t.Fatalf("validation %d = bug; clevel has no true bugs (got %+v)", i, r)
		}
	}
}

func TestConcurrentAllocCandidatesAreWhitelisted(t *testing.T) {
	h := New()
	var caps []struct {
		in  *core.Inconsistency
		img []byte
	}
	env := rt.NewEnv(pmem.New(h.PoolSize()), rt.Config{
		OnInconsistency: func(e *rt.Env, in *core.Inconsistency) {
			caps = append(caps, struct {
				in  *core.Inconsistency
				img []byte
			}{in, e.Pool().CrashImageWith([]pmem.Range{in.SideEffect})})
		},
	})
	th := env.Spawn()
	if err := h.Setup(th); err != nil {
		t.Fatalf("setup: %v", err)
	}
	caps = caps[:0] // ignore constructor findings
	// Two threads allocating via AllocRedo: the second reads the first's
	// dirty bump pointer and makes durable records from it.
	t1, t2 := env.Spawn(), env.Spawn()
	h.Put(t1, "k1", "v1")
	h.Put(t2, "k2", "v2")
	h.Put(t1, "k3", "v3")
	wl := core.NewWhitelist(pmdk.DefaultWhitelist()...)
	factory := func() targets.Target { return New() }
	for _, c := range caps {
		if c.in.Kind != core.KindInter {
			continue
		}
		r := validate.Inconsistency(factory, pmem.AdversarialState(c.img), c.in, validate.Options{Whitelist: wl})
		if r.Status == core.StatusBug {
			t.Fatalf("allocator inconsistency must be whitelisted or validated, got bug: %+v", c.in)
		}
	}
}

func TestCrashMidConstructionRebuilds(t *testing.T) {
	// Crash while the constructor transaction is open: recovery must
	// revert and rebuild a working index.
	h := New()
	env := rt.NewEnv(pmem.New(h.PoolSize()), rt.Config{})
	th := env.Spawn()
	h.pool = pmdk.Create(th)
	cons, _ := h.pool.Alloc(th, 64)
	h.pool.SetRoot(th, cons)
	tx := h.pool.Begin(th)
	tx.AddRange(cons, 8)
	// Crash before commit.
	img := env.Pool().CrashImage()

	h2 := New()
	env2 := rt.NewEnv(pmem.FromImage(img), rt.Config{})
	th2 := env2.Spawn()
	if err := h2.Recover(th2); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := h2.Put(th2, "k", "v"); err != nil {
		t.Fatalf("put after rebuild: %v", err)
	}
	if _, ok := h2.Get(th2, "k"); !ok {
		t.Fatalf("rebuilt index must work")
	}
}

func TestCommittedDataSurvivesCrash(t *testing.T) {
	env, th, h, _ := setup(t)
	for i := 0; i < 30; i++ {
		h.Put(th, fmt.Sprintf("key%04d", i), "v")
	}
	img := env.Pool().CrashImage()
	h2 := New()
	env2 := rt.NewEnv(pmem.FromImage(img), rt.Config{})
	th2 := env2.Spawn()
	if err := h2.Recover(th2); err != nil {
		t.Fatalf("recover: %v", err)
	}
	for i := 0; i < 30; i++ {
		if _, ok := h2.Get(th2, fmt.Sprintf("key%04d", i)); !ok {
			t.Fatalf("persisted key%04d lost", i)
		}
	}
}

func TestRecoverEmptyPoolFails(t *testing.T) {
	h := New()
	env := rt.NewEnv(pmem.New(h.PoolSize()), rt.Config{})
	if err := h.Recover(env.Spawn()); err == nil {
		t.Fatalf("recover on empty pool must fail")
	}
}

// TestCampaignFindingsPinned pins what a 300-execution, one-worker campaign
// reports on clevel: the allocator's unflushed bump pointer feeds a taint
// chain into every later allocation, and its inter- and intra-thread
// findings must each come out as one whitelisted false positive, with no
// bug, whatever the cost of expanding those chains.
func TestCampaignFindingsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing campaigns")
	}
	for seed := int64(1); seed <= 3; seed++ {
		fz, err := fuzz.New("clevel", fuzz.Options{
			Threads:  4,
			MaxExecs: 300,
			Duration: time.Minute,
			Seed:     seed,
			Workers:  1,
		})
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		res, err := fz.Run()
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		c := res.Counts
		if res.Execs != 300 || c.Inter != 1 || c.InterWhitelist != 1 || c.Intra != 1 || c.IntraWhitelist != 1 || c.Sync != 0 || len(res.Bugs) != 0 {
			t.Errorf("seed %d: %d execs, counts %+v, bugs %+v; want 300 execs, one whitelisted inter and intra finding, no bug",
				seed, res.Execs, c, res.Bugs)
		}
	}
}
