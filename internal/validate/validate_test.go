package validate

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/taint"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// fakeTarget is a controllable target whose Recover behaviour drives each
// validation scenario.
type fakeTarget struct {
	recover func(t *rt.Thread) error
}

func (f *fakeTarget) Name() string                       { return "fake" }
func (f *fakeTarget) PoolSize() uint64                   { return 4096 }
func (f *fakeTarget) Setup(*rt.Thread) error             { return nil }
func (f *fakeTarget) Exec(*rt.Thread, workload.Op) error { return nil }
func (f *fakeTarget) Annotations() int                   { return 0 }
func (f *fakeTarget) Recover(t *rt.Thread) error         { return f.recover(t) }

func factoryOf(rec func(t *rt.Thread) error) targets.Factory {
	return func() targets.Target { return &fakeTarget{recover: rec} }
}

func sideEffectImage(t *testing.T) ([]byte, *core.Inconsistency) {
	t.Helper()
	env := rt.NewEnv(pmem.New(4096), rt.Config{})
	t1, t2 := env.Spawn(), env.Spawn()
	t1.Store64(64, 5, taint.None, taint.None)
	v, lab := t2.Load64(64)
	t2.Store64(512, v, lab, taint.None)
	ins := env.Detector().Inconsistencies()
	if len(ins) != 1 {
		t.Fatalf("setup produced %d inconsistencies", len(ins))
	}
	img := env.Pool().CrashImageWith([]pmem.Range{ins[0].SideEffect})
	return img, ins[0]
}

func TestInconsistencyBugWhenRecoveryIgnoresIt(t *testing.T) {
	img, in := sideEffectImage(t)
	res := Inconsistency(factoryOf(func(*rt.Thread) error { return nil }), pmem.AdversarialState(img), in, Options{})
	if res.Status != core.StatusBug {
		t.Fatalf("status = %v, want bug", res.Status)
	}
	if len(res.States) != 1 || res.States[0].State != pmem.StateSideEffect {
		t.Fatalf("states = %+v, want one side-effect-persisted row", res.States)
	}
	if res.States[0].Status != core.StatusBug {
		t.Fatalf("state verdict = %v, want bug", res.States[0].Status)
	}
}

func TestInconsistencyFPWhenRecoveryOverwrites(t *testing.T) {
	img, in := sideEffectImage(t)
	f := factoryOf(func(th *rt.Thread) error {
		th.Store64(512, 0, taint.None, taint.None) // overwrite the side effect
		th.Persist(512, 8)
		return nil
	})
	res := Inconsistency(f, pmem.AdversarialState(img), in, Options{})
	if res.Status != core.StatusValidatedFP {
		t.Fatalf("status = %v, want validated FP", res.Status)
	}
}

func TestInconsistencyWhitelisted(t *testing.T) {
	img, in := sideEffectImage(t)
	in.Stack = []string{"pmdk.go:10 pmdk.(*Tx).Alloc"}
	res := Inconsistency(factoryOf(func(*rt.Thread) error { return nil }), pmem.AdversarialState(img), in,
		Options{Whitelist: core.NewWhitelist("pmdk.(*Tx).Alloc")})
	if res.Status != core.StatusWhitelistedFP {
		t.Fatalf("status = %v, want whitelisted FP", res.Status)
	}
	if len(res.States) != 0 {
		t.Fatalf("whitelisted finding must skip recovery, got states %+v", res.States)
	}
}

func TestInconsistencyRecoveryErrorIsBug(t *testing.T) {
	img, in := sideEffectImage(t)
	res := Inconsistency(factoryOf(func(*rt.Thread) error { return errors.New("broken") }), pmem.AdversarialState(img), in, Options{})
	if res.Status != core.StatusBug || res.RecoveryErr == nil {
		t.Fatalf("res = %+v, want bug with error", res)
	}
}

func TestInconsistencyRecoveryHangIsBug(t *testing.T) {
	img, in := sideEffectImage(t)
	// Recovery spins on a lock that the crash image holds.
	imgLocked := append([]byte(nil), img...)
	imgLocked[128] = 1 // lock word at offset 128 = held
	f := factoryOf(func(th *rt.Thread) error {
		th.SpinLock(128)
		return nil
	})
	res := Inconsistency(f, pmem.AdversarialState(imgLocked), in, Options{})
	if res.Status != core.StatusBug || !res.RecoveryHung {
		t.Fatalf("res = %+v, want hung bug", res)
	}
	if res.States[0].WallTimeout {
		t.Fatalf("spin-lock hang must be caught by the spin detector, not the watchdog: %+v", res.States[0])
	}
}

func syncImage(t *testing.T) ([]byte, *core.SyncInconsistency) {
	t.Helper()
	env := rt.NewEnv(pmem.New(4096), rt.Config{})
	env.AnnotateSyncVar(core.SyncVar{Name: "lock", Addr: 128, Size: 8, InitVal: 0})
	th := env.Spawn()
	th.SpinLock(128)
	sis := env.Detector().SyncInconsistencies()
	if len(sis) != 1 {
		t.Fatalf("setup produced %d sync inconsistencies", len(sis))
	}
	img := env.Pool().CrashImageWith([]pmem.Range{{Off: 128, Len: 8}})
	return img, sis[0]
}

func TestSyncBugWhenLockNotReinitialized(t *testing.T) {
	img, si := syncImage(t)
	res := Sync(factoryOf(func(*rt.Thread) error { return nil }), pmem.AdversarialState(img), si, Options{})
	if res.Status != core.StatusBug {
		t.Fatalf("status = %v, want bug", res.Status)
	}
}

func TestSyncFPWhenRecoveryReinitializes(t *testing.T) {
	img, si := syncImage(t)
	f := factoryOf(func(th *rt.Thread) error {
		th.Store64(128, 0, taint.None, taint.None)
		th.Persist(128, 8)
		return nil
	})
	res := Sync(f, pmem.AdversarialState(img), si, Options{})
	if res.Status != core.StatusValidatedFP {
		t.Fatalf("status = %v, want validated FP", res.Status)
	}
}

func TestSyncWhitelisted(t *testing.T) {
	img, si := syncImage(t)
	si.Stack = []string{"checksum.go:5 checksummedRegion"}
	res := Sync(factoryOf(func(*rt.Thread) error { return nil }), pmem.AdversarialState(img), si,
		Options{Whitelist: core.NewWhitelist("checksummedRegion")})
	if res.Status != core.StatusWhitelistedFP {
		t.Fatalf("status = %v, want whitelisted FP", res.Status)
	}
}

func TestSyncOutOfRangeAddrIsBug(t *testing.T) {
	img, si := syncImage(t)
	si.Addr = 1 << 40
	res := Sync(factoryOf(func(*rt.Thread) error { return nil }), pmem.AdversarialState(img), si, Options{})
	if res.Status != core.StatusBug {
		t.Fatalf("status = %v, want bug", res.Status)
	}
}

func TestExternalInconsistencyIsAlwaysBug(t *testing.T) {
	img, in := sideEffectImage(t)
	in.External = true
	// Even a recovery that overwrites everything cannot un-send data.
	f := factoryOf(func(th *rt.Thread) error {
		th.Store64(512, 0, taint.None, taint.None)
		th.Persist(512, 8)
		return nil
	})
	res := Inconsistency(f, pmem.AdversarialState(img), in, Options{})
	if res.Status != core.StatusBug {
		t.Fatalf("external effect must be a bug, got %v", res.Status)
	}
	// Unless whitelisted.
	in.Stack = []string{"proto.go:9 checksummedReply"}
	res = Inconsistency(f, pmem.AdversarialState(img), in, Options{Whitelist: core.NewWhitelist("checksummedReply")})
	if res.Status != core.StatusWhitelistedFP {
		t.Fatalf("whitelist must still apply, got %v", res.Status)
	}
}

// --- multi-crash-state aggregation ---

// TestMultiStateAnyFailureIsBug builds a two-state list where recovery passes
// on the adversarial image but hangs on a second state with a held lock: the
// finding-level verdict must be bug, with both rows in the table.
func TestMultiStateAnyFailureIsBug(t *testing.T) {
	img, in := sideEffectImage(t)
	locked := append([]byte(nil), img...)
	locked[128] = 1
	states := []pmem.CrashState{
		pmem.ImageState(pmem.StateSideEffect, true, img),
		pmem.ImageState("pending-line@0x80", true, locked),
	}
	f := factoryOf(func(th *rt.Thread) error {
		th.SpinLock(128) // hangs only in the locked state
		th.SpinUnlock(128)
		th.Store64(512, 0, taint.None, taint.None) // fix the side effect
		th.Persist(512, 8)
		return nil
	})
	res := Inconsistency(f, states, in, Options{})
	if res.Status != core.StatusBug || !res.RecoveryHung {
		t.Fatalf("res = %+v, want hung bug", res)
	}
	if len(res.States) != 2 {
		t.Fatalf("got %d state rows, want 2", len(res.States))
	}
	if res.States[0].Status != core.StatusValidatedFP {
		t.Fatalf("adversarial state = %v, want validated FP", res.States[0].Status)
	}
	if res.States[1].Status != core.StatusBug || !res.States[1].RecoveryHung {
		t.Fatalf("locked state = %+v, want hung bug", res.States[1])
	}
}

// TestBaselineStateSkipsOverwriteOracle: in the persisted-only baseline the
// side effect never reached PM, so a clean recovery that overwrites nothing
// must still pass that state.
func TestBaselineStateSkipsOverwriteOracle(t *testing.T) {
	img, in := sideEffectImage(t)
	baseline := make([]byte, len(img)) // side effect absent
	states := []pmem.CrashState{pmem.ImageState(pmem.StateBaseline, false, baseline)}
	res := Inconsistency(factoryOf(func(*rt.Thread) error { return nil }), states, in, Options{})
	if res.Status != core.StatusValidatedFP {
		t.Fatalf("baseline-only validation = %v, want validated FP", res.Status)
	}
}

// --- watchdog hang paths ---

// waitGoroutines polls until the goroutine count drops back to at most base,
// failing the test if it never does: the watchdog must not leak goroutines.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestUninstrumentedSpinRecoveryIsWallTimeoutBug is the acceptance scenario:
// a recovery spinning in a plain Go loop — invisible to the spin-lock hang
// detector — must be classified as a hung bug within WallTimeout plus
// scheduling slack, not wedge the caller forever (it deadlocks without the
// watchdog). The loop checks a stop flag so the abandoned goroutine can exit
// and the leak assertion can run.
func TestUninstrumentedSpinRecoveryIsWallTimeoutBug(t *testing.T) {
	img, in := sideEffectImage(t)
	var stop atomic.Bool
	base := runtime.NumGoroutine()
	f := factoryOf(func(*rt.Thread) error {
		for !stop.Load() {
		}
		return nil
	})
	start := time.Now()
	res := Inconsistency(f, pmem.AdversarialState(img), in, Options{WallTimeout: 100 * time.Millisecond})
	elapsed := time.Since(start)
	if res.Status != core.StatusBug || !res.RecoveryHung {
		t.Fatalf("res = %+v, want hung bug", res)
	}
	if !res.States[0].WallTimeout {
		t.Fatalf("state = %+v, want wall-timeout hang", res.States[0])
	}
	if res.RecoveryErr == nil || !strings.Contains(res.RecoveryErr.Error(), "wall timeout") {
		t.Fatalf("err = %v, want wall-timeout error", res.RecoveryErr)
	}
	if elapsed > 1100*time.Millisecond {
		t.Fatalf("verdict took %s, want within WallTimeout+1s", elapsed)
	}
	stop.Store(true)
	waitGoroutines(t, base)
}

// TestRecoveryPanicIsBug: a panicking recovery is a failed recovery, reported
// with the panic message, without crashing the campaign.
func TestRecoveryPanicIsBug(t *testing.T) {
	img, in := sideEffectImage(t)
	f := factoryOf(func(*rt.Thread) error { panic("recovery exploded") })
	res := Inconsistency(f, pmem.AdversarialState(img), in, Options{})
	if res.Status != core.StatusBug || res.RecoveryHung {
		t.Fatalf("res = %+v, want non-hang bug", res)
	}
	if res.RecoveryErr == nil || !strings.Contains(res.RecoveryErr.Error(), "recovery exploded") {
		t.Fatalf("err = %v, want panic message", res.RecoveryErr)
	}
}

// TestSleepExceedingWallTimeoutIsBug: recovery sleeping past WallTimeout (a
// wait the spin detector cannot see) is a watchdog hang.
func TestSleepExceedingWallTimeoutIsBug(t *testing.T) {
	img, in := sideEffectImage(t)
	base := runtime.NumGoroutine()
	f := factoryOf(func(*rt.Thread) error {
		time.Sleep(300 * time.Millisecond)
		return nil
	})
	res := Inconsistency(f, pmem.AdversarialState(img), in,
		Options{WallTimeout: 50 * time.Millisecond})
	if res.Status != core.StatusBug || !res.RecoveryHung || !res.States[0].WallTimeout {
		t.Fatalf("res = %+v, want wall-timeout bug", res)
	}
	waitGoroutines(t, base)
}

// TestInstrumentedLoopCancelledAfterWallTimeout: a recovery looping through
// instrumented stores is abandoned at the deadline and then actually stopped
// by the environment's cancellation hook — the goroutine exits via
// CancelError instead of mutating its pool forever.
func TestInstrumentedLoopCancelledAfterWallTimeout(t *testing.T) {
	img, in := sideEffectImage(t)
	base := runtime.NumGoroutine()
	f := factoryOf(func(th *rt.Thread) error {
		for {
			th.Store64(256, 1, taint.None, taint.None)
		}
	})
	res := Inconsistency(f, pmem.AdversarialState(img), in,
		Options{WallTimeout: 100 * time.Millisecond})
	if res.Status != core.StatusBug || !res.RecoveryHung || !res.States[0].WallTimeout {
		t.Fatalf("res = %+v, want wall-timeout bug", res)
	}
	waitGoroutines(t, base)
}

// TestDefaultHangTimeoutMatchesRuntime: validation runs recovery with the
// runtime's spin-lock bound, rt.DefaultHangTimeout, and no shorter one.
func TestDefaultHangTimeoutMatchesRuntime(t *testing.T) {
	img, si := syncImage(t)
	// A recovery that waits half the runtime bound before taking a free
	// lock must complete.
	f := factoryOf(func(th *rt.Thread) error {
		time.Sleep(rt.DefaultHangTimeout / 2)
		th.SpinLock(192) // free line: acquires immediately
		th.SpinUnlock(192)
		th.Store64(128, 0, taint.None, taint.None)
		th.Persist(128, 8)
		return nil
	})
	res := Sync(f, pmem.AdversarialState(img), si, Options{})
	if res.RecoveryHung {
		t.Fatalf("res = %+v: default hang timeout shorter than rt.DefaultHangTimeout", res)
	}
	if res.Status != core.StatusValidatedFP {
		t.Fatalf("status = %v, want validated FP", res.Status)
	}
}

// TestRecoveryPoolNotReusedAfterWallTimeout: a pool whose recovery the
// watchdog abandoned may still be written by that goroutine until its next
// hook call, so RunRecovery must never hand it to a later run. The runs that
// follow release their pools normally; each inspection must see exactly its
// own image on a pool that is not the abandoned one.
func TestRecoveryPoolNotReusedAfterWallTimeout(t *testing.T) {
	const size = 4096
	base := runtime.NumGoroutine()
	var abandoned atomic.Pointer[pmem.Pool]
	spin := factoryOf(func(th *rt.Thread) error {
		abandoned.Store(th.Env().Pool())
		for i := uint64(0); ; i++ {
			th.Store64(pmem.Addr(i%(size/8))*8, ^i, taint.None, taint.None)
		}
	})
	hung, wallTimedOut, err := RunRecovery(spin, pmem.ImageState("zero", false, make([]byte, size)), 50*time.Millisecond, func(*rt.Env) {
		t.Errorf("inspection ran after a wall timeout")
	})
	if !hung || !wallTimedOut || err == nil {
		t.Fatalf("hung=%v wallTimedOut=%v err=%v, want a wall-timeout hang", hung, wallTimedOut, err)
	}
	bad := abandoned.Load()
	if bad == nil {
		t.Fatalf("spinning recovery never started")
	}

	idle := factoryOf(func(*rt.Thread) error { return nil })
	for run := 0; run < 16; run++ {
		img := make([]byte, size)
		for i := range img {
			img[i] = byte(run*31 + i)
		}
		inspected := false
		_, _, err := RunRecovery(idle, pmem.ImageState("image", true, img), 0, func(env *rt.Env) {
			inspected = true
			p := env.Pool()
			if p == bad {
				t.Fatalf("run %d: got the abandoned pool back", run)
			}
			if got := p.LoadBytes(0, size); !bytes.Equal(got, img) {
				t.Fatalf("run %d: pool does not hold its own image", run)
			}
			if !p.PersistedEquals(0, size) {
				t.Fatalf("run %d: persisted image differs from the cache", run)
			}
			for a := pmem.Addr(0); a < size; a += 8 {
				if p.Overwritten(pmem.Range{Off: a, Len: 8}) {
					t.Fatalf("run %d: word %#x overwritten by a recovery that stored nothing", run, a)
				}
			}
		})
		if err != nil || !inspected {
			t.Fatalf("run %d: err=%v inspected=%v", run, err, inspected)
		}
	}
	waitGoroutines(t, base)
}

// TestRunRecoverySeesEachStateImage interleaves recovery runs on states of
// two checkpoint bases, the zero image and full images, so released pools
// are reset on the same base, switched to another base and reset after a
// full image. Every run must see exactly its state's image, clean and not
// overwritten, whatever the pool's previous run wrote.
func TestRunRecoverySeesEachStateImage(t *testing.T) {
	const size = 8192
	rng := rand.New(rand.NewSource(1))
	var snaps []*pmem.Snapshot
	for b := 0; b < 2; b++ {
		p := pmem.New(size)
		for i := 0; i < 40; i++ {
			p.Store64(0, 1, pmem.Addr(rng.Intn(size/8))*8, rng.Uint64())
		}
		p.PersistNow(0, 0, size/2)
		snaps = append(snaps, p.Snapshot())
	}
	scribble := factoryOf(func(th *rt.Thread) error {
		for i := 0; i < 8; i++ {
			th.Store64(pmem.Addr(rng.Intn(size/8))*8, rng.Uint64(), taint.None, taint.None)
		}
		return nil
	})
	for run := 0; run < 60; run++ {
		var st pmem.CrashState
		switch k := rng.Intn(4); k {
		case 0, 1:
			p := pmem.NewFromSnapshot(snaps[k])
			for i := 0; i < 10; i++ {
				p.Store64(1, 2, pmem.Addr(rng.Intn(size/8))*8, rng.Uint64())
			}
			p.PersistNow(1, pmem.Addr(rng.Intn(size/64))*64, 64)
			side := pmem.Addr(rng.Intn(size/8)) * 8
			states := p.CrashStates([]pmem.Range{{Off: side, Len: 8}}, 2)
			st = states[rng.Intn(len(states))]
		case 2:
			p := pmem.New(size)
			p.Store64(1, 2, pmem.Addr(rng.Intn(size/8))*8, rng.Uint64())
			st = p.CrashStates(nil, 1)[0]
		default:
			img := make([]byte, size)
			rng.Read(img)
			st = pmem.ImageState("image", true, img)
		}
		want := st.Image()
		_, _, err := RunRecovery(scribble, st, 0, nil)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		_, _, err = RunRecovery(factoryOf(func(*rt.Thread) error { return nil }), st, 0, func(env *rt.Env) {
			p := env.Pool()
			if got := p.LoadBytes(0, size); !bytes.Equal(got, want) {
				t.Fatalf("run %d: pool does not hold the state's image", run)
			}
			if !p.PersistedEquals(0, size) {
				t.Fatalf("run %d: persisted image differs from the cache", run)
			}
			for a := pmem.Addr(0); a < size; a += 8 {
				if p.Overwritten(pmem.Range{Off: a, Len: 8}) || p.WordState(a).Dirty {
					t.Fatalf("run %d: word %#x not fresh", run, a)
				}
			}
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

// BenchmarkRunRecovery is one validation replay of a crash state of a
// pmwal-sized pool restored from its checkpoint, with a recovery that does
// nothing: the sandbox's own cost per crash state.
func BenchmarkRunRecovery(b *testing.B) {
	const size = 256 << 10
	p := pmem.New(size)
	for a := pmem.Addr(0); a < size; a += 512 {
		p.Store64(0, 1, a, uint64(a)+1)
	}
	p.PersistNow(0, 0, size)
	p = pmem.NewFromSnapshot(p.Snapshot())
	for a := pmem.Addr(0); a < 16*pmem.LineSize; a += pmem.LineSize {
		p.Store64(1, 2, a, 7)
	}
	st := p.CrashStates([]pmem.Range{{Off: 0, Len: 8}}, 1)[0]
	f := factoryOf(func(*rt.Thread) error { return nil })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunRecovery(f, st, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
