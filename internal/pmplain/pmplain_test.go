package pmplain

import (
	"sync"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/pmdk"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
)

// TestMemRoundTrip exercises the plain access surface end to end.
func TestMemRoundTrip(t *testing.T) {
	m := NewMem(pmem.New(4096), 0)
	m.Store64(64, 0xdead)
	m.Persist(64, 8)
	if got := m.Load64(64); got != 0xdead {
		t.Fatalf("Load64 = %#x", got)
	}
	m.NTStore64(128, 0xbeef)
	m.Fence()
	m.StoreBytes(192, []byte("hello"))
	m.Flush(192, 8)
	m.Fence()
	if got := string(m.LoadBytes(192, 5)); got != "hello" {
		t.Fatalf("LoadBytes = %q", got)
	}
	if ok, cur := m.CAS64(128, 0xbeef, 1); !ok || cur != 0xbeef {
		t.Fatalf("CAS64 = %v, %#x", ok, cur)
	}
	m.SpinLock(256)
	if got := m.Load64(256); got != 1 {
		t.Fatalf("lock word = %d after SpinLock", got)
	}
	m.SpinUnlock(256)
	if got := m.Load64(256); got != 0 {
		t.Fatalf("lock word = %d after SpinUnlock", got)
	}
	m.Branch()
	var mu sync.Mutex
	m.LockMutex(&mu)
	if mu.TryLock() {
		t.Fatalf("mutex free after LockMutex")
	}
	m.UnlockMutex(&mu)
	if !mu.TryLock() {
		t.Fatalf("mutex held after UnlockMutex")
	}
	m.SyncVarHint("lock", 256, 8, 0)
	if h := m.Hints(); len(h) != 1 || h[0].Name != "lock" || h[0].Addr != 256 {
		t.Fatalf("hints = %+v", h)
	}
}

// TestObjPoolLayoutMatchesPMDK pins the cross-dialect pool-layout contract:
// a pool formatted by the plain dialect must open under the instrumented
// pmdk runtime (and expose the same root), because pminstr maps
// pmplain.Create/Open onto pmdk.Create/Open in generated code.
func TestObjPoolLayoutMatchesPMDK(t *testing.T) {
	pool := pmem.New(64 << 10)
	m := NewMem(pool, 0)
	p := Create(m)
	root, err := p.Alloc(m, 128)
	if err != nil {
		t.Fatal(err)
	}
	m.Store64(root, 42)
	m.Persist(root, 8)
	p.SetRoot(m, root)
	if used := p.HeapUsed(m); used != 128 {
		t.Fatalf("HeapUsed = %d, want 128", used)
	}

	// Re-open the same media with the instrumented mini-PMDK.
	env := rt.NewEnv(pool, rt.Config{HangTimeout: 100 * time.Millisecond})
	th := env.Spawn()
	ip, err := pmdk.Open(th)
	if err != nil {
		t.Fatalf("pmdk.Open on pmplain-formatted pool: %v", err)
	}
	iroot, _ := ip.Root(th)
	if iroot != root {
		t.Fatalf("pmdk root = %#x, pmplain root = %#x", iroot, root)
	}
	if v, _ := th.Load64(iroot); v != 42 {
		t.Fatalf("root word = %d, want 42", v)
	}

	// And the reverse direction: pmdk-formatted opens under pmplain.
	pool2 := pmem.New(64 << 10)
	env2 := rt.NewEnv(pool2, rt.Config{HangTimeout: 100 * time.Millisecond})
	th2 := env2.Spawn()
	p2 := pmdk.Create(th2)
	r2, err := p2.Alloc(th2, 64)
	if err != nil {
		t.Fatal(err)
	}
	p2.SetRoot(th2, r2)
	m2 := NewMem(pool2, 0)
	pp2, err := Open(m2)
	if err != nil {
		t.Fatalf("pmplain.Open on pmdk-formatted pool: %v", err)
	}
	if got := pp2.Root(m2); got != r2 {
		t.Fatalf("pmplain root = %#x, pmdk root = %#x", got, r2)
	}
}
