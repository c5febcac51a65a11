package fastfair

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/taint"
	"github.com/pmrace-go/pmrace/internal/targets"
)

func setup(t *testing.T) (*rt.Env, *rt.Thread, *Tree) {
	t.Helper()
	tr := New()
	env := rt.NewEnv(pmem.New(tr.PoolSize()), rt.Config{HangTimeout: 50 * time.Millisecond})
	th := env.Spawn()
	if err := tr.Setup(th); err != nil {
		t.Fatalf("setup: %v", err)
	}
	return env, th, tr
}

func TestRegistered(t *testing.T) {
	tgt, err := targets.New("fastfair")
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	if tgt.Annotations() != 0 {
		t.Fatalf("fastfair has no annotations")
	}
}

func TestInsertGetDelete(t *testing.T) {
	_, th, tr := setup(t)
	if err := tr.Insert(th, "alpha", "one"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	v, ok := tr.Get(th, "alpha")
	if !ok || v != targets.Fingerprint("one") {
		t.Fatalf("get = %d %v", v, ok)
	}
	tr.Insert(th, "alpha", "two")
	if v, _ := tr.Get(th, "alpha"); v != targets.Fingerprint("two") {
		t.Fatalf("update failed")
	}
	if !tr.Delete(th, "alpha") {
		t.Fatalf("delete failed")
	}
	if _, ok := tr.Get(th, "alpha"); ok {
		t.Fatalf("deleted key found")
	}
}

func TestSplitsPreserveAllKeys(t *testing.T) {
	_, th, tr := setup(t)
	const n = 200
	for i := 0; i < n; i++ {
		if err := tr.Insert(th, fmt.Sprintf("key%04d", i), fmt.Sprintf("v%04d", i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(th, fmt.Sprintf("key%04d", i))
		if !ok || v != targets.Fingerprint(fmt.Sprintf("v%04d", i)) {
			t.Fatalf("key%04d lost after splits (ok=%v)", i, ok)
		}
	}
	if tr.Count(th) != n {
		t.Fatalf("count = %d, want %d", tr.Count(th), n)
	}
}

func TestLeafChainStaysSorted(t *testing.T) {
	_, th, tr := setup(t)
	for i := 0; i < 150; i++ {
		tr.Insert(th, fmt.Sprintf("key%04d", i*7919%1000), "v")
	}
	// Walk the chain and assert global ordering of entries.
	var all []uint64
	cur, _ := th.Load64(tr.root + fldFirstLeaf)
	for cur != 0 {
		nk, _ := th.Load64(cur + ndNKeys)
		for i := uint64(0); i < nk && i < entriesPerNode; i++ {
			k, _ := th.Load64(cur + ndEntries + pmem.Addr(i*16))
			if k != 0 {
				all = append(all, k)
			}
		}
		cur, _ = th.Load64(cur + ndSibling)
	}
	if len(all) == 0 {
		t.Fatalf("no entries found")
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }) {
		t.Fatalf("leaf chain entries not globally sorted")
	}
}

// TestBug8SiblingWindow: a reader traversing the unflushed sibling pointer
// and inserting into the new node is an inter-thread inconsistency.
func TestBug8SiblingWindow(t *testing.T) {
	env, th, tr := setup(t)
	// Fill one leaf to the brink.
	for i := 0; i < entriesPerNode; i++ {
		tr.Insert(th, fmt.Sprintf("key%04d", i*10), "v")
	}
	// Split directly (the insert path would do this on overflow).
	leaf, _ := th.Load64(tr.root + fldFirstLeaf)
	th.SpinLock(leaf + ndLock)
	if err := tr.split(th, leaf); err != nil {
		t.Fatalf("split: %v", err)
	}
	// Simulate the reader arriving inside the window: re-dirty the
	// sibling pointer, then traverse and insert from another thread.
	sib, _ := th.Load64(leaf + ndSibling)
	th.Store64(leaf+ndSibling, sib, taint.None, taint.None) // dirty again
	th.SpinUnlock(leaf + ndLock)

	// Pick a key that hashes beyond the new node's first key so the
	// reader must traverse the (dirty) sibling pointer.
	first, _ := th.Load64(sib + ndEntries)
	var hotKey string
	for i := 0; ; i++ {
		k := fmt.Sprintf("probe%05d", i)
		if targets.Fingerprint(k) > first {
			hotKey = k
			break
		}
	}
	reader := env.Spawn()
	if err := tr.Insert(reader, hotKey, "vv"); err != nil {
		t.Fatalf("reader insert: %v", err)
	}
	foundInter := false
	for _, in := range env.Detector().Inconsistencies() {
		if in.Kind == core.KindInter {
			foundInter = true
		}
	}
	if !foundInter {
		t.Fatalf("traversal through dirty sibling pointer must confirm an inter inconsistency (Bug 8)")
	}
}

func TestLazyRepairFixesTransientCount(t *testing.T) {
	_, th, tr := setup(t)
	tr.Insert(th, "a-key", "v")
	leaf, _ := th.Load64(tr.root + fldFirstLeaf)
	// Forge a transient FAST state: count claims 3 entries, only 1 landed.
	th.Store64(leaf+ndNKeys, 3, taint.None, taint.None)
	if _, ok := tr.Get(th, "a-key"); !ok {
		t.Fatalf("get must still find the key")
	}
	nk, _ := th.Load64(leaf + ndNKeys)
	if nk != 1 {
		t.Fatalf("lazy repair must fix the count, got %d", nk)
	}
}

func TestRecoveryRewritesMetadata(t *testing.T) {
	env, th, tr := setup(t)
	for i := 0; i < 30; i++ {
		tr.Insert(th, fmt.Sprintf("key%04d", i), "v")
	}
	img := env.Pool().CrashImage()
	tr2 := New()
	env2 := rt.NewEnv(pmem.FromImage(img), rt.Config{})
	th2 := env2.Spawn()
	if err := tr2.Recover(th2); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if tr2.Count(th2) != 30 {
		t.Fatalf("recovered count = %d, want 30", tr2.Count(th2))
	}
	// The metadata rewrite is what validates count-update side effects.
	if !env2.Pool().Overwritten(pmem.Range{Off: tr2.root + fldCount, Len: 8}) {
		t.Fatalf("recovery must rewrite the persistent counter")
	}
}

func TestPersistedKeysSurviveCrash(t *testing.T) {
	env, th, tr := setup(t)
	for i := 0; i < 60; i++ {
		tr.Insert(th, fmt.Sprintf("key%04d", i), "v")
	}
	img := env.Pool().CrashImage()
	tr2 := New()
	env2 := rt.NewEnv(pmem.FromImage(img), rt.Config{})
	th2 := env2.Spawn()
	if err := tr2.Recover(th2); err != nil {
		t.Fatalf("recover: %v", err)
	}
	for i := 0; i < 60; i++ {
		if _, ok := tr2.Get(th2, fmt.Sprintf("key%04d", i)); !ok {
			t.Fatalf("persisted key%04d lost", i)
		}
	}
}

func TestWhitelistEntry(t *testing.T) {
	tr := New()
	wl := tr.Whitelist()
	if len(wl) == 0 || wl[0] != "fastfair.(*Tree).lazyRepair" {
		t.Fatalf("whitelist = %v", wl)
	}
}

func TestRecoverEmptyPoolFails(t *testing.T) {
	tr := New()
	env := rt.NewEnv(pmem.New(tr.PoolSize()), rt.Config{})
	if err := tr.Recover(env.Spawn()); err == nil {
		t.Fatalf("recover on empty pool must fail")
	}
}
