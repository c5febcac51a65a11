package site

import (
	"strings"
	"sync"
	"testing"
)

// hookLike stands in for a runtime hook: its caller is the "instrumented
// instruction".
func hookLike() ID { return Here(0) }

func TestHereIdentifiesCaller(t *testing.T) {
	id := hookLike()
	info := Lookup(id)
	if info.File != "site_test.go" {
		t.Fatalf("file = %q, want site_test.go", info.File)
	}
	if info.Line == 0 {
		t.Fatalf("line must be nonzero")
	}
	if !strings.Contains(info.Function, "TestHereIdentifiesCaller") {
		t.Fatalf("function = %q, want the test function", info.Function)
	}
}

func TestSameCallSiteSameID(t *testing.T) {
	var a, b ID
	for i := 0; i < 2; i++ {
		id := hookLike()
		if i == 0 {
			a = id
		} else {
			b = id
		}
	}
	if a != b {
		t.Fatalf("same call site produced different IDs %d and %d", a, b)
	}
}

func TestDifferentCallSitesDifferentIDs(t *testing.T) {
	a := hookLike()
	b := hookLike()
	if a == b {
		t.Fatalf("distinct call sites must have distinct IDs")
	}
}

func TestNamedStable(t *testing.T) {
	a := Named("synthetic-store")
	b := Named("synthetic-store")
	c := Named("other")
	if a != b {
		t.Fatalf("Named must be stable: %d != %d", a, b)
	}
	if a == c {
		t.Fatalf("distinct names must get distinct IDs")
	}
	if Lookup(a).File != "synthetic-store" {
		t.Fatalf("Lookup(Named) = %+v", Lookup(a))
	}
}

func TestLookupUnknown(t *testing.T) {
	if got := Lookup(Unknown); got != (Info{}) {
		t.Fatalf("Lookup(Unknown) = %+v, want zero", got)
	}
	if got := Lookup(1 << 30); got != (Info{}) {
		t.Fatalf("out-of-range lookup = %+v, want zero", got)
	}
}

func TestInfoString(t *testing.T) {
	if got := (Info{File: "a.go", Line: 12}).String(); got != "a.go:12" {
		t.Fatalf("String = %q", got)
	}
	if got := (Info{}).String(); got != "<unknown>" {
		t.Fatalf("zero Info String = %q", got)
	}
}

func TestRegistryCount(t *testing.T) {
	r := NewRegistry()
	if r.Count() != 0 {
		t.Fatalf("fresh registry count = %d", r.Count())
	}
	r.Named("x")
	r.Named("x")
	r.Named("y")
	if r.Count() != 2 {
		t.Fatalf("count = %d, want 2", r.Count())
	}
}

func TestConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	ids := make([]ID, 64)
	for g := range ids {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = r.Named("shared")
		}(g)
	}
	wg.Wait()
	for _, id := range ids {
		if id != ids[0] {
			t.Fatalf("concurrent Named returned inconsistent IDs")
		}
	}
}

// fastHookLike resolves its caller the way runtime hooks do: the
// frame-pointer return PC through the registry's published map, with the
// runtime.Callers unwind as the fallback.
//
//go:noinline
func fastHookLike() ID {
	if pc := ReturnPC(); pc != 0 {
		return ResolvePC(pc)
	}
	return Here(0)
}

// BenchmarkHereCached times the steady-state resolution of a known call site
// through the registry's lock-free map, the path every hook call takes.
func BenchmarkHereCached(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fastHookLike()
	}
}
