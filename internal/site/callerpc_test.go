package site

import "testing"

// fpHook mimics an instrumented hook: resolve the caller's call site through
// both capture paths from the same frame. Must stay noinline like real hooks.
//
//go:noinline
func fpHook(r *Registry) (fast, slow ID) {
	fast = r.ResolvePC(ReturnPC())
	slow = r.Here(1)
	return fast, slow
}

func TestVerifyReturnPC(t *testing.T) {
	if !VerifyReturnPC() {
		t.Skip("frame-pointer fast path unavailable on this build")
	}
}

// TestReturnPCMatchesRuntimeCallers checks that the assembly frame-pointer
// walk and runtime.Callers resolve one call site to the same registry ID —
// the invariant that lets coverage, dedup keys and bug fingerprints stay
// identical whichever capture path a build uses.
func TestReturnPCMatchesRuntimeCallers(t *testing.T) {
	if !VerifyReturnPC() {
		t.Skip("frame-pointer fast path unavailable on this build")
	}
	r := NewRegistry()
	var first ID
	// Repeated calls from one site: iteration 0 exercises the registry cold
	// path, the rest must hit the published map and keep resolving
	// identically.
	for i := 0; i < 3; i++ {
		fast, slow := fpHook(r)
		if fast == Unknown {
			t.Fatal("fast path resolved to Unknown")
		}
		if fast != slow {
			t.Fatalf("ResolvePC(ReturnPC()) = %d, Here(1) = %d: capture paths disagree", fast, slow)
		}
		if i == 0 {
			first = fast
		} else if fast != first {
			t.Fatalf("iteration %d resolved to %d, want %d", i, fast, first)
		}
	}
}
