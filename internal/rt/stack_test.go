package rt_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/taint"
)

// TestCaptureStackStartsAtStoreSite: the stack of a recorded inconsistency
// begins at the program's own store call, for a PM store and for an
// external side effect alike. This test lives outside package rt because
// the runtime's frames, test functions of package rt included, are
// stripped from reported stacks.
func TestCaptureStackStartsAtStoreSite(t *testing.T) {
	var got []*core.Inconsistency
	e := rt.NewEnv(pmem.New(4096), rt.Config{
		OnInconsistency: func(_ *rt.Env, in *core.Inconsistency) { got = append(got, in) },
	})
	w, r := e.Spawn(), e.Spawn()
	w.Store64(64, 1, taint.None, taint.None) // left unflushed
	w.Store64(128, 2, taint.None, taint.None)
	v, lab := r.Load64(64)
	_, _, line, _ := runtime.Caller(0)
	r.Store64(512, v, lab, taint.None)
	_, lab2 := r.Load64(128)
	_, _, externLine, _ := runtime.Caller(0)
	r.ExternSideEffect(lab2)

	if len(got) != 2 {
		t.Fatalf("recorded %d inconsistencies, want 2", len(got))
	}
	for i, want := range []int{line + 1, externLine + 1} {
		wantFrame := fmt.Sprintf("stack_test.go:%d rt_test.TestCaptureStackStartsAtStoreSite", want)
		if st := got[i].Stack; len(st) == 0 || st[0] != wantFrame {
			t.Errorf("finding %d: stack = %q, want first frame %q", i, st, wantFrame)
		}
	}
}
