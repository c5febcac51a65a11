package lint

import (
	"go/ast"
	"go/types"
)

// MissingHook reports direct pmem.Pool data and persistency operations in
// code that should go through the rt.Thread hook API. A raw Pool access is
// invisible to every dynamic detector — no site ID, no taint, no
// interleaving point, no alias coverage — so the access (and any bug on it)
// silently drops out of the detectable set. This is the Go-side equivalent
// of a PM store the paper's LLVM pass failed to instrument.
//
// It also reports raw sync.Mutex and sync.RWMutex acquisitions (Lock, RLock,
// TryLock, TryRLock). A thread blocked in one is a wait the PM-aware
// scheduler cannot see: it never hears that the thread is parked, so a
// cond_wait that no thread can end sits out its timer, and a lock cycle
// through the mutex is invisible to the runtime's cycle check. Target code
// takes such mutexes with rt.Thread.LockMutex; a site with no thread in
// scope carries a //pmvet:ignore justification.
//
// The runtime packages (internal/rt, internal/pmem, internal/core, ...)
// legitimately layer on the raw Pool API; the cmd/pmvet driver therefore
// runs this analyzer over workload code (internal/targets/..., examples/...)
// only.
var MissingHook = &Analyzer{
	Name: "missing-hook",
	Doc: "reports raw pmem.Pool loads/stores/flushes that bypass the " +
		"rt.Thread hook API and are therefore invisible to the dynamic " +
		"detectors, and raw sync mutex acquisitions the scheduler cannot see",
	Run: runMissingHook,
}

func runMissingHook(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if method, raw := isRawPoolAccess(pass.TypesInfo, call); raw {
				pass.Reportf(call.Pos(),
					"raw pmem.Pool.%s bypasses the rt.Thread hook API; the access is invisible to PM race/crash detection",
					method)
			}
			if typ, method, raw := isRawMutexLock(pass.TypesInfo, call); raw {
				pass.Reportf(call.Pos(),
					"raw sync.%s.%s is a wait the PM-aware scheduler cannot see; take the mutex with rt.Thread.LockMutex",
					typ, method)
			}
			return true
		})
	}
	return nil
}

// rawMutexLocks are the sync.Mutex and sync.RWMutex methods that may block
// (or, for TryLock, take the mutex outside the runtime's bookkeeping).
var rawMutexLocks = map[string]bool{
	"Lock":     true,
	"RLock":    true,
	"TryLock":  true,
	"TryRLock": true,
}

// isRawMutexLock reports whether call acquires a sync.Mutex or sync.RWMutex
// directly, naming the type and method.
func isRawMutexLock(info *types.Info, call *ast.CallExpr) (typ, method string, raw bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	pkgPath, typeName, method := methodRecv(info, sel)
	if pkgPath != "sync" || (typeName != "Mutex" && typeName != "RWMutex") {
		return "", "", false
	}
	return typeName, method, rawMutexLocks[method]
}
