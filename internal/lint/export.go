package lint

import (
	"go/ast"
	"go/types"
)

// This file is the shared-vocabulary surface between pmvet and the pminstr
// instrumentation generator (internal/instr): the generator classifies PM
// accesses with exactly the tables the analyzers check, so the two tools can
// never disagree about what counts as a persistent-memory operation. The
// tables themselves stay unexported (hooks.go); only read access is exported.

// HookKind is the exported alias of the analyzers' hook classification.
type HookKind = hookKind

// Exported hook kinds. HookNone classifies non-hooks.
const (
	HookNone    = hookNone
	HookLoad    = hookLoad
	HookStore   = hookStore
	HookNTStore = hookNTStore
	HookCAS     = hookCAS
	HookFlush   = hookFlush
	HookPersist = hookPersist
	HookFence   = hookFence
	HookLock    = hookLock
	HookUnlock  = hookUnlock
)

// ThreadHookKind classifies an rt.Thread hook method name (the same names
// the pmplain.Mem dialect mirrors), returning HookNone for non-hooks.
func ThreadHookKind(method string) HookKind { return rtHookKinds[method] }

// MethodRecv resolves the receiver of a method call's selector, returning
// the defining package path, type name and method name ("", "", "" for
// non-methods).
func MethodRecv(info *types.Info, sel *ast.SelectorExpr) (pkgPath, typeName, method string) {
	return methodRecv(info, sel)
}
