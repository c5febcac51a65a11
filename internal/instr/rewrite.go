package instr

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"github.com/pmrace-go/pmrace/internal/lint"
)

// callClass classifies one call expression in plain-dialect source.
type callClass int

const (
	ccNone        callClass = iota // not a pmplain construct; no rewrite
	ccHook                         // pmplain.Mem hook sharing rt.Thread's name
	ccSyncHint                     // pmplain.Mem.SyncVarHint -> AnnotateSyncVar
	ccPassThrough                  // pmplain.Mem.{Branch,LockMutex,UnlockMutex} (identical on rt.Thread)
	ccPoolRoot                     // pmplain.ObjPool.Root (gains a label result)
	ccPoolOther                    // pmplain.ObjPool.{Alloc,SetRoot,HeapUsed}
	ccAugCall                      // call to an augmented in-package function
	ccBad                          // pmplain construct with no rt equivalent
)

type callInfo struct {
	class   callClass
	kind    lint.HookKind
	sel     *ast.SelectorExpr
	results int    // original result count of a label-producing call
	badMsg  string // for ccBad
}

// labelProducing reports whether the call gains an appended taint.Label
// result under instrumentation.
func (ci callInfo) labelProducing() bool {
	switch ci.class {
	case ccPoolRoot, ccAugCall:
		return true
	case ccHook:
		return ci.kind == lint.HookLoad || ci.kind == lint.HookCAS
	}
	return false
}

func (fg *fileGen) classifyCall(call *ast.CallExpr) callInfo {
	info := fg.pkg.Info
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		pkgPath, typeName, method := lint.MethodRecv(info, fun)
		if strings.HasSuffix(pkgPath, pmplainSuffix) {
			switch typeName {
			case "Mem":
				// The hook vocabulary is classified through the same
				// exported table pmvet's analyzers use, so generator and
				// linter can never disagree about what is a PM operation.
				if k := lint.ThreadHookKind(method); k != lint.HookNone {
					ci := callInfo{class: ccHook, kind: k, sel: fun}
					switch k {
					case lint.HookLoad:
						ci.results = 1
					case lint.HookCAS:
						ci.results = 2
					}
					return ci
				}
				switch method {
				case "SyncVarHint":
					return callInfo{class: ccSyncHint, sel: fun}
				case "Branch", "LockMutex", "UnlockMutex":
					return callInfo{class: ccPassThrough, sel: fun}
				}
				return callInfo{class: ccBad, badMsg: fmt.Sprintf("pmplain.Mem method %s has no rt.Thread equivalent", method)}
			case "ObjPool":
				switch method {
				case "Root":
					return callInfo{class: ccPoolRoot, sel: fun, results: 1}
				case "Alloc", "SetRoot", "HeapUsed":
					return callInfo{class: ccPoolOther, sel: fun}
				}
				return callInfo{class: ccBad, badMsg: fmt.Sprintf("pmplain.ObjPool method %s has no pmdk.ObjPool equivalent", method)}
			}
		}
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok && fg.aug[obj] {
			sig := obj.Type().(*types.Signature)
			return callInfo{class: ccAugCall, sel: fun, results: sig.Results().Len()}
		}
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Func); ok && fg.aug[obj] {
			sig := obj.Type().(*types.Signature)
			return callInfo{class: ccAugCall, results: sig.Results().Len()}
		}
	}
	return callInfo{class: ccNone}
}

// fnGen runs the per-function label dataflow: virtual labels are created at
// label-producing calls, propagated through assignments (with the same
// conservative tuple-call rule pmvet's taint-gap analyzer applies), and
// consumed at stores and augmented returns. In probe mode (final=false) it
// only computes returnLabeled, for the augmentation fixed point.
type fnGen struct {
	fg        *fileGen
	fn        *ast.FuncDecl
	augmented bool
	final     bool

	env           map[types.Object]labset
	vlabs         []*vlab
	handled       map[ast.Node]bool
	memParam      string
	origResults   int
	returnLabeled bool
}

func newFnGen(fg *fileGen, fn *ast.FuncDecl, augmented, final bool) *fnGen {
	return &fnGen{
		fg:        fg,
		fn:        fn,
		augmented: augmented,
		final:     final,
		env:       map[types.Object]labset{},
		handled:   map[ast.Node]bool{},
	}
}

func (f *fnGen) walk() {
	f.findMemParam()
	if obj, ok := f.fg.pkg.Info.Defs[f.fn.Name].(*types.Func); ok {
		f.origResults = obj.Type().(*types.Signature).Results().Len()
	}
	if f.augmented && f.final {
		f.sigEdit()
	}
	if f.fn.Body != nil {
		f.stmt(f.fn.Body)
	}
	if f.final {
		f.validate()
		f.nameLabels()
	}
}

func (f *fnGen) errf(pos token.Pos, format string, args ...any) {
	if f.final {
		f.fg.errf(pos, format, args...)
	}
}

func (f *fnGen) findMemParam() {
	if f.fn.Type.Params == nil {
		return
	}
	for _, field := range f.fn.Type.Params.List {
		for _, name := range field.Names {
			obj := f.fg.pkg.Info.Defs[name]
			if obj != nil && isPmplainType(obj.Type(), "Mem") {
				f.memParam = name.Name
				return
			}
		}
	}
}

func isPmplainType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), pmplainSuffix)
}

// sigEdit appends taint.Label to the function's result list in place.
func (f *fnGen) sigEdit() {
	res := f.fn.Type.Results
	f.fg.need(f.fg.internalPrefix + "taint")
	if res.Closing.IsValid() {
		off := f.fg.off(res.Closing)
		f.fg.addEdit(&edit{lo: off, hi: off, parts: []any{", taint.Label"}, what: "augmented result " + f.fn.Name.Name})
		return
	}
	lo, hi := f.fg.off(res.Pos()), f.fg.off(res.End())
	f.fg.addEdit(&edit{lo: lo, hi: hi,
		parts: []any{"(" + string(f.fg.src[lo:hi]) + ", taint.Label)"},
		what:  "augmented result " + f.fn.Name.Name})
}

func (f *fnGen) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			f.stmt(st)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			f.stmt(s.Init)
		}
		f.stmt(s.Body)
		if s.Else != nil {
			f.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			f.stmt(s.Init)
		}
		if s.Post != nil {
			f.stmt(s.Post)
		}
		f.stmt(s.Body)
	case *ast.RangeStmt:
		ls := f.labelsOf(s.X)
		if s.Key != nil {
			f.bind(s.Key, ls)
		}
		if s.Value != nil {
			f.bind(s.Value, ls)
		}
		f.stmt(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			f.stmt(s.Init)
		}
		f.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			f.stmt(s.Init)
		}
		f.stmt(s.Assign)
		f.stmt(s.Body)
	case *ast.CaseClause:
		for _, st := range s.Body {
			f.stmt(st)
		}
	case *ast.SelectStmt:
		f.stmt(s.Body)
	case *ast.CommClause:
		if s.Comm != nil {
			f.stmt(s.Comm)
		}
		for _, st := range s.Body {
			f.stmt(st)
		}
	case *ast.LabeledStmt:
		f.stmt(s.Stmt)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			f.callStmt(call)
		}
	case *ast.DeferStmt:
		f.callStmt(s.Call)
	case *ast.GoStmt:
		f.callStmt(s.Call)
	case *ast.AssignStmt:
		f.assign(s)
	case *ast.ReturnStmt:
		f.ret(s)
	case *ast.DeclStmt:
		f.declStmt(s)
	}
	// Remaining kinds (IncDec, Branch, Empty, Send, ...) neither produce
	// nor consume labels; nested misuse is caught by validate.
}

func (f *fnGen) declStmt(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		var ls labset
		for _, v := range vs.Values {
			ls = ls.union(f.labelsOf(v))
		}
		for _, name := range vs.Names {
			f.bind(name, ls)
		}
	}
}

// assign handles both label-producing defines and ordinary propagation.
func (f *fnGen) assign(s *ast.AssignStmt) {
	if len(s.Rhs) == 1 {
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
			ci := f.fg.classifyCall(call)
			if ci.class == ccBad {
				f.errf(call.Pos(), "%s", ci.badMsg)
				f.handled[call] = true
				return
			}
			if ci.labelProducing() {
				f.labelDefine(s, call, ci)
				return
			}
			// Tuple from an unlabelled call: propagate the union of the
			// argument labels into every result, mirroring pmvet's
			// taint-gap conservatism so the generated labels are never
			// weaker than what that analyzer demands.
			if len(s.Lhs) > 1 {
				ls := f.labelsOf(call)
				for _, l := range s.Lhs {
					f.bind(l, ls)
				}
				return
			}
		}
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			f.bind(s.Lhs[i], f.labelsOf(s.Rhs[i]))
		}
		return
	}
	if len(s.Rhs) == 1 { // comma-ok forms: v, ok := m[k] / x.(T) / <-ch
		ls := f.labelsOf(s.Rhs[0])
		for _, l := range s.Lhs {
			f.bind(l, ls)
		}
	}
}

// labelDefine rewrites `v := t.Load64(a)` (and CAS/Root/augmented-call
// defines) into `v, vLab := ...`, binding the virtual label to the loaded
// value.
func (f *fnGen) labelDefine(s *ast.AssignStmt, call *ast.CallExpr, ci callInfo) {
	f.handled[call] = true
	if s.Tok != token.DEFINE {
		f.errf(s.Pos(), "result of a label-producing call must be bound with := so its taint label can be threaded (got %s)", s.Tok)
		return
	}
	if len(s.Lhs) != ci.results {
		f.errf(s.Pos(), "label-producing call must bind all %d results (got %d)", ci.results, len(s.Lhs))
		return
	}
	valIdx := 0
	if ci.class == ccHook && ci.kind == lint.HookCAS {
		valIdx = 1 // CAS64's loaded old value
	}
	v := f.newVlab(baseName(s.Lhs[valIdx]))
	if ci.class == ccAugCall {
		// The augmented label covers the function's results collectively.
		for _, l := range s.Lhs {
			f.bind(l, labset{v})
		}
	} else {
		f.bind(s.Lhs[valIdx], labset{v})
	}
	if f.final {
		off := f.fg.off(s.Lhs[len(s.Lhs)-1].End())
		f.fg.addEdit(&edit{lo: off, hi: off, parts: []any{", ", v}, what: "label binding"})
	}
	if ci.class == ccHook && ci.kind == lint.HookCAS {
		f.storeArgs(call, ci, 2, 0)
	}
}

// callStmt handles a call in statement position (ExprStmt, defer, go).
func (f *fnGen) callStmt(call *ast.CallExpr) {
	ci := f.fg.classifyCall(call)
	switch ci.class {
	case ccBad:
		f.errf(call.Pos(), "%s", ci.badMsg)
		f.handled[call] = true
	case ccSyncHint:
		f.hintEdit(call, ci)
	case ccHook:
		switch ci.kind {
		case lint.HookStore, lint.HookNTStore:
			f.handled[call] = true
			f.storeArgs(call, ci, 1, 0)
		case lint.HookCAS:
			f.handled[call] = true
			f.storeArgs(call, ci, 2, 0)
		case lint.HookLoad:
			f.handled[call] = true // discarded result; extra label result is also discarded
		}
	case ccPoolRoot, ccAugCall:
		f.handled[call] = true // results discarded, including the new label
	}
}

// storeArgs appends ", <valLab>, <addrLab>" to a store-shaped hook call.
func (f *fnGen) storeArgs(call *ast.CallExpr, ci callInfo, valIdx, addrIdx int) {
	if !f.final {
		return
	}
	want := 2
	if ci.kind == lint.HookCAS {
		want = 3
	}
	if len(call.Args) != want {
		f.errf(call.Pos(), "%s: expected %d arguments, got %d", ci.sel.Sel.Name, want, len(call.Args))
		return
	}
	lastEnd, rp := f.fg.off(call.Args[len(call.Args)-1].End()), f.fg.off(call.Rparen)
	if tail := string(f.fg.src[lastEnd:rp]); strings.ContainsAny(tail, ",\n") {
		f.errf(call.Pos(), "%s: calls with trailing commas or multi-line argument lists are not supported (labels are appended in place)", ci.sel.Sel.Name)
		return
	}
	recv := f.srcText(ci.sel.X)
	parts := []any{", "}
	parts = append(parts, f.term(call.Pos(), f.labelsOf(call.Args[valIdx]), recv)...)
	parts = append(parts, ", ")
	parts = append(parts, f.term(call.Pos(), f.labelsOf(call.Args[addrIdx]), recv)...)
	f.fg.addEdit(&edit{lo: rp, hi: rp, parts: parts, what: ci.sel.Sel.Name + " labels"})
}

// fieldText renders arg as gofmt lays it out inside a composite-literal
// field: go/printer with a fresh FileSet spaces top-level binary operators
// (`b + bktLock`), whereas source text copied from a call-argument position
// keeps gofmt's tightened form (`b+bktLock`) and would leave the generated
// file unformatted.
func (f *fnGen) fieldText(e ast.Expr) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, token.NewFileSet(), e); err != nil {
		return f.srcText(e)
	}
	return b.String()
}

// hintEdit rewrites m.SyncVarHint(name, addr, size, init) into
// m.Env().AnnotateSyncVar(core.SyncVar{...}).
func (f *fnGen) hintEdit(call *ast.CallExpr, ci callInfo) {
	f.handled[call] = true
	if len(call.Args) != 4 {
		f.errf(call.Pos(), "SyncVarHint: expected 4 arguments, got %d", len(call.Args))
		return
	}
	if !f.final {
		return
	}
	lo, hi := f.fg.off(call.Pos()), f.fg.off(call.End())
	if strings.Contains(string(f.fg.src[lo:hi]), "\n") {
		f.errf(call.Pos(), "SyncVarHint: multi-line calls are not supported")
		return
	}
	f.fg.need(f.fg.internalPrefix + "core")
	repl := fmt.Sprintf("%s.Env().AnnotateSyncVar(core.SyncVar{Name: %s, Addr: %s, Size: %s, InitVal: %s})",
		f.srcText(ci.sel.X), f.fieldText(call.Args[0]), f.fieldText(call.Args[1]),
		f.fieldText(call.Args[2]), f.fieldText(call.Args[3]))
	f.fg.addEdit(&edit{lo: lo, hi: hi, parts: []any{repl}, what: "SyncVarHint"})
}

func (f *fnGen) ret(s *ast.ReturnStmt) {
	if len(s.Results) == 0 {
		if f.augmented {
			f.errf(s.Pos(), "augmented function %s must return its results explicitly", f.fn.Name.Name)
		}
		return
	}
	// Direct passthrough: `return t.Load64(a)` in a function whose result
	// list is being augmented — the hook's own (value, label) pair becomes
	// the return tuple, no edit needed.
	if len(s.Results) == 1 {
		if call, ok := s.Results[0].(*ast.CallExpr); ok {
			ci := f.fg.classifyCall(call)
			if ci.labelProducing() && ci.results == f.origResults {
				f.returnLabeled = true
				f.handled[call] = true
				if ci.class == ccHook && ci.kind == lint.HookCAS {
					f.storeArgs(call, ci, 2, 0)
				}
				return
			}
		}
	}
	// Union the labels of the returned values, skipping error-typed
	// results: an error deriving from a loaded value does not make the
	// function's data results tainted, and augmenting error-only
	// functions would break the `if err := f(); err != nil` idiom.
	var ls labset
	if len(s.Results) == f.origResults {
		sig, _ := f.fg.pkg.Info.Defs[f.fn.Name].(*types.Func)
		for i, r := range s.Results {
			if sig != nil && sig.Type().(*types.Signature).Results().At(i).Type().String() == "error" {
				continue
			}
			ls = ls.union(f.labelsOf(r))
		}
	} else if f.augmented {
		f.errf(s.Pos(), "augmented function %s: return arity %d does not match signature (%d results)", f.fn.Name.Name, len(s.Results), f.origResults)
		return
	}
	if len(ls) > 0 {
		f.returnLabeled = true
	}
	if f.augmented && f.final {
		recv := f.memParam
		if recv == "" && len(ls) >= 2 {
			f.errf(s.Pos(), "cannot emit a label union: %s has no *pmplain.Mem parameter", f.fn.Name.Name)
			return
		}
		last := s.Results[len(s.Results)-1]
		off := f.fg.off(last.End())
		parts := append([]any{", "}, f.term(s.Pos(), ls, recv)...)
		f.fg.addEdit(&edit{lo: off, hi: off, parts: parts, what: "augmented return"})
	}
}

// term renders a label set: None, a single label, or a runtime union.
func (f *fnGen) term(pos token.Pos, ls labset, recv string) []any {
	switch len(ls) {
	case 0:
		f.fg.need(f.fg.internalPrefix + "taint")
		return []any{"taint.None"}
	case 1:
		ls[0].used = true
		return []any{ls[0]}
	case 2:
		ls[0].used, ls[1].used = true, true
		return []any{recv + ".Env().Labels().Union(", ls[0], ", ", ls[1], ")"}
	default:
		f.fg.need(f.fg.internalPrefix + "taint")
		parts := []any{recv + ".Env().Labels().UnionAll([]taint.Label{"}
		for i, v := range ls {
			v.used = true
			if i > 0 {
				parts = append(parts, ", ")
			}
			parts = append(parts, v)
		}
		return append(parts, "})")
	}
}

// labelsOf unions the label sets of every identifier mentioned in e.
func (f *fnGen) labelsOf(e ast.Expr) labset {
	var ls labset
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := f.fg.pkg.Info.Uses[id]; obj != nil {
			ls = ls.union(f.env[obj])
		}
		return true
	})
	return ls
}

// bind accumulates labels into the object behind an assignment target.
// Branches are not path-sensitive: labels accumulate across the whole
// function body in source order, which over-taints but never under-taints.
func (f *fnGen) bind(target ast.Expr, ls labset) {
	if len(ls) == 0 {
		return
	}
	id, ok := target.(*ast.Ident)
	if !ok {
		return // field/index writes are not tracked (as in hand code)
	}
	info := f.fg.pkg.Info
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil {
		return
	}
	f.env[obj] = f.env[obj].union(ls)
}

func (f *fnGen) newVlab(base string) *vlab {
	v := &vlab{base: base}
	f.vlabs = append(f.vlabs, v)
	return v
}

func baseName(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
		return id.Name
	}
	return "v"
}

// validate reports any label-producing or label-consuming call that the
// statement walker did not handle — loads buried inside larger expressions,
// stores in non-statement position, and so on. Keeping these hard errors
// (rather than silently dropping labels) is what lets the zero-findings
// pmvet gate on generated output hold.
func (f *fnGen) validate() {
	ast.Inspect(f.fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || f.handled[call] {
			return true
		}
		ci := f.fg.classifyCall(call)
		switch {
		case ci.class == ccBad:
			f.errf(call.Pos(), "%s", ci.badMsg)
		case ci.labelProducing():
			f.errf(call.Pos(), "%s must be the entire right-hand side of a := binding (or returned directly from an augmented function); nested uses cannot have their label threaded", callName(call))
		case ci.class == ccHook && (ci.kind == lint.HookStore || ci.kind == lint.HookNTStore):
			f.errf(call.Pos(), "%s must appear in statement position", callName(call))
		case ci.class == ccSyncHint:
			f.errf(call.Pos(), "SyncVarHint must appear in statement position")
		}
		return true
	})
}

func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return "call"
}

// nameLabels assigns concrete names after the whole function is analyzed:
// labels some edit references become `<value>Lab`; untouched ones become
// the blank identifier, matching the hand idiom `k, _ := t.Load64(...)`.
func (f *fnGen) nameLabels() {
	taken := map[string]bool{}
	ast.Inspect(f.fn, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			taken[id.Name] = true
		}
		return true
	})
	for _, v := range f.vlabs {
		if !v.used {
			v.name = "_"
			continue
		}
		name := v.base + "Lab"
		for i := 2; taken[name]; i++ {
			name = fmt.Sprintf("%sLab%d", v.base, i)
		}
		taken[name] = true
		v.name = name
	}
}

func (f *fnGen) srcText(n ast.Node) string {
	return string(f.fg.src[f.fg.off(n.Pos()):f.fg.off(n.End())])
}
