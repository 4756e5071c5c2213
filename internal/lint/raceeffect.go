package lint

// Interprocedural write-effect summaries for the races pass: when a
// parallel region calls an in-module function, the region's safety
// depends on what that function writes. effectOf summarizes a callee
// once, memoized per pass:
//
//	paramPlain   the callee performs plain writes through memory
//	             reachable from its parameters or receiver — the
//	             caller must hand it task-owned memory
//	paramAtomic  the callee writes through its parameters, but only
//	             with sync/atomic operations
//	shared       the callee writes package-level state (or something
//	             the summary cannot root) without synchronization;
//	             calling it from a region is refused outright
//
// Writes the callee makes under a held mutex, writes to memory it
// allocates itself, and atomic writes to shared state are all absent
// from the summary: they are safe regardless of the calling region.
// Function literals inside the callee are included — the dominant
// pattern here is a driver handing closures to a parallel primitive,
// and those closures' writes through the driver's parameters are
// exactly what the caller needs to know about.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// writeEffect is one function's summarized write behavior. The
// position sets record which parameters the writes actually reach
// (receiver = recvIdx), so a caller handing task-owned memory at the
// written positions can pass shared read-only data everywhere else —
// the compressed-CSR encoder's shape, where encodeRow(v, row, dst)
// writes dst but only reads the shared adjacency row. A raised flag
// with an empty set means the walk saw a parameter-rooted write it
// could not attribute to a position; every position then counts as
// written, the pre-positional conservative answer.
type writeEffect struct {
	paramPlain  bool
	paramAtomic bool
	shared      string // first offending write, for the refusal message

	plainIdx  map[int]bool
	atomicIdx map[int]bool
	plainAll  bool // an unattributed plain write: every position counts
	atomicAll bool
}

// writesPlain reports whether the callee performs plain writes through
// the parameter at position idx.
func (e *writeEffect) writesPlain(idx int) bool {
	if !e.paramPlain {
		return false
	}
	return e.plainAll || len(e.plainIdx) == 0 || e.plainIdx[idx]
}

// writesAtomic is writesPlain for sync/atomic writes.
func (e *writeEffect) writesAtomic(idx int) bool {
	if !e.paramAtomic {
		return false
	}
	return e.atomicAll || len(e.atomicIdx) == 0 || e.atomicIdx[idx]
}

// writesThrough reports whether position idx is written at all.
func (e *writeEffect) writesThrough(idx int) bool {
	return e.writesPlain(idx) || e.writesAtomic(idx)
}

// effectOf returns fn's memoized write effect. Recursive cycles
// resolve optimistically (the first activation summarizes the rest of
// the body; a cycle participant's own frame contributes nothing extra).
func (rp *racePass) effectOf(fn *types.Func) *writeEffect {
	return rp.effects.get(fn, &writeEffect{}, func() *writeEffect { return rp.computeEffect(fn) })
}

func (rp *racePass) computeEffect(fn *types.Func) *writeEffect {
	d := rp.loader.declOf(fn)
	if d == nil || d.fd.Body == nil {
		// In-module but undeclared (assembly stub, build-tagged out):
		// refuse rather than guess.
		return &writeEffect{shared: "body of " + fn.Name() + " not available to the analysis"}
	}
	w := &effWalk{
		rp: rp, tp: d.tp, f: d.f, fd: d.fd,
		eff:    &writeEffect{},
		params: d.tp.paramIndex(d.fd.Recv, d.fd.Type.Params),
		defs:   map[types.Object]*effFact{},
	}
	w.collect()
	ast.Inspect(d.fd.Body, w.visit)
	return w.eff
}

// ---------------------------------------------------------------------
// The callee body walk
// ---------------------------------------------------------------------

// effKind roots a memory access: callee-allocated, parameter-reachable,
// or package-shared. Order matters — merging takes the worst.
type effKind int

const (
	effLocal effKind = iota
	effParam
	effShared
)

// effFact accumulates every expression a variable was ever bound to;
// the variable's root is the worst root among them. unknown marks
// bindings the walk cannot model (tuple results, range clauses).
type effFact struct {
	srcs    []ast.Expr
	unknown bool
}

type effWalk struct {
	rp        *racePass
	tp        *typedPkg
	f         *fileInfo
	fd        *ast.FuncDecl
	eff       *writeEffect
	params    map[types.Object]int // param object -> position (receiver = recvIdx)
	defs      map[types.Object]*effFact
	litLocal  map[types.Object]bool     // region-closure params: per-invocation values
	litHanded map[types.Object]ast.Expr // region-closure handed params -> backing argument
	inRoot    map[types.Object]bool     // rootOf cycle guard (swap chains)
	held      int                       // mutex depth: writes under a held lock are the callee's business
}

// collect records every binding of every local for alias resolution.
func (w *effWalk) collect() {
	fact := func(obj types.Object) *effFact {
		fx := w.defs[obj]
		if fx == nil {
			fx = &effFact{}
			w.defs[obj] = fx
		}
		return fx
	}
	ast.Inspect(w.fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) == len(v.Rhs) {
				for i, lhs := range v.Lhs {
					id, ok := unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					obj := w.tp.objOf(id)
					if obj == nil {
						continue
					}
					// x = append(x, ...) and x = x[i:j] rebind x to the
					// same underlying memory: no new root.
					if v.Tok != token.DEFINE && selfDerived(w.tp, v.Rhs[i], obj) {
						continue
					}
					fact(obj).srcs = append(fact(obj).srcs, v.Rhs[i])
				}
				return true
			}
			// Tuple call/assertion results: not modeled.
			for _, lhs := range v.Lhs {
				if id, ok := unparen(lhs).(*ast.Ident); ok {
					if obj := w.tp.objOf(id); obj != nil {
						fact(obj).unknown = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, nm := range v.Names {
				obj := w.tp.info.Defs[nm]
				if obj == nil {
					continue
				}
				fx := fact(obj)
				switch {
				case len(v.Values) == len(v.Names):
					fx.srcs = append(fx.srcs, v.Values[i])
				case len(v.Values) > 0:
					fx.unknown = true // tuple initializer
				}
				// No initializer: zero value, srcs stays empty.
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{v.Key, v.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if obj := w.tp.objOf(id); obj != nil {
						// The value variable may alias elements of the
						// ranged expression; root both through it.
						fact(obj).srcs = append(fact(obj).srcs, v.X)
					}
				}
			}
		case *ast.FuncLit:
			// Scalar and worker-handle parameters of any closure are
			// per-invocation values wherever the closure ends up invoked;
			// claim them so writes rooted at them stay local. Reference
			// parameters are left unclaimed (conservatively shared)
			// unless a region call site hands them memory.
			if v.Type.Params != nil {
				for _, fld := range v.Type.Params.List {
					for _, nm := range fld.Names {
						obj := w.tp.info.Defs[nm]
						if obj != nil && perInvocationParam(obj.Type()) {
							if w.litLocal == nil {
								w.litLocal = map[types.Object]bool{}
							}
							w.litLocal[obj] = true
						}
					}
				}
			}
		}
		return true
	})
}

// selfDerived reports whether rhs is append(x, ...) or a reslice of x —
// an assignment to x that preserves x's memory root.
func selfDerived(tp *typedPkg, rhs ast.Expr, obj types.Object) bool {
	isSelf := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		return ok && (tp.info.Uses[id] == obj || tp.info.Defs[id] == obj)
	}
	switch v := unparen(rhs).(type) {
	case *ast.SliceExpr:
		return isSelf(v.X)
	case *ast.CallExpr:
		if id, ok := unparen(v.Fun).(*ast.Ident); ok && id.Name == "append" && len(v.Args) > 0 {
			return isSelf(v.Args[0])
		}
	}
	return false
}

// visit is the single-pass effect walk. Statement order is approximate
// (ast.Inspect order is source order within a function), which is
// enough for the straight-line Lock/Unlock discipline this module uses.
func (w *effWalk) visit(n ast.Node) bool {
	switch v := n.(type) {
	case *ast.AssignStmt:
		if v.Tok == token.DEFINE {
			return true
		}
		for _, lhs := range v.Lhs {
			w.write(lhs)
		}
	case *ast.IncDecStmt:
		w.write(v.X)
	case *ast.DeferStmt:
		if w.lockOp(v.Call, true) {
			return false
		}
	case *ast.GoStmt:
		// The spawned body is walked by Inspect anyway if it is a
		// literal; a dynamic launch hides writes we cannot see.
		if _, ok := unparen(v.Call.Fun).(*ast.FuncLit); !ok {
			w.sharedAt(v, "launches a goroutine through "+types.ExprString(v.Call.Fun))
		}
	case *ast.CallExpr:
		return !w.call(v)
	}
	return true
}

// write classifies one assignment target in the callee.
func (w *effWalk) write(lhs ast.Expr) {
	base, steps, ok := peelTarget(lhs)
	if !ok {
		w.sharedAt(lhs, "writes through unmodeled expression "+types.ExprString(lhs))
		return
	}
	if len(steps) == 0 {
		return // writing a variable itself: callee-frame storage
	}
	obj := w.tp.objOf(base)
	if obj == nil {
		w.sharedAt(lhs, "writes through unresolved "+types.ExprString(lhs))
		return
	}
	if !w.crosses(obj, steps) {
		return // stays inside a callee-frame variable (array/struct value)
	}
	ps := map[int]bool{}
	w.emit(w.rootOf(obj, 0, ps), lhs, false, ps)
}

// emit folds one rooted write into the summary. ps carries the
// parameter positions the write's memory can be rooted at; empty with
// kind effParam means attribution failed and every position is tainted.
func (w *effWalk) emit(kind effKind, at ast.Node, atomic bool, ps map[int]bool) {
	switch kind {
	case effLocal:
	case effParam:
		if atomic {
			w.eff.paramAtomic = true
			if len(ps) == 0 {
				w.eff.atomicAll = true
			}
			w.addIdx(&w.eff.atomicIdx, ps)
		} else if w.held == 0 {
			w.eff.paramPlain = true
			if len(ps) == 0 {
				w.eff.plainAll = true
			}
			w.addIdx(&w.eff.plainIdx, ps)
		}
	case effShared:
		if !atomic && w.held == 0 {
			w.sharedAt(at, "writes "+w.describe(at))
		}
	}
}

func (w *effWalk) addIdx(dst *map[int]bool, ps map[int]bool) {
	if len(ps) == 0 {
		return
	}
	if *dst == nil {
		*dst = map[int]bool{}
	}
	for i := range ps {
		(*dst)[i] = true
	}
}

func (w *effWalk) describe(at ast.Node) string {
	if e, ok := at.(ast.Expr); ok {
		return types.ExprString(e)
	}
	return "shared state"
}

func (w *effWalk) sharedAt(at ast.Node, what string) {
	if w.eff.shared != "" {
		return
	}
	pos := w.rp.a.fset.Position(at.Pos())
	w.eff.shared = fmt.Sprintf("%s at %s:%d", what, w.f.rel, pos.Line)
}

// crosses reports whether the access path leaves the variable's own
// storage (mirrors regionCheck.memClass's crossing analysis).
func (w *effWalk) crosses(obj types.Object, steps []targetStep) bool {
	t := obj.Type()
	for _, st := range steps {
		switch {
		case st.star:
			return true
		case st.index != nil:
			if _, isArr := t.Underlying().(*types.Array); !isArr {
				return true
			}
		case st.field != "":
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				return true
			}
		}
		t = stepType(t, st)
		if t == nil {
			return true
		}
	}
	return false
}

// rootOf resolves whose memory a variable's referent is: allocated
// here, reachable from a parameter, or package-shared. A variable's
// root is the worst root over everything it was ever bound to; every
// parameter that contributes a binding is recorded in ps.
func (w *effWalk) rootOf(obj types.Object, depth int, ps map[int]bool) effKind {
	if depth > 6 || obj == nil {
		return effShared
	}
	if idx, isParam := w.params[obj]; isParam {
		if ps != nil {
			ps[idx] = true
		}
		return effParam
	}
	if w.litLocal[obj] {
		return effLocal
	}
	if back, ok := w.litHanded[obj]; ok {
		return w.aliasRoot(back, depth+1, ps)
	}
	v, isVar := obj.(*types.Var)
	if !isVar {
		return effShared
	}
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return effShared // package-level variable
	}
	fx := w.defs[obj]
	if fx == nil || fx.unknown {
		return effShared // untracked local (unclaimed closure param, tuple result)
	}
	if w.inRoot[obj] {
		// Binding cycle (a, b = b, a ping-pong): the cycle itself
		// introduces no memory; the true roots appear on the bindings
		// outside it, which the outer worst-of fold still visits.
		return effLocal
	}
	if w.inRoot == nil {
		w.inRoot = map[types.Object]bool{}
	}
	w.inRoot[obj] = true
	kind := effLocal // no bindings at all: the zero value
	for _, src := range fx.srcs {
		if k := w.aliasRoot(src, depth+1, ps); k > kind {
			kind = k
		}
	}
	delete(w.inRoot, obj)
	return kind
}

// aliasRoot resolves the root of the memory an expression evaluates to.
func (w *effWalk) aliasRoot(e ast.Expr, depth int, ps map[int]bool) effKind {
	if depth > 8 {
		return effShared
	}
	switch v := unparen(e).(type) {
	case *ast.Ident:
		if v.Name == "nil" {
			return effLocal
		}
		return w.rootOf(w.tp.objOf(v), depth, ps)
	case *ast.SelectorExpr:
		return w.aliasRoot(v.X, depth+1, ps)
	case *ast.IndexExpr:
		return w.aliasRoot(v.X, depth+1, ps)
	case *ast.StarExpr:
		return w.aliasRoot(v.X, depth+1, ps)
	case *ast.SliceExpr:
		return w.aliasRoot(v.X, depth+1, ps)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return w.aliasRoot(v.X, depth+1, ps)
		}
	case *ast.CompositeLit, *ast.BasicLit, *ast.FuncLit:
		return effLocal
	case *ast.CallExpr:
		if id, ok := unparen(v.Fun).(*ast.Ident); ok {
			switch {
			case id.Name == "make" || id.Name == "new":
				return effLocal
			case id.Name == "append" && len(v.Args) > 0:
				return w.aliasRoot(v.Args[0], depth+1, ps)
			}
		}
		if tv, ok := w.tp.info.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			return w.aliasRoot(v.Args[0], depth+1, ps)
		}
		// A call result is presumed derived from the call's reference
		// inputs: the receiver and by-reference arguments.
		kind := effLocal
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
			isQualifier := false
			if id, isID := unparen(sel.X).(*ast.Ident); isID {
				_, isQualifier = w.tp.objOf(id).(*types.PkgName)
			}
			if !isQualifier {
				if k := w.aliasRoot(sel.X, depth+1, ps); k > kind {
					kind = k
				}
			}
		}
		for _, arg := range byRefArgs(w.tp, v) {
			if k := w.aliasRoot(arg.expr, depth+1, ps); k > kind {
				kind = k
			}
		}
		return kind
	}
	return effShared
}

// lockOp tracks mutex depth inside the callee.
func (w *effWalk) lockOp(call *ast.CallExpr, deferred bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isNamedRecv(w.tp, sel.X, syncPath, "Mutex", "RWMutex") {
		return false
	}
	switch sel.Sel.Name {
	case "Lock":
		if !deferred {
			w.held++
		}
		return true
	case "Unlock":
		if !deferred && w.held > 0 {
			w.held--
		}
		return true
	case "RLock", "RUnlock", "TryLock":
		return true
	}
	return false
}

// call classifies one call inside the callee. Returns true when the
// call was fully handled (Inspect should not descend into it).
func (w *effWalk) call(call *ast.CallExpr) bool {
	if w.lockOp(call, false) {
		return true
	}
	w.claimRegionLits(call)
	if pathStr, name, isPkg := callTarget(w.f, call); isPkg {
		if isPath(pathStr, atomicPath) {
			if atomicWritePrefix(name) && len(call.Args) > 0 {
				ps := map[int]bool{}
				w.emit(w.targetRoot(call.Args[0], ps), call, true, ps)
			}
			return true
		}
		if isPath(pathStr, corePath) && coreAtomicHelpers[name] {
			if len(call.Args) > 0 {
				ps := map[int]bool{}
				w.emit(w.targetRoot(call.Args[0], ps), call, true, ps)
			}
			return true
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if isAtomicRecv(w.tp, sel.X) {
			if atomicWriteMethods[sel.Sel.Name] {
				ps := map[int]bool{}
				w.emit(w.targetRoot(sel.X, ps), call, true, ps)
			}
			return true
		}
		if isNamedRecv(w.tp, sel.X, syncPath, "Mutex", "RWMutex", "WaitGroup", "Cond", "Once") {
			return true // synchronization, not user-state writes
		}
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "copy":
			if len(call.Args) == 2 {
				ps := map[int]bool{}
				w.emit(w.targetRoot(call.Args[0], ps), call, false, ps)
			}
			return false // still descend for the source expression
		case "delete":
			if len(call.Args) > 0 {
				ps := map[int]bool{}
				w.emit(w.targetRoot(call.Args[0], ps), call, false, ps)
			}
			return false
		}
	}

	fn, boundRecv, delegated := w.tp.calleeOf(call, w.boundCallee)
	if delegated || fn == nil || fn.Pkg() == nil {
		return false
	}
	if _, inModule := w.rp.a.modRel(fn.Pkg().Path()); !inModule {
		key := fn.Pkg().Name() + "." + fn.Name()
		if stdlibMutators[key] && len(call.Args) > 0 {
			ps := map[int]bool{}
			w.emit(w.targetRoot(call.Args[0], ps), call, false, ps)
		}
		return false
	}

	// In-module sub-call: map the callee's summarized parameter writes
	// through this call's arguments at the written positions only —
	// read-only positions carry no write effect into this summary.
	sub := w.rp.effectOf(fn)
	if sub.shared != "" && w.held == 0 {
		w.sharedAt(call, "calls "+fn.Name()+", which "+sub.shared)
	}
	if sub.paramPlain || sub.paramAtomic {
		refs := byRefArgs(w.tp, call)
		if boundRecv != nil {
			if tv, ok := w.tp.info.Types[boundRecv]; !ok || tv.Type == nil || !isWorkerNamed(tv.Type) {
				refs = append(refs, effArg{expr: boundRecv, idx: recvIdx})
			}
		}
		for _, arg := range refs {
			if !sub.writesThrough(arg.idx) {
				continue
			}
			ps := map[int]bool{}
			root := w.targetRoot(arg.expr, ps)
			if sub.writesPlain(arg.idx) {
				w.emit(root, call, false, ps)
			}
			if sub.writesAtomic(arg.idx) {
				w.emit(root, call, true, ps)
			}
		}
	}
	return false
}

// targetRoot resolves an argument expression's memory root (through
// &x wrappers), recording contributing parameter positions in ps.
func (w *effWalk) targetRoot(e ast.Expr, ps map[int]bool) effKind {
	return w.aliasRoot(e, 0, ps)
}

// claimRegionLits registers the parameters of function literals handed
// to this call, before Inspect descends into the literal bodies. Value
// scalars and the per-task *Worker handle carry no caller memory, so
// writes rooted at them are invocation-local; parameters at a core
// primitive's handed positions alias elements of the primitive's data
// argument and root through it.
func (w *effWalk) claimRegionLits(call *ast.CallExpr) {
	handedIdx := map[int]ast.Expr{}
	primary := -1
	if pathStr, name, isPkg := callTarget(w.f, call); isPkg && isPath(pathStr, corePath) {
		if spec, ok := coreRegionSpecs[name]; ok && len(spec.bodyArgs) > 0 {
			primary = spec.bodyArgs[0]
			if len(call.Args) > 1 {
				for _, hi := range spec.handed {
					handedIdx[hi] = call.Args[1]
				}
			}
		}
	}
	for ai, arg := range call.Args {
		lit, ok := unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		for obj, idx := range w.tp.paramIndex(nil, lit.Type.Params) {
			if back, isHanded := handedIdx[idx]; isHanded && ai == primary {
				if w.litHanded == nil {
					w.litHanded = map[types.Object]ast.Expr{}
				}
				w.litHanded[obj] = back
			} else if perInvocationParam(obj.Type()) {
				if w.litLocal == nil {
					w.litLocal = map[types.Object]bool{}
				}
				w.litLocal[obj] = true
			}
		}
	}
}

// perInvocationParam reports whether a closure parameter of this type
// cannot carry caller-shared reference memory: a value scalar, or the
// worker handle the scheduler passes each task.
func perInvocationParam(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Basic); ok {
		return true
	}
	return isWorkerNamed(t)
}

// boundCallee resolves a func-typed local that was bound exactly once
// to a method value or named function. A method value carries its
// receiver invisibly — f := c.bump; f() writes through c with no
// receiver in the call syntax — so the resolved binding returns the
// receiver expression for the caller to classify as by-reference
// memory. Func-typed parameters stay delegated: their bindings belong
// to callers the walk cannot see.
func (w *effWalk) boundCallee(v *types.Var) (*types.Func, ast.Expr) {
	if _, isParam := w.params[v]; isParam {
		return nil, nil
	}
	fx := w.defs[v]
	if fx == nil || fx.unknown || len(fx.srcs) != 1 {
		return nil, nil
	}
	return methodValueBinding(w.tp, fx.srcs[0])
}

// ---------------------------------------------------------------------
// By-reference arguments
// ---------------------------------------------------------------------

type effArg struct {
	expr ast.Expr
	idx  int // callee parameter position (receiver = recvIdx)
}

// byRefArgs lists the expressions a call could write through: the
// method receiver and every argument whose type carries references
// (pointer, slice, map, interface), each tagged with the callee
// parameter position it lands in. Function-typed arguments are
// excluded — they are delegated callees, not written-to memory — and
// so are *Worker handles: a callee's writes to its worker's scheduling
// state are the scheduler's synchronized business, not user state.
func byRefArgs(tp *typedPkg, call *ast.CallExpr) []effArg {
	var out []effArg
	var sig *types.Signature
	if tv, ok := tp.info.Types[call.Fun]; ok && tv.Type != nil {
		sig, _ = tv.Type.Underlying().(*types.Signature)
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selInfo, ok := tp.info.Selections[sel]; ok && selInfo.Kind() == types.MethodVal {
			if tv, ok := tp.info.Types[sel.X]; !ok || tv.Type == nil || !isWorkerNamed(tv.Type) {
				out = append(out, effArg{expr: sel.X, idx: recvIdx})
			}
		}
	}
	for ai, arg := range call.Args {
		tv, ok := tp.info.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		if isWorkerNamed(tv.Type) {
			continue
		}
		idx := ai
		if sig != nil && sig.Params().Len() > 0 && ai >= sig.Params().Len() {
			idx = sig.Params().Len() - 1 // variadic tail shares the last position
		}
		switch tv.Type.Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map, *types.Interface:
			out = append(out, effArg{expr: arg, idx: idx})
		}
	}
	return out
}
