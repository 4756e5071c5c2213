package lint

// Interprocedural escape summaries for the lifetimes pass: does a
// callee retain a reference to the memory behind one of its
// parameters past the call? The walk (regionflow.go) asks this for
// every checkout handed to an in-module helper; the answer is computed
// once per *types.Func, memoized on the pass, and cycle-guarded
// optimistically (a recursive chain that never stores a parameter
// outward retains nothing).
//
// The summary is deliberately coarse in the safe direction:
//   - returned / resliced-and-returned parameters are aliasRet, not
//     retention — the caller keeps owning the memory
//   - a parameter stored into a field of OTHER parameter-reachable
//     memory is a transit iff that field is nil-cleared later in the
//     same function (radix countingPass) or the target is a known box
//     type whose field is cleared somewhere in the module
//     (isortPositions filling isortPass.keys, cleared by runLibrary);
//     otherwise it retains
//   - a parameter stored into a package-level variable, sent on a
//     channel, captured by a go statement, or handed to a dynamic
//     callee retains
//   - a parameter forwarded to a substrate or stdlib callee does not
//     retain (documented contract); forwarded to an in-module callee,
//     the callee's own summary answers.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// refCarrying reports whether values of a type can carry a reference
// to checkout memory.
func refCarrying(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refCarrying(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return refCarrying(u.Elem())
	}
	return false
}

// escParam is the summary for one parameter.
type escParam struct {
	retains bool
	why     string
}

// escEffect is the summary for one function: parameter index (recvIdx
// for the receiver) to its escape fate. Missing entries retain
// nothing.
type escEffect struct {
	params map[int]*escParam
}

func (e *escEffect) param(i int) *escParam {
	if e == nil {
		return nil
	}
	return e.params[i]
}

func (e *escEffect) retain(i int, why string) {
	if e.params == nil {
		e.params = map[int]*escParam{}
	}
	if e.params[i] == nil {
		e.params[i] = &escParam{retains: true, why: why}
	}
}

// isSubstrate reports whether a resolved callee lives in one of the
// substrate packages whose primitives are non-retaining by documented
// contract (they fill out-params for the duration of the call).
func (lp *lifePass) isSubstrate(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return true // builtins, error methods: no retention possible
	}
	p := pkg.Path()
	return isPath(p, corePath) || isPath(p, schedPath) || isPath(p, mqPath) ||
		isPath(p, specforPath) || isPath(p, arenaPath)
}

// escapeOf returns the memoized escape summary for an in-module
// function, computing it on first use.
func (lp *lifePass) escapeOf(fn *types.Func) *escEffect {
	// A back edge answers nil: optimistic, no retention proven yet.
	return lp.escapes.get(fn, nil, func() *escEffect {
		eff := &escEffect{}
		if d := lp.loader.declOf(fn); d != nil && d.fd.Body != nil {
			lp.summarize(d, eff)
		}
		return eff
	})
}

// summarize walks one declaration and fills its escape effect.
func (lp *lifePass) summarize(d *fnDecl, eff *escEffect) {
	tp, fd := d.tp, d.fd
	paramIdx := tp.paramIndex(fd.Recv, fd.Type.Params)

	// aliasOf: local objects that alias a parameter's memory (direct
	// assignment, reslice, or &param.field), mapping to the parameter
	// index. First write wins; rebinding away is not tracked (coarse,
	// refusal-biased for stores, optimistic for nothing).
	aliasOf := map[types.Object]int{}
	var rootParam func(e ast.Expr) (int, bool)
	rootParam = func(e ast.Expr) (int, bool) {
		// Only reference-carrying values can alias a parameter's
		// memory: an int derived from len(p) escapes nothing.
		if tv, ok := tp.info.Types[e]; ok && tv.Type != nil && !refCarrying(tv.Type) {
			return 0, false
		}
		for {
			switch v := unparen(e).(type) {
			case *ast.Ident:
				if o := tp.info.Uses[v]; o != nil {
					if pi, ok := paramIdx[o]; ok {
						return pi, true
					}
					if pi, ok := aliasOf[o]; ok {
						return pi, true
					}
				}
				return 0, false
			case *ast.SliceExpr:
				e = v.X
			case *ast.UnaryExpr:
				e = v.X
			case *ast.SelectorExpr:
				e = v.X
			case *ast.StarExpr:
				e = v.X
			case *ast.IndexExpr:
				e = v.X
			case *ast.CallExpr:
				// EnsureLen-style: a slice-returning call forwarding a
				// param returns (possibly) the same memory.
				for _, a := range v.Args {
					if pi, ok := rootParam(a); ok {
						return pi, true
					}
				}
				return 0, false
			default:
				return 0, false
			}
		}
	}

	// Pass 1: collect aliases and the set of fields nil-cleared in
	// this function (transit evidence).
	clearedHere := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if id, ok := unparen(lhs).(*ast.Ident); ok && as.Tok == token.DEFINE {
				if pi, ok := rootParam(as.Rhs[i]); ok {
					if o := tp.info.Defs[id]; o != nil {
						aliasOf[o] = pi
					}
				}
			}
			if sel, ok := unparen(lhs).(*ast.SelectorExpr); ok && isNilExpr(tp, as.Rhs[i]) {
				if tv, ok := tp.info.Types[sel.X]; ok && tv.Type != nil {
					if tn := boxTypeName(tv.Type); tn != "" {
						clearedHere[tn+"."+sel.Sel.Name] = true
					}
				}
			}
		}
		return true
	})

	// Pass 2: escape events.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.ReturnStmt:
			// Returning a param is aliasRet: the caller already owns
			// the memory. Not a retention.
		case *ast.SendStmt:
			if pi, ok := rootParam(v.Value); ok {
				eff.retain(pi, "sent on a channel")
			}
		case *ast.GoStmt:
			for _, a := range v.Call.Args {
				if pi, ok := rootParam(a); ok {
					eff.retain(pi, "handed to a goroutine")
				}
			}
		case *ast.AssignStmt:
			if len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, lhs := range v.Lhs {
				if isNilExpr(tp, v.Rhs[i]) {
					continue
				}
				pi, isParam := rootParam(v.Rhs[i])
				if !isParam {
					continue
				}
				switch l := unparen(lhs).(type) {
				case *ast.Ident:
					if o := tp.info.Defs[l]; o != nil {
						continue // local binding: tracked as alias
					}
					if o := tp.info.Uses[l]; o != nil {
						if o.Parent() == tp.tpkg.Scope() {
							eff.retain(pi, "stored into package-level "+l.Name)
						}
					}
				case *ast.SelectorExpr:
					tn := ""
					if tv, ok := tp.info.Types[l.X]; ok && tv.Type != nil {
						tn = boxTypeName(tv.Type)
					}
					key := tn + "." + l.Sel.Name
					if bpi, baseIsParam := rootParam(l.X); baseIsParam {
						if bpi == pi {
							continue // a param stored into its own memory
						}
						// Transit through param-reachable memory: fine
						// iff the field is provably cleared before the
						// holder is reused.
						if clearedHere[key] || (lp.boxTypes[tn] && lp.boxCleared[key]) {
							continue
						}
						eff.retain(pi, "stored into "+key+", never cleared before reuse")
						continue
					}
					// A local holder: the holder itself would have to
					// escape to leak the param; optimistic.
				}
			}
		case *ast.CallExpr:
			lp.summarizeCall(d, eff, v, rootParam)
		}
		return true
	})
}

// summarizeCall propagates escape effects through a call inside a
// summarized function.
func (lp *lifePass) summarizeCall(d *fnDecl, eff *escEffect, call *ast.CallExpr,
	rootParam func(ast.Expr) (int, bool)) {
	tp := d.tp

	// Arena API and builtins never retain.
	if pathStr, _, isPkg := callTarget(d.f, call); isPkg && isPath(pathStr, arenaPath) {
		return
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && isArenaExpr(tp, sel.X) {
		return
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := tp.info.Uses[id].(*types.Builtin); isB {
			return
		}
	}

	fn, _, delegated := tp.calleeOf(call, nil)
	switch {
	case fn != nil && lp.isSubstrate(fn):
		return
	case fn != nil && fn.Pkg() != nil:
		if _, inMod := lp.a.modRel(fn.Pkg().Path()); !inMod {
			return // stdlib
		}
		sub := lp.escapeOf(fn)
		sig, _ := fn.Type().(*types.Signature)
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if pi, isParam := rootParam(sel.X); isParam {
				if ep := sub.param(recvIdx); ep != nil && ep.retains {
					eff.retain(pi, "via "+fn.Name()+": "+ep.why)
				}
			}
		}
		for ai, a := range call.Args {
			pi, isParam := rootParam(a)
			if !isParam {
				continue
			}
			idx := ai
			if sig != nil && sig.Variadic() && ai >= sig.Params().Len()-1 {
				idx = sig.Params().Len() - 1
			}
			if ep := sub.param(idx); ep != nil && ep.retains {
				eff.retain(pi, "via "+fn.Name()+": "+ep.why)
			}
		}
	case delegated:
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && lifeMethodContracts[sel.Sel.Name] {
			return
		}
		// A closure defined in this function is intraprocedural; its
		// body is inspected by the same ast.Inspect sweep. Any other
		// dynamic callee is an opaque hand-off.
		if lw := unparen(call.Fun); lw != nil {
			if _, isLit := lw.(*ast.FuncLit); isLit {
				return
			}
			if id, ok := lw.(*ast.Ident); ok {
				if o := tp.info.Uses[id]; o != nil {
					if _, isLocalFn := o.(*types.Var); isLocalFn && o.Pos() >= d.fd.Pos() && o.Pos() <= d.fd.End() {
						return // named closure or func var local to this function
					}
				}
			}
		}
		name := types.ExprString(call.Fun)
		for _, a := range call.Args {
			if pi, isParam := rootParam(a); isParam {
				eff.retain(pi, "handed to dynamic callee "+name)
			}
		}
	}
}
