package lint

// The core the four interprocedural summaries share. Provenance slice
// summaries (summaryFor), non-negativity (nnSummaryFor), race write
// effects (effectOf) and lifetime escapes (escapeOf) each resolve a
// call to its callee, locate the callee's declaration, number its
// parameters and memoize one answer per callee with a cycle cut. Each
// of those steps is defined once, here; a summary kind contributes only
// its body walk and its answer on a recursive back edge.

import (
	"go/ast"
	"go/types"
)

// recvIdx is the parameter position of a method receiver.
const recvIdx = -1

// objOf resolves an identifier to the object it uses or, failing that,
// the object it defines.
func (tp *typedPkg) objOf(id *ast.Ident) types.Object {
	if o := tp.info.Uses[id]; o != nil {
		return o
	}
	return tp.info.Defs[id]
}

// fnDecl locates a function's declaration with its type context.
type fnDecl struct {
	tp *typedPkg
	f  *fileInfo
	fd *ast.FuncDecl
}

// declOf finds the declaration of an in-module function: nil for
// functions outside the module or in a package that does not
// type-check. check indexes a package's declarations as it checks it.
func (l *typeLoader) declOf(fn *types.Func) *fnDecl {
	if fn.Pkg() == nil {
		return nil
	}
	if rel, ok := l.a.modRel(fn.Pkg().Path()); ok {
		l.check(rel)
	}
	return l.decls[fn]
}

// paramIndex maps each named parameter in params to its position, and
// each receiver name in recv (nil to leave the receiver out) to
// recvIdx. Unnamed parameters still occupy their positions, so the
// numbering matches call argument order.
func (tp *typedPkg) paramIndex(recv, params *ast.FieldList) map[types.Object]int {
	idx := map[types.Object]int{}
	if recv != nil {
		for _, fld := range recv.List {
			for _, nm := range fld.Names {
				if obj := tp.info.Defs[nm]; obj != nil {
					idx[obj] = recvIdx
				}
			}
		}
	}
	if params == nil {
		return idx
	}
	k := 0
	for _, fld := range params.List {
		if len(fld.Names) == 0 {
			k++
			continue
		}
		for _, nm := range fld.Names {
			if obj := tp.info.Defs[nm]; obj != nil {
				idx[obj] = k
			}
			k++
		}
	}
	return idx
}

// calleeOf resolves a call to the declared function it invokes: plain
// and package-qualified functions, concrete methods, and explicit
// generic instantiations (f[T](...) resolves to the generic
// declaration). A call whose target is chosen at run time — an
// interface method, a func-typed parameter, variable or field, an
// immediately-invoked literal — is delegated: fn is nil and the callee
// owns its writes.
//
// bound, when non-nil, is asked about func-typed variables first. A
// caller that knows the variable was bound exactly once to a method
// value or named function (see methodValueBinding) answers with that
// function and, for a method value, the receiver expression the call
// writes through invisibly.
func (tp *typedPkg) calleeOf(call *ast.CallExpr, bound func(*types.Var) (*types.Func, ast.Expr)) (fn *types.Func, recv ast.Expr, delegated bool) {
	fun := unparen(call.Fun)
	switch v := fun.(type) {
	case *ast.IndexExpr:
		fun = unparen(v.X)
	case *ast.IndexListExpr:
		fun = unparen(v.X)
	}
	var obj types.Object
	switch v := fun.(type) {
	case *ast.Ident:
		obj = tp.objOf(v)
	case *ast.SelectorExpr:
		obj = tp.objOf(v.Sel)
	case *ast.FuncLit:
		return nil, nil, true // walked where it stands
	}
	switch obj := obj.(type) {
	case *types.Func:
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			return nil, nil, true
		}
		return obj, nil, false
	case *types.Var:
		if _, isSig := obj.Type().Underlying().(*types.Signature); !isSig {
			return nil, nil, false
		}
		if _, isIdent := fun.(*ast.Ident); isIdent && bound != nil {
			if bf, recv := bound(obj); bf != nil {
				return bf, recv, false
			}
		}
		return nil, nil, true
	}
	return nil, nil, false
}

// methodValueBinding resolves the expression a func-typed local was
// bound to: a concrete method value (returning the method and its
// bound receiver expression) or a named function. Anything else —
// literals, interface method values, call results — stays unresolved.
func methodValueBinding(tp *typedPkg, src ast.Expr) (fn *types.Func, recv ast.Expr) {
	if src == nil {
		return nil, nil
	}
	switch v := unparen(src).(type) {
	case *ast.Ident:
		if f, ok := tp.objOf(v).(*types.Func); ok {
			return f, nil
		}
	case *ast.SelectorExpr:
		if selInfo, ok := tp.info.Selections[v]; ok {
			if selInfo.Kind() == types.MethodVal && !types.IsInterface(selInfo.Recv()) {
				if f, isF := selInfo.Obj().(*types.Func); isF {
					return f, v.X
				}
			}
			return nil, nil
		}
		if f, ok := tp.objOf(v.Sel).(*types.Func); ok {
			return f, nil // package-qualified function value
		}
	}
	return nil, nil
}

// memo caches one summary kind per key and cuts recursion: a key asked
// for again while its own computation is still running gets cycle, the
// kind's sound answer on a back edge. The zero memo is ready to use.
type memo[K comparable, V any] struct {
	done     map[K]V
	inflight map[K]bool
}

func (m *memo[K, V]) get(k K, cycle V, compute func() V) V {
	if v, ok := m.done[k]; ok {
		return v
	}
	if m.inflight[k] {
		return cycle
	}
	if m.done == nil {
		m.done, m.inflight = map[K]V{}, map[K]bool{}
	}
	m.inflight[k] = true
	defer delete(m.inflight, k)
	v := compute()
	m.done[k] = v
	return v
}
