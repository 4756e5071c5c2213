package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"testing"
)

// TestCalleeOf pins the one callee resolver the four summary kinds
// share: which call shapes resolve to a declared function, which are
// delegated to a run-time target, and how a func local bound once to a
// method value resolves through the caller's bound lookup.
func TestCalleeOf(t *testing.T) {
	a, err := newAnalysis(Config{Root: filepath.Join("testdata", "src", "callee")})
	if err != nil {
		t.Fatal(err)
	}
	l := newTypeLoader(a)
	tp := l.check("internal/calls")
	if tp == nil || tp.tpkg == nil || len(tp.errs) > 0 {
		t.Fatalf("fixture does not type-check: %v", tp)
	}
	decls := map[string]*ast.FuncDecl{}
	for _, f := range tp.pkg.files {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls[fd.Name.Name] = fd
			}
		}
	}

	cases := []struct {
		fn        string // fixture function holding the call
		noBound   bool   // resolve without a bound lookup
		want      string // resolved callee name; "" when unresolved
		delegated bool
		recv      string // receiver expression carried by a bound method value
	}{
		{fn: "Plain", want: "plain"},
		{fn: "Qualified", want: "Help"},
		{fn: "Generic", want: "generic"},
		{fn: "Method", want: "bump"},
		{fn: "Interface", delegated: true},
		{fn: "Param", delegated: true},
		{fn: "Field", delegated: true},
		{fn: "Literal", delegated: true},
		{fn: "Bound", want: "bump", recv: "c"},
		{fn: "Bound", noBound: true, delegated: true},
	}
	for _, c := range cases {
		fd := decls[c.fn]
		if fd == nil {
			t.Fatalf("fixture has no function %s", c.fn)
		}
		var call *ast.CallExpr
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if ce, ok := n.(*ast.CallExpr); ok && call == nil {
				call = ce
			}
			return call == nil
		})
		var bound func(*types.Var) (*types.Func, ast.Expr)
		if !c.noBound {
			bound = func(v *types.Var) (*types.Func, ast.Expr) {
				var srcs []ast.Expr
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
						for i, lhs := range as.Lhs {
							if id, ok := lhs.(*ast.Ident); ok && tp.objOf(id) == v {
								srcs = append(srcs, as.Rhs[i])
							}
						}
					}
					return true
				})
				if len(srcs) != 1 {
					return nil, nil
				}
				return methodValueBinding(tp, srcs[0])
			}
		}

		fn, recv, delegated := tp.calleeOf(call, bound)
		got := ""
		if fn != nil {
			got = fn.Name()
			if l.declOf(fn) == nil {
				t.Errorf("%s: callee %s has no indexed declaration", c.fn, got)
			}
		}
		gotRecv := ""
		if recv != nil {
			gotRecv = types.ExprString(recv)
		}
		if got != c.want || delegated != c.delegated || gotRecv != c.recv {
			t.Errorf("%s (noBound=%v): calleeOf = (%q, recv %q, delegated %v), want (%q, recv %q, delegated %v)",
				c.fn, c.noBound, got, gotRecv, delegated, c.want, c.recv, c.delegated)
		}
	}
}
