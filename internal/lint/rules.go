package lint

import (
	"fmt"
	"go/ast"

	"repro/internal/core"
)

// checkFiles runs the role-scoped rules over every parsed file:
//
//	bench    census cross-checks + containment + worker escape
//	example  unchecked-in-example + worker escape
//	kernel   worker escape (constructs feed bench evidence)
//	substrate censused only, never linted
//
// Writes inside parallel regions are the -races pass's business
// (races.go): its typed classification refuses every shared write.
func (a *analysis) checkFiles() {
	for _, pkg := range a.sortedPkgs() {
		if pkg.role == RoleSubstrate {
			continue
		}
		for _, f := range pkg.files {
			a.checkMarkers(f)
			switch pkg.role {
			case RoleBench:
				a.checkBenchFile(f)
			case RoleExample:
				a.checkExampleFile(f)
			}
			for _, decl := range f.ast.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					a.checkWorkerEscape(f, fd)
				}
			}
		}
	}
}

// checkMarkers flags //lint:scared markers with no reason: an audited
// escape hatch with no audit trail is worse than none.
func (a *analysis) checkMarkers(f *fileInfo) {
	for line, reason := range f.markers {
		if reason == "" {
			a.report(Diag{
				File: f.rel, Line: line, Col: 1,
				Rule: "bad-marker",
				Msg:  "//lint:scared marker without a reason; write //lint:scared <why this is safe>",
			})
		}
	}
}

// markerFor reports whether a node is covered by a //lint:scared
// marker: on the same line, on the line above, or anywhere in the doc
// comment of the enclosing top-level function.
func (a *analysis) markerFor(f *fileInfo, n ast.Node) bool {
	line := a.fset.Position(n.Pos()).Line
	if r, ok := f.markers[line]; ok && r != "" {
		return true
	}
	if r, ok := f.markers[line-1]; ok && r != "" {
		return true
	}
	for _, decl := range f.ast.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil || n.Pos() < fd.Pos() || n.Pos() > fd.End() {
			continue
		}
		lo := a.fset.Position(fd.Doc.Pos()).Line
		hi := a.fset.Position(fd.Doc.End()).Line
		for l := lo; l <= hi; l++ {
			if r, ok := f.markers[l]; ok && r != "" {
				return true
			}
		}
	}
	return false
}

// checkBenchFile cross-checks one bench file against the static census:
// undeclared patterns, scared-construct containment, stale irregular
// declarations.
func (a *analysis) checkBenchFile(f *fileInfo) {
	benches, declared := a.census.benchesDeclaredIn(f.rel)
	bench := ""
	if len(benches) == 1 {
		bench = benches[0]
	}
	anyIrregular := false
	for p := range declared {
		if p.Irregular() {
			anyIrregular = true
		}
	}

	// A scared construct is contained when the file declares some
	// irregular site (the declaration is the audit record), the
	// construct carries an explicit marker, or a current certificate
	// proves the site safe (certified / elidable-check in
	// lint-certs.json).
	contained := func(n ast.Node) bool {
		if anyIrregular || a.markerFor(f, n) {
			return true
		}
		return a.certCovered(f.rel, a.fset.Position(n.Pos()).Line)
	}
	scared := func(n ast.Node, what string, pattern core.Pattern) {
		if contained(n) {
			return
		}
		pos := a.fset.Position(n.Pos())
		pat := ""
		if pattern != 0 {
			pat = pattern.String()
		}
		a.report(Diag{
			File: f.rel, Line: pos.Line, Col: pos.Column,
			Rule: "undeclared-scared", Bench: bench,
			Pattern: pat, Fear: core.Scared.String(),
			Msg: fmt.Sprintf("%s without an irregular DeclareSite(SngInd|RngInd|AW) in this file or a //lint:scared marker", what),
		})
	}

	ast.Inspect(f.ast, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			scared(v, "raw go statement", 0)
		case *ast.ValueSpec:
			if v.Type != nil && declConstruct(f, v.Type)&cScared != 0 {
				scared(v, fmt.Sprintf("raw %s declaration", typeName(v.Type)), core.AW)
			}
		case *ast.StructType:
			for _, field := range v.Fields.List {
				if declConstruct(f, field.Type)&cScared != 0 {
					scared(field, fmt.Sprintf("raw %s field", typeName(field.Type)), core.AW)
				}
			}
		case *ast.CallExpr:
			cc, mask, ok := classifyCall(f, v)
			if !ok {
				return true
			}
			switch {
			case mask&cScared != 0:
				what := "sync/atomic use"
				if cc.name != "" {
					what = "core." + cc.name + " call"
				}
				scared(v, what, cc.pattern)
			case cc.pattern != 0 && !declared[cc.pattern]:
				pos := a.fset.Position(v.Pos())
				a.report(Diag{
					File: f.rel, Line: pos.Line, Col: pos.Column,
					Rule: "undeclared-pattern", Bench: bench,
					Pattern: cc.pattern.String(), Fear: cc.fear.String(),
					Msg: fmt.Sprintf("core.%s is a %s-pattern site but this file declares no %s DeclareSite",
						cc.name, cc.pattern, cc.pattern),
				})
			}
		}
		return true
	})

	a.checkStale(f, declared)
}

// typeName renders a type expression for a diagnostic.
func typeName(t ast.Expr) string {
	switch v := t.(type) {
	case *ast.StarExpr:
		return "*" + typeName(v.X)
	case *ast.SelectorExpr:
		if id, ok := v.X.(*ast.Ident); ok {
			return id.Name + "." + v.Sel.Name
		}
	case *ast.Ident:
		return v.Name
	}
	return "sync"
}

// staleEvidence maps each irregular pattern to the construct classes
// that justify declaring it. Regular patterns (RO/Stride/Block/D&C) are
// not checked for staleness: their absence is not statically decidable
// (a Stride declaration may describe a loop the census classifies under
// a different primitive).
var staleEvidence = map[core.Pattern]construct{
	core.SngInd: cSngInd | cUncheckedSng | cAnySync,
	core.RngInd: cRngInd | cUncheckedRng | cAnySync,
	core.AW:     cUncheckedSng | cUncheckedRng | cAnySync,
}

// checkStale flags irregular declarations with no supporting construct
// reachable from the declaring file's functions — a census entry that
// claims scary behavior the code no longer has.
func (a *analysis) checkStale(f *fileInfo, declared map[core.Pattern]bool) {
	var evidence construct
	computed := false
	for _, site := range a.census.Sites {
		if site.File != f.rel || !site.pattern.Irregular() {
			continue
		}
		if !computed {
			evidence = a.reachableMask(a.fileFuncs(f))
			computed = true
		}
		if evidence&staleEvidence[site.pattern] == 0 {
			a.report(Diag{
				File: f.rel, Line: site.Line, Col: 1,
				Rule: "stale-declaration", Bench: site.Bench,
				Pattern: site.Pattern,
				Msg: fmt.Sprintf("site %q declares %s but no %s-class construct is reachable from this file's kernels",
					site.Label, site.Pattern, site.Pattern),
			})
		}
	}
}

// checkExampleFile forbids unchecked primitives in examples: end-user
// documentation must stay on the Fearless/Comfortable surface.
func (a *analysis) checkExampleFile(f *fileInfo) {
	ast.Inspect(f.ast, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		cc, mask, ok := classifyCall(f, call)
		if !ok || mask&(cUncheckedSng|cUncheckedRng) == 0 {
			return true
		}
		pos := a.fset.Position(call.Pos())
		if a.certCovered(f.rel, pos.Line) {
			return true // proved unique/monotone: Fearless under certificate
		}
		a.report(Diag{
			File: f.rel, Line: pos.Line, Col: pos.Column,
			Rule:    "unchecked-in-example",
			Pattern: cc.pattern.String(), Fear: core.Scared.String(),
			Msg: fmt.Sprintf("core.%s is forbidden in examples; use core.%s (Comfortable) instead",
				cc.name, checkedVariant(cc.name)),
		})
		return true
	})
}

// checkedVariant names the checked primitive an unchecked call should
// use instead.
func checkedVariant(name string) string {
	switch name {
	case "IndForEachUnchecked", "ScatterAtomic32":
		return "IndForEach"
	case "IndChunksUnchecked":
		return "IndChunks"
	}
	return name
}

// checkWorkerEscape flags *core.Worker values crossing into raw
// goroutines. A Worker is bound to the structured fork/join tree; using
// it from an unstructured goroutine breaks the D&C discipline the
// census relies on.
func (a *analysis) checkWorkerEscape(f *fileInfo, fd *ast.FuncDecl) {
	workers := workerIdents(f, fd)
	if len(workers) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		escaped := ""
		ast.Inspect(g.Call, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && workers[id.Name] {
				escaped = id.Name
				return false
			}
			return true
		})
		if escaped == "" || a.markerFor(f, g) {
			return true
		}
		pos := a.fset.Position(g.Pos())
		a.report(Diag{
			File: f.rel, Line: pos.Line, Col: pos.Column,
			Rule: "worker-escape", Fear: core.Scared.String(),
			Msg: fmt.Sprintf("worker %q escapes into a raw goroutine; workers are bound to the structured join tree (use w.Join or core.Run)",
				escaped),
		})
		return true
	})
}

// workerIdents gathers the identifiers of *core.Worker / *sched.Worker
// values bound in fd: the receiver, parameters, and parameters of any
// nested closure (p.Do(func(w *core.Worker) { ... }) binds w).
func workerIdents(f *fileInfo, fd *ast.FuncDecl) map[string]bool {
	workers := map[string]bool{}
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if !isWorkerType(f, field.Type) {
				continue
			}
			for _, name := range field.Names {
				workers[name.Name] = true
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			collectLit(f, lit, workers)
		}
		return true
	})
	return workers
}

func collectLit(f *fileInfo, lit *ast.FuncLit, workers map[string]bool) {
	if lit.Type.Params == nil {
		return
	}
	for _, field := range lit.Type.Params.List {
		if !isWorkerType(f, field.Type) {
			continue
		}
		for _, name := range field.Names {
			workers[name.Name] = true
		}
	}
}

// isWorkerType recognizes core.Worker / sched.Worker (optionally
// pointer) type expressions.
func isWorkerType(f *fileInfo, t ast.Expr) bool {
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	sel, ok := t.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Worker" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	path, imported := f.imports[id.Name]
	return imported && (isPath(path, corePath) || isPath(path, schedPath))
}
