package lint

// The arena lifetime certification pass (rpblint -lifetimes): the
// missing borrow-checker leg. The races pass proves that parallel
// writes are exclusive; this pass proves that the memory being written
// *lives long enough* — that no slice checked out of an arena outlives
// the Mark/Release scope, region, or worker that owns it.
//
// Every value originating from arena.Alloc / AllocUninit / AcquireBox
// (and every slice re-derived from one by slicing, aliasing, RowInto-
// style out-params, or struct field stores) is tracked through an
// intraprocedural dataflow (regionflow.go) with memoized
// interprocedural escape summaries (escapesummary.go), and each
// checkout's fate is classified:
//
//	released-in-scope  a covering Mark is Released (LIFO, on all
//	                   paths — a deferred Release covers panic edges)
//	                   or the box goes back through ReleaseBox, before
//	                   the checkout can be observed again
//	region-confined    the checkout never escapes the For/Join/
//	                   RunRange region that owns the worker; the
//	                   arena owner's Reset reclaims it
//	worker-confined    the checkout escapes its region but only into
//	                   per-worker state that is cleared before reuse
//	                   (a box field nil'ed before ReleaseBox, or a
//	                   Standalone arena owned by one worker goroutine)
//	refused            the analysis cannot prove confinement: the
//	                   checkout is returned, sent on a channel, stored
//	                   into a captured/global location, crosses a
//	                   goroutine or region boundary, or is used after
//	                   a dominating Release/Reset — each with a
//	                   proof-chain reason. //lint:scared audits one.
//
// A subrule covers AllocUninit's extra obligation: the returned memory
// holds garbage from earlier generations, so a read not dominated by a
// fill (an element write, or handing the slice/its holder to a callee)
// is refused as a read of uninitialized memory.
//
// Like -certify and -races, the result is lint-lifetimes.json,
// staleness-gated in CI; unexplained refusals in lifeEnforcedDirs fail
// the gate. The pass is lexical and refusal-biased: statement order
// approximates dominance, calls into the substrate packages are
// non-retaining by documented contract, in-module helpers get real
// escape summaries, and dynamic callees refuse unless an out-param
// contract (lifeMethodContracts) covers them.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"sort"
	"strings"
)

// Checkout fate classes.
const (
	LifeReleased       = "released-in-scope"
	LifeRegionConfined = "region-confined"
	LifeWorkerConfined = "worker-confined"
	LifeRefused        = "refused"
)

// lifeEnforcedDirs are the directories where an unexplained refusal
// (no //lint:scared marker) fails the lifetimes gate. Unlike the races
// pass, internal/bench is enforced too: the kernels' checkout
// discipline is exactly what the census is about.
var lifeEnforcedDirs = []string{
	"internal/core", "internal/sched", "internal/mq",
	"internal/graph", "internal/arena", "internal/bench",
	"internal/suffix",
}

func lifeEnforced(rel string) bool {
	for _, d := range lifeEnforcedDirs {
		if strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// LifeSite is one classified arena checkout (or a Release-site
// violation, Origin "Release").
type LifeSite struct {
	File   string `json:"file"` // relative to the module root
	Line   int    `json:"line"`
	Col    int    `json:"col"`
	Func   string `json:"func"`   // enclosing function
	Origin string `json:"origin"` // Alloc | AllocUninit | AcquireBox | Release
	Expr   string `json:"expr"`   // the bound carrier ("_" when unbound)
	Class  string `json:"class"`
	Detail string `json:"detail,omitempty"` // proof evidence
	Reason string `json:"reason,omitempty"` // refusal proof chain
	Marker bool   `json:"marker,omitempty"` // refusal audited by //lint:scared
}

func (s LifeSite) String() string {
	head := fmt.Sprintf("%s:%d:%d: %s %s in %s: %s",
		s.File, s.Line, s.Col, s.Origin, s.Expr, s.Func, s.Class)
	if s.Detail != "" {
		head += " (" + s.Detail + ")"
	}
	if s.Class == LifeRefused {
		head += ": " + s.Reason
		if s.Marker {
			head += " (audited: //lint:scared)"
		}
	}
	return head
}

// LifeReport is the machine-readable census (lint-lifetimes.json).
type LifeReport struct {
	Version        int        `json:"version"`
	Module         string     `json:"module"`
	Regions        int        `json:"regions"`
	Marks          int        `json:"marks"`
	Checkouts      int        `json:"checkouts"`
	Released       int        `json:"released"`
	RegionConfined int        `json:"regionConfined"`
	WorkerConfined int        `json:"workerConfined"`
	Refused        int        `json:"refused"`
	Unexplained    int        `json:"unexplained"`
	Sites          []LifeSite `json:"sites"`
}

// Lifetimes runs the arena lifetime certification pass over the module
// under cfg.Root.
func Lifetimes(cfg Config) (*LifeReport, error) {
	a, err := newAnalysis(cfg)
	if err != nil {
		return nil, err
	}
	return a.lifetimes(), nil
}

// lifetimes runs the pass over an already-built analysis.
func (a *analysis) lifetimes() *LifeReport {
	loader := newTypeLoader(a)
	lp := &lifePass{a: a, loader: loader}
	lp.prescanBoxes()
	rep := &LifeReport{Version: 1, Module: a.mod}

	for _, pkg := range a.sortedPkgs() {
		if pkg.path == arenaPath || isPath(pkg.path, arenaPath) {
			continue // the substrate implementing the checkouts
		}
		tp := loader.check(pkg.path)
		if tp == nil || tp.tpkg == nil {
			continue
		}
		for _, f := range pkg.files {
			for _, decl := range f.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				regions := collectRegions(tp, f, fd)
				rep.Regions += len(regions)
				lw := newLifeWalk(lp, tp, f, fd, regions)
				lw.run()
				rep.Marks += lw.markCount
				rep.Sites = append(rep.Sites, lw.sites...)
			}
		}
	}

	sort.SliceStable(rep.Sites, func(i, j int) bool {
		si, sj := rep.Sites[i], rep.Sites[j]
		if si.File != sj.File {
			return si.File < sj.File
		}
		if si.Line != sj.Line {
			return si.Line < sj.Line
		}
		return si.Col < sj.Col
	})
	for i := range rep.Sites {
		s := &rep.Sites[i]
		switch s.Class {
		case LifeReleased:
			rep.Checkouts++
			rep.Released++
		case LifeRegionConfined:
			rep.Checkouts++
			rep.RegionConfined++
		case LifeWorkerConfined:
			rep.Checkouts++
			rep.WorkerConfined++
		default:
			if s.Origin != "Release" {
				rep.Checkouts++
			}
			rep.Refused++
			if !s.Marker && lifeEnforced(s.File) {
				rep.Unexplained++
			}
		}
	}
	return rep
}

// Marshal renders the report as the canonical lint-lifetimes.json bytes.
func (r *LifeReport) Marshal() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil
	}
	return append(b, '\n')
}

// String renders the per-site table and summary rpblint -lifetimes
// prints.
func (r *LifeReport) String() string {
	var sb strings.Builder
	for _, s := range r.Sites {
		sb.WriteString(s.String())
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "lifetimes: %d regions, %d marks; %d checkouts: %d released-in-scope, %d region-confined, %d worker-confined, %d refused (%d unexplained)\n",
		r.Regions, r.Marks, r.Checkouts, r.Released, r.RegionConfined, r.WorkerConfined, r.Refused, r.Unexplained)
	return sb.String()
}

// LoadLifetimes reads a lifetime-certificate file.
func LoadLifetimes(path string) (*LifeReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r LifeReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("lint: bad lifetime report %s: %w", path, err)
	}
	return &r, nil
}

// lifePass is the shared state of one -lifetimes run.
type lifePass struct {
	a      *analysis
	loader *typeLoader

	escapes memo[*types.Func, *escEffect]

	// boxTypes are the named types instantiated in arena.AcquireBox[T]
	// anywhere in the module, keyed by type name: per-worker reusable
	// state a checkout may legitimately transit through.
	boxTypes map[string]bool
	// boxCleared records "Type.field" pairs assigned nil somewhere in
	// the module — the clearing half of a box-field handoff. A checkout
	// stored into a box field of a *parameter* is worker-confined only
	// when the field is provably cleared before the box is reused.
	boxCleared map[string]bool
}

// prescanBoxes walks the whole module once, collecting the AcquireBox
// instantiation types (boxTypes) and every "x.field = nil" clear whose
// base is one of them (boxCleared). The pass needs both globally: a
// helper may store into a box field its caller clears (core.packCount
// fills packBody.counts; packWrite clears it).
func (lp *lifePass) prescanBoxes() {
	lp.boxTypes = map[string]bool{}
	lp.boxCleared = map[string]bool{}

	type clearRec struct{ base, field string }
	var clears []clearRec
	for _, pkg := range lp.a.sortedPkgs() {
		tp := lp.loader.check(pkg.path)
		if tp == nil || tp.tpkg == nil {
			continue
		}
		for _, f := range pkg.files {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.CallExpr:
					pathStr, name, isPkg := callTarget(f, v)
					if isPkg && isPath(pathStr, arenaPath) && name == "AcquireBox" {
						if tv, ok := tp.info.Types[v]; ok && tv.Type != nil {
							if name := boxTypeName(tv.Type); name != "" {
								lp.boxTypes[name] = true
							}
						}
					}
				case *ast.AssignStmt:
					if len(v.Lhs) != len(v.Rhs) {
						return true
					}
					for i, lhs := range v.Lhs {
						sel, ok := unparen(lhs).(*ast.SelectorExpr)
						if !ok || !isNilExpr(tp, v.Rhs[i]) {
							continue
						}
						if tv, ok := tp.info.Types[sel.X]; ok && tv.Type != nil {
							if name := boxTypeName(tv.Type); name != "" {
								clears = append(clears, clearRec{name, sel.Sel.Name})
							}
						}
					}
				}
				return true
			})
		}
	}
	for _, c := range clears {
		lp.boxCleared[c.base+"."+c.field] = true
	}
}

// boxTypeName names the struct type behind a (pointer to a) named
// type, dropping type arguments: *gatherBody[T] -> "gatherBody".
func boxTypeName(t types.Type) string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch v := t.(type) {
	case *types.Named:
		return v.Obj().Name()
	case *types.Alias:
		return v.Obj().Name()
	}
	return ""
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(tp *typedPkg, e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	if obj := tp.info.Uses[id]; obj != nil {
		return obj == types.Universe.Lookup("nil")
	}
	return id.Name == "nil"
}

// isArenaExpr reports whether e's type is (a pointer to) arena.Arena.
func isArenaExpr(tp *typedPkg, e ast.Expr) bool {
	tv, ok := tp.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Arena" && obj.Pkg() != nil &&
		isPath(obj.Pkg().Path(), arenaPath)
}
