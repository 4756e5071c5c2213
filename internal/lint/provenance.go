package lint

// Intraprocedural offset-provenance analysis: the proof engine behind
// the certification pass (certify.go). For one function declaration it
// tracks the local variable passed as the offsets argument of an
// IndForEach/IndChunks/Scatter/*Unchecked call and tries to prove the
// property the primitive's run-time check enforces dynamically:
// uniqueness (+bounds) for SngInd sites, monotonicity (+bounds) for
// RngInd sites.
//
// Four proof forms are recognized:
//
//	P1 packindex    offsets := core.PackIndex(w, n, keep), never written
//	                afterwards. PackIndex output is strictly increasing
//	                and unique in [0, n).
//	P2 affine-fill  offsets[i] = a*i + c (constant a != 0) written by a
//	                complete core.ForRange / sequential loop over
//	                [0, len(offsets)), no other writes. Injective.
//	P3 permutation  identity fill as in P2, subsequently mutated ONLY by
//	                permutation-preserving operations (core.Sort,
//	                core.SortBy, radix.SortPairs): the slice stays a
//	                permutation of [0, len(offsets)).
//	P4 scan         offsets := make(...) (zero), every element write
//	                before the scan stores a provably non-negative
//	                value, then exactly one core.ScanInclusive /
//	                core.ScanExclusive over offsets (or offsets[1:]),
//	                and no writes after the scan. Monotone, and bounded
//	                by the scan's returned total.
//
// The analysis is deliberately refusal-biased: any definition, alias,
// escape, or context it does not recognize refuses the site (soundness
// caveats are listed in docs/LINT.md).

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/core"
)

// certTarget describes one certifiable primitive: its Table 3 pattern,
// whether the call pays a run-time check (making a proof an
// "elidable-check" instead of a certificate), and the property the
// proof must establish.
type certTarget struct {
	pattern  core.Pattern
	checked  bool
	property string
}

var certTargets = map[string]certTarget{
	"IndForEach":          {core.SngInd, true, "unique+bounds"},
	"Scatter":             {core.SngInd, true, "unique+bounds"},
	"IndForEachUnchecked": {core.SngInd, false, "unique+bounds"},
	"IndChunks":           {core.RngInd, true, "monotone+bounds"},
	"IndChunksUnchecked":  {core.RngInd, false, "monotone+bounds"},
}

const (
	radixPath = "internal/radix"
	arenaPath = "internal/arena"
)

// ---------------------------------------------------------------------
// AST walking with an ancestor stack.

// walkWithPath visits every node under root with its ancestor chain
// (outermost first, parent last; root itself is visited with an empty
// path).
func walkWithPath(root ast.Node, visit func(n ast.Node, path []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

// ---------------------------------------------------------------------
// Execution context of a use: the loops, conditionals, and closures
// between the enclosing FuncDecl and the node.

// fillShape describes one recognized fill loop: iteration variable and
// the half-open space [lo, hi) (or a range statement's operand).
type fillShape struct {
	loopVar   types.Object
	lo, hi    ast.Expr // nil when rangeOver is set
	rangeOver ast.Expr
}

// loopCtx is one loop enclosing a node; fill is non-nil when the loop
// is a recognized fill shape.
type loopCtx struct {
	node ast.Node // *ast.ForStmt, *ast.RangeStmt, or the ForRange *ast.CallExpr
	fill *fillShape
}

func (l loopCtx) begin() token.Pos { return l.node.Pos() }
func (l loopCtx) end() token.Pos   { return l.node.End() }

// evCtx summarizes the path between the FuncDecl and a node.
type evCtx struct {
	loops   []loopCtx
	cond    bool // inside if / switch / select
	unbound bool // inside a closure not tied to a modeled call
}

func (c evCtx) straightLine() bool { return len(c.loops) == 0 && !c.cond && !c.unbound }

// innerFill returns the innermost loop's fill shape, if recognized.
func (c evCtx) innerFill() (*fillShape, loopCtx, bool) {
	if len(c.loops) == 0 {
		return nil, loopCtx{}, false
	}
	l := c.loops[len(c.loops)-1]
	return l.fill, l, l.fill != nil
}

// ctxOf computes the execution context for a node from its ancestor
// path. Closures are resolved against the modeled primitives:
// core.Run's body runs once (transparent), per-task bodies of ForRange
// and friends count as loops (ForRange's with a fill shape), anything
// else is unbound.
func (p *prover) ctxOf(path []ast.Node) evCtx {
	var c evCtx
	for i, n := range path {
		switch v := n.(type) {
		case *ast.ForStmt:
			c.loops = append(c.loops, loopCtx{node: v, fill: p.seqFill(v)})
		case *ast.RangeStmt:
			c.loops = append(c.loops, loopCtx{node: v, fill: p.rangeFill(v)})
		case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			c.cond = true
		case *ast.FuncLit:
			lc, transparent, ok := p.closureCtx(v, path[:i])
			switch {
			case ok && transparent:
				// core.Run body: executes once, in place.
			case ok:
				c.loops = append(c.loops, lc)
			default:
				c.unbound = true
			}
		}
	}
	return c
}

// closureCtx resolves a FuncLit against its parent call. transparent
// reports a run-once body (core.Run); otherwise the returned loopCtx
// models a per-task body.
func (p *prover) closureCtx(lit *ast.FuncLit, path []ast.Node) (lc loopCtx, transparent, ok bool) {
	if len(path) == 0 {
		return loopCtx{}, false, false
	}
	call, isCall := path[len(path)-1].(*ast.CallExpr)
	if !isCall {
		return loopCtx{}, false, false
	}
	argIdx := -1
	for i, a := range call.Args {
		if a == lit {
			argIdx = i
		}
	}
	if argIdx < 0 {
		return loopCtx{}, false, false
	}
	pathStr, name, isPkg := callTarget(p.f, call)
	if !isPkg || !isPath(pathStr, corePath) {
		return loopCtx{}, false, false
	}
	if name == "Run" && argIdx == 0 {
		return loopCtx{}, true, true
	}
	for _, bodyIdx := range parallelBodyArg[name] {
		if bodyIdx != argIdx {
			continue
		}
		lc := loopCtx{node: call}
		if name == "ForRange" && len(call.Args) == 5 {
			if obj := p.firstParamObj(lit); obj != nil {
				lc.fill = &fillShape{loopVar: obj, lo: call.Args[1], hi: call.Args[2]}
			}
		}
		return lc, false, true
	}
	return loopCtx{}, false, false
}

// firstParamObj returns the object of a closure's first parameter.
func (p *prover) firstParamObj(lit *ast.FuncLit) types.Object {
	if lit.Type.Params == nil || len(lit.Type.Params.List) == 0 {
		return nil
	}
	names := lit.Type.Params.List[0].Names
	if len(names) == 0 {
		return nil
	}
	return p.tp.info.Defs[names[0]]
}

// seqFill recognizes `for i := lo; i < hi; i++`.
func (p *prover) seqFill(fs *ast.ForStmt) *fillShape {
	init, ok := fs.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return nil
	}
	id, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	obj := p.tp.info.Defs[id]
	if obj == nil {
		return nil
	}
	cond, ok := fs.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.LSS {
		return nil
	}
	if cid, isID := unparen(cond.X).(*ast.Ident); !isID || p.tp.objOf(cid) != obj {
		return nil
	}
	post, ok := fs.Post.(*ast.IncDecStmt)
	if !ok || post.Tok != token.INC {
		return nil
	}
	if pid, isID := unparen(post.X).(*ast.Ident); !isID || p.tp.objOf(pid) != obj {
		return nil
	}
	return &fillShape{loopVar: obj, lo: init.Rhs[0], hi: cond.Y}
}

// rangeFill recognizes `for i := range x`.
func (p *prover) rangeFill(rs *ast.RangeStmt) *fillShape {
	if rs.Tok != token.DEFINE || rs.Key == nil {
		return nil
	}
	id, ok := rs.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := p.tp.info.Defs[id]
	if obj == nil {
		return nil
	}
	return &fillShape{loopVar: obj, rangeOver: rs.X}
}

// ---------------------------------------------------------------------
// Per-object facts and uses.

type defKind int

const (
	defNone   defKind = iota
	defSimple         // single `x := rhs` or `var x [= rhs]`
	defOpaque         // tuple define, range variable, redefinition
)

// objFacts is the per-variable summary the stability and non-negativity
// checks consult.
type objFacts struct {
	kind      defKind
	def       ast.Expr // defining rhs; nil for a zero-value declaration
	defPos    token.Pos
	isParam   bool
	assigns   int // header/scalar-level reassignments beyond the def
	addrTaken bool
	writes    []objWrite // scalar assignment rhs list (for non-negativity)
}

type objWrite struct {
	op  token.Token // ASSIGN, ADD_ASSIGN, INC, ...
	rhs ast.Expr    // nil for ++/--
}

type useKind int

const (
	useDef useKind = iota
	useAssign
	useElemWrite
	useScanArg
	usePermuteArg
	useOffsetsArg
	useRead
	useOther
)

// use is one classified occurrence of a tracked variable.
type use struct {
	kind     useKind
	pos      token.Pos
	ctx      evCtx
	rhs      ast.Expr    // def / assign / elem-write value
	op       token.Token // elem-write operator (ASSIGN, ADD_ASSIGN, INC, DEC)
	index    ast.Expr    // elem-write index
	from1    bool        // scan over x[1:]
	callName string      // scan / permute primitive name
	scanLHS  types.Object
	resIdx   int        // tuple define: which result this variable binds
	tupleLhs []ast.Expr // tuple define: the full Lhs list (sibling results)
	why      string     // useOther reason
}

// ---------------------------------------------------------------------
// The prover: one (package, file, function) analysis scope.

type prover struct {
	a      *analysis
	tp     *typedPkg
	f      *fileInfo
	fd     *ast.FuncDecl
	loader *typeLoader // for interprocedural summaries (may be nil)

	facts map[types.Object]*objFacts
	uses  map[types.Object][]*use

	nn     map[types.Object]bool // non-negativity fixpoint (lazy)
	nnDone bool
}

func newProver(a *analysis, tp *typedPkg, f *fileInfo, fd *ast.FuncDecl, loader *typeLoader) *prover {
	p := &prover{a: a, tp: tp, f: f, fd: fd, loader: loader}
	p.collect()
	return p
}

func (p *prover) pos(pos token.Pos) token.Position { return p.a.fset.Position(pos) }
func (p *prover) line(pos token.Pos) int           { return p.pos(pos).Line }

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// fact returns (allocating) the facts record for obj.
func (p *prover) fact(obj types.Object) *objFacts {
	f := p.facts[obj]
	if f == nil {
		f = &objFacts{}
		p.facts[obj] = f
	}
	return f
}

// collect walks the function once, building facts and classified uses
// for every local variable.
func (p *prover) collect() {
	p.facts = map[types.Object]*objFacts{}
	p.uses = map[types.Object][]*use{}

	addParams := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := p.tp.info.Defs[name]; obj != nil {
					f := p.fact(obj)
					f.isParam = true
					f.kind = defOpaque
				}
			}
		}
	}
	addParams(p.fd.Recv)
	addParams(p.fd.Type.Params)
	addParams(p.fd.Type.Results)

	walkWithPath(p.fd, func(n ast.Node, path []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		obj := p.tp.objOf(id)
		if obj == nil {
			return
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return
		}
		u := p.classifyUse(id, obj, path)
		if u == nil {
			return
		}
		u.pos = id.Pos()
		u.ctx = p.ctxOf(path)
		p.uses[obj] = append(p.uses[obj], u)
		p.updateFacts(obj, u)
	})
}

// updateFacts folds one use into the object's summary.
func (p *prover) updateFacts(obj types.Object, u *use) {
	f := p.fact(obj)
	switch u.kind {
	case useDef:
		if f.kind == defNone {
			f.kind = defSimple
			f.def = u.rhs
			f.defPos = u.pos
		} else {
			f.kind = defOpaque
		}
		if u.op == token.ILLEGAL {
			f.kind = defOpaque // tuple / range definition
		}
	case useAssign:
		f.assigns++
		f.writes = append(f.writes, objWrite{op: u.op, rhs: u.rhs})
	case useOther:
		if u.why == "address taken" {
			f.addrTaken = true
		}
	}
}

// isContainer reports whether a variable is a slice or array (the types
// whose element writes and aliasing matter).
func isContainer(obj types.Object) bool {
	switch obj.Type().Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

// classifyUse categorizes one identifier occurrence. Scalars only need
// definition/assignment tracking (reads are always benign); containers
// get the strict treatment — any context not in the model poisons the
// variable.
func (p *prover) classifyUse(id *ast.Ident, obj types.Object, path []ast.Node) *use {
	if len(path) == 0 {
		return nil
	}
	parent := path[len(path)-1]
	container := isContainer(obj)

	switch par := parent.(type) {
	case *ast.AssignStmt:
		for i, lhs := range par.Lhs {
			if lhs != id {
				continue
			}
			if par.Tok == token.DEFINE && p.tp.info.Defs[id] != nil {
				u := &use{kind: useDef, op: token.ILLEGAL, resIdx: i}
				switch {
				case len(par.Lhs) == len(par.Rhs):
					u.rhs = par.Rhs[i]
					u.op = token.DEFINE
				case len(par.Rhs) == 1:
					if call, isCall := unparen(par.Rhs[0]).(*ast.CallExpr); isCall {
						// x, y := f(...): each variable binds one result
						// of a single call — still a single definition.
						u.rhs = call
						u.op = token.DEFINE
						u.tupleLhs = par.Lhs
					}
				}
				return u
			}
			u := &use{kind: useAssign, op: par.Tok}
			if len(par.Lhs) == len(par.Rhs) {
				u.rhs = par.Rhs[i]
			} else {
				u.op = token.ILLEGAL
			}
			return u
		}
		if container {
			for _, rhs := range par.Rhs {
				if unparen(rhs) == id {
					return &use{kind: useOther, why: "aliased through a second slice header"}
				}
			}
		}
		return &use{kind: useRead}
	case *ast.ValueSpec:
		for i, nm := range par.Names {
			if nm != id {
				continue
			}
			u := &use{kind: useDef, op: token.DEFINE}
			switch {
			case len(par.Values) == 0:
				// zero-value declaration: rhs nil.
			case len(par.Values) == len(par.Names):
				u.rhs = par.Values[i]
			default:
				u.op = token.ILLEGAL
			}
			return u
		}
		if container {
			for _, v := range par.Values {
				if unparen(v) == id {
					return &use{kind: useOther, why: "aliased through a second slice header"}
				}
			}
		}
		return &use{kind: useRead}
	case *ast.RangeStmt:
		if par.Key == id || par.Value == id {
			if par.Tok == token.DEFINE {
				return &use{kind: useDef, op: token.ILLEGAL}
			}
			return &use{kind: useAssign, op: token.ILLEGAL}
		}
		return &use{kind: useRead} // range operand: elements are copied
	case *ast.UnaryExpr:
		if par.Op == token.AND {
			return &use{kind: useOther, why: "address taken"}
		}
		return &use{kind: useRead}
	case *ast.IncDecStmt:
		u := &use{kind: useAssign, op: token.INC}
		if par.Tok == token.DEC {
			u.op = token.DEC
		}
		return u
	}

	if !container {
		return &use{kind: useRead}
	}
	return p.classifyContainerUse(id, parent, path)
}

// classifyContainerUse handles the container-specific contexts: element
// writes, modeled calls, and the aliasing escapes.
func (p *prover) classifyContainerUse(id *ast.Ident, parent ast.Node, path []ast.Node) *use {
	switch par := parent.(type) {
	case *ast.IndexExpr:
		if par.X != id {
			return &use{kind: useRead} // used as an index: a read
		}
		if len(path) < 2 {
			return &use{kind: useRead}
		}
		switch gp := path[len(path)-2].(type) {
		case *ast.AssignStmt:
			for i, lhs := range gp.Lhs {
				if lhs != par {
					continue
				}
				u := &use{kind: useElemWrite, op: gp.Tok, index: par.Index}
				if len(gp.Lhs) == len(gp.Rhs) {
					u.rhs = gp.Rhs[i]
				} else {
					return &use{kind: useOther, why: "element assigned from a multi-value expression"}
				}
				return u
			}
			return &use{kind: useRead}
		case *ast.IncDecStmt:
			if gp.X == par {
				u := &use{kind: useElemWrite, op: token.INC, index: par.Index}
				if gp.Tok == token.DEC {
					u.op = token.DEC
				}
				return u
			}
			return &use{kind: useRead}
		case *ast.UnaryExpr:
			if gp.Op == token.AND {
				return &use{kind: useOther, why: "address of an element taken"}
			}
			return &use{kind: useRead}
		}
		return &use{kind: useRead}
	case *ast.CallExpr:
		return p.classifyCallUse(id, id, false, par, path)
	case *ast.SliceExpr:
		if par.X == id && isFrom1(par) && len(path) >= 2 {
			if call, ok := path[len(path)-2].(*ast.CallExpr); ok {
				return p.classifyCallUse(par, id, true, call, path[:len(path)-1])
			}
		}
		return &use{kind: useOther, why: "re-sliced (aliases the backing array)"}
	case *ast.BinaryExpr:
		return &use{kind: useRead} // x == nil and friends
	case *ast.ReturnStmt:
		return &use{kind: useRead} // caller mutation happens after fd returns
	case *ast.AssignStmt, *ast.ValueSpec, *ast.RangeStmt, *ast.UnaryExpr, *ast.IncDecStmt:
		return &use{kind: useRead} // handled above; unreachable
	}
	return &use{kind: useOther, why: "used in an unmodeled context"}
}

// isFrom1 matches the two-index slice x[1:].
func isFrom1(se *ast.SliceExpr) bool {
	if se.Slice3 || se.High != nil || se.Max != nil || se.Low == nil {
		return false
	}
	lit, ok := unparen(se.Low).(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "1"
}

// classifyCallUse resolves a container appearing as a call argument
// against the modeled primitives.
func (p *prover) classifyCallUse(argNode ast.Expr, id *ast.Ident, from1 bool, call *ast.CallExpr, path []ast.Node) *use {
	if name, ok := p.builtinName(call); ok {
		if name == "len" || name == "cap" {
			return &use{kind: useRead}
		}
		if name == "copy" && len(call.Args) == 2 && call.Args[1] == argNode {
			return &use{kind: useRead} // copy source: read-only
		}
		return &use{kind: useOther, why: "passed to builtin " + name}
	}
	if tv, ok := p.tp.info.Types[call.Fun]; ok && tv.IsType() {
		return &use{kind: useOther, why: "converted to another type"}
	}
	argIdx := -1
	for i, a := range call.Args {
		if a == argNode {
			argIdx = i
		}
	}
	pathStr, name, isPkg := callTarget(p.f, call)
	if !isPkg || argIdx < 0 {
		return &use{kind: useOther, why: "passed to an unmodeled call"}
	}
	switch {
	case isPath(pathStr, corePath):
		switch {
		case (name == "ScanInclusive" || name == "ScanExclusive") && argIdx == 1:
			return &use{kind: useScanArg, from1: from1, callName: name,
				scanLHS: p.scanResultObj(call, path)}
		case (name == "Sort" || name == "SortBy") && argIdx == 1 && !from1:
			return &use{kind: usePermuteArg, callName: name}
		case name == "CopyInto" && argIdx == 2:
			return &use{kind: useRead} // CopyInto source: read-only by contract
		}
		if _, isTarget := certTargets[name]; isTarget && !from1 {
			if argIdx == 2 {
				return &use{kind: useOffsetsArg, callName: name}
			}
			if argIdx == 1 {
				return &use{kind: useOther, why: "written through core." + name + " (it is the scatter target)"}
			}
		}
		return &use{kind: useOther, why: "passed to core." + name}
	case isPath(pathStr, radixPath) && name == "SortPairs" && (argIdx == 1 || argIdx == 2) && !from1:
		return &use{kind: usePermuteArg, callName: "SortPairs"}
	}
	return &use{kind: useOther, why: fmt.Sprintf("passed to %s.%s", pathStr, name)}
}

// builtinName reports a call to a builtin (len, cap, copy, ...).
func (p *prover) builtinName(call *ast.CallExpr) (string, bool) {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if b, isB := p.tp.objOf(id).(*types.Builtin); isB {
		return b.Name(), true
	}
	return "", false
}

// scanResultObj finds the variable a scan call's returned total is
// bound to: `total := core.ScanInclusive(...)`.
func (p *prover) scanResultObj(call *ast.CallExpr, path []ast.Node) types.Object {
	for i := len(path) - 1; i >= 0; i-- {
		assign, ok := path[i].(*ast.AssignStmt)
		if !ok {
			continue
		}
		if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 || assign.Rhs[0] != call {
			return nil
		}
		id, ok := assign.Lhs[0].(*ast.Ident)
		if !ok {
			return nil
		}
		return p.tp.objOf(id)
	}
	return nil
}

// ---------------------------------------------------------------------
// Canonical expressions and structural equality.

// canon normalizes an expression for comparison: parentheses and
// integer→integer conversions are stripped, and len(x) of a variable
// whose single definition is make(..., L) with a stable header is
// replaced by L. (Stripping conversions assumes values fit the
// narrower type — a documented caveat; offsets that overflow int32
// fail the run-time check too.)
func (p *prover) canon(e ast.Expr) ast.Expr {
	for depth := 0; depth < 8; depth++ {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
			continue
		case *ast.CallExpr:
			if len(v.Args) == 1 {
				if tv, ok := p.tp.info.Types[v.Fun]; ok && tv.IsType() &&
					isIntType(tv.Type) && isIntType(p.exprType(v.Args[0])) {
					e = v.Args[0]
					continue
				}
			}
			if name, ok := p.builtinName(v); ok && name == "len" && len(v.Args) == 1 {
				if id, isID := unparen(v.Args[0]).(*ast.Ident); isID {
					if L := p.makeLen(p.tp.objOf(id)); L != nil {
						e = L
						continue
					}
				}
			}
		}
		return e
	}
	return e
}

func isIntType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsUntyped) != 0
}

func (p *prover) exprType(e ast.Expr) types.Type {
	if tv, ok := p.tp.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// allocLen recognizes the make-equivalent allocation forms and returns
// the length expression: the builtin make(T, L), and the per-worker
// scratch checkouts arena.Alloc[T](a, L) (zeroed, exactly like make)
// and arena.AllocUninit[T](a, L) (length L, but contents are garbage
// from earlier generations — zeroed=false, so it cannot seed the
// zero-init side of the scan proof).
func (p *prover) allocLen(call *ast.CallExpr) (length ast.Expr, zeroed, ok bool) {
	if name, isB := p.builtinName(call); isB {
		if name == "make" && len(call.Args) >= 2 {
			return call.Args[1], true, true
		}
		return nil, false, false
	}
	pathStr, name, isPkg := callTarget(p.f, call)
	if !isPkg || !isPath(pathStr, arenaPath) || len(call.Args) != 2 {
		return nil, false, false
	}
	switch name {
	case "Alloc":
		return call.Args[1], true, true
	case "AllocUninit":
		return call.Args[1], false, true
	}
	return nil, false, false
}

// makeLen returns the length expression of obj's defining allocation
// (make or an arena checkout), or nil when obj is not a stable
// allocation-defined slice.
func (p *prover) makeLen(obj types.Object) ast.Expr {
	if obj == nil {
		return nil
	}
	f := p.facts[obj]
	if f == nil || f.kind != defSimple || f.assigns > 0 || f.addrTaken || f.def == nil {
		return nil
	}
	call, ok := unparen(f.def).(*ast.CallExpr)
	if !ok {
		return nil
	}
	if L, _, isAlloc := p.allocLen(call); isAlloc {
		return L
	}
	return nil
}

// constVal returns an expression's compile-time constant value.
func (p *prover) constVal(e ast.Expr) (constant.Value, bool) {
	if tv, ok := p.tp.info.Types[e]; ok && tv.Value != nil {
		return tv.Value, true
	}
	return nil, false
}

// constInt evaluates an integer constant expression.
func (p *prover) constInt(e ast.Expr) (int64, bool) {
	v, ok := p.constVal(e)
	if !ok {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(v))
}

// stableObj reports whether a variable provably holds one value for the
// whole function: a single definition (or parameter), never reassigned,
// address never taken.
func (p *prover) stableObj(obj types.Object) bool {
	f := p.facts[obj]
	if f == nil {
		return false
	}
	if f.addrTaken || f.assigns > 0 {
		return false
	}
	return f.kind == defSimple || f.isParam
}

// exprEq is canonical structural equality: constants compare by value,
// identifiers by object (which must be stable), composites structurally.
func (p *prover) exprEq(x, y ast.Expr) bool {
	x, y = p.canon(x), p.canon(y)
	cx, okx := p.constVal(x)
	cy, oky := p.constVal(y)
	if okx || oky {
		return okx && oky && constant.Compare(constant.ToInt(cx), token.EQL, constant.ToInt(cy))
	}
	switch xv := x.(type) {
	case *ast.Ident:
		yv, ok := y.(*ast.Ident)
		if !ok {
			return false
		}
		ox, oy := p.tp.objOf(xv), p.tp.objOf(yv)
		return ox != nil && ox == oy && p.stableObj(ox)
	case *ast.BinaryExpr:
		yv, ok := y.(*ast.BinaryExpr)
		return ok && xv.Op == yv.Op && p.exprEq(xv.X, yv.X) && p.exprEq(xv.Y, yv.Y)
	case *ast.CallExpr:
		yv, ok := y.(*ast.CallExpr)
		if !ok || len(xv.Args) != 1 || len(yv.Args) != 1 {
			return false
		}
		nx, okx := p.builtinName(xv)
		ny, oky := p.builtinName(yv)
		return okx && oky && nx == ny && p.exprEq(xv.Args[0], yv.Args[0])
	}
	return false
}

// ---------------------------------------------------------------------
// Affine forms a*i + c.

// affineForm is the result of parsing an expression as a*i + c over one
// loop variable. When reverse is set the expression is B-1-i for the
// fill bound B (constant c unavailable).
type affineForm struct {
	a, c    int64
	hasVar  bool
	reverse bool
}

// parseAffine parses e as a*i + c with constant a and c over loopVar.
func (p *prover) parseAffine(e ast.Expr, loopVar types.Object) (affineForm, bool) {
	e = p.canon(e)
	if v, ok := p.constInt(e); ok {
		return affineForm{a: 0, c: v}, true
	}
	switch v := e.(type) {
	case *ast.Ident:
		if p.tp.objOf(v) == loopVar {
			return affineForm{a: 1, c: 0, hasVar: true}, true
		}
	case *ast.BinaryExpr:
		l, lok := p.parseAffine(v.X, loopVar)
		r, rok := p.parseAffine(v.Y, loopVar)
		if !lok || !rok || l.reverse || r.reverse {
			return affineForm{}, false
		}
		switch v.Op {
		case token.ADD:
			return affineForm{a: l.a + r.a, c: l.c + r.c, hasVar: l.hasVar || r.hasVar}, true
		case token.SUB:
			return affineForm{a: l.a - r.a, c: l.c - r.c, hasVar: l.hasVar || r.hasVar}, true
		case token.MUL:
			if l.a == 0 {
				return affineForm{a: l.c * r.a, c: l.c * r.c, hasVar: r.hasVar}, true
			}
			if r.a == 0 {
				return affineForm{a: l.a * r.c, c: l.c * r.c, hasVar: l.hasVar}, true
			}
		}
	}
	return affineForm{}, false
}

// parseReverse matches the descending identity B-1-i (or (B-1)-i) for a
// fill over [0, B): a permutation of [0, B) like the identity.
func (p *prover) parseReverse(e ast.Expr, loopVar types.Object, bound ast.Expr) bool {
	be, ok := p.canon(e).(*ast.BinaryExpr)
	if !ok || be.Op != token.SUB {
		return false
	}
	id, ok := unparen(be.Y).(*ast.Ident)
	if !ok || p.tp.objOf(id) != loopVar {
		return false
	}
	lhs, ok := p.canon(be.X).(*ast.BinaryExpr)
	if ok && lhs.Op == token.SUB {
		if one, isC := p.constInt(lhs.Y); isC && one == 1 && p.exprEq(lhs.X, bound) {
			return true
		}
	}
	if cv, isC := p.constInt(be.X); isC {
		if bv, bIsC := p.constInt(bound); bIsC && cv == bv-1 {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Non-negativity lattice (greatest fixpoint, flow-insensitive).

// ensureNN computes, once per function, the set of local integer
// variables and zero-initialized integer containers whose every written
// value is provably non-negative. The fixpoint starts from "all
// candidates non-negative" and removes any variable with a write the
// assumption set cannot justify; since every remaining write's sources
// are themselves in the set, induction over execution steps makes the
// result sound.
func (p *prover) ensureNN() {
	if p.nnDone {
		return
	}
	p.nnDone = true
	p.nn = map[types.Object]bool{}
	deps := map[types.Object][]ast.Expr{}

	for obj, f := range p.facts {
		if f.addrTaken || f.isParam || f.kind != defSimple {
			continue
		}
		if isContainer(obj) {
			if !isIntElem(obj.Type()) || f.assigns > 0 {
				continue
			}
			if !p.zeroInitContainer(f) {
				continue
			}
			ok := true
			var d []ast.Expr
			for _, u := range p.uses[obj] {
				switch u.kind {
				case useDef, useRead, useScanArg, usePermuteArg, useOffsetsArg:
				case useElemWrite:
					switch u.op {
					case token.ASSIGN, token.ADD_ASSIGN, token.MUL_ASSIGN:
						d = append(d, u.rhs)
					case token.INC:
					default:
						ok = false
					}
				default:
					ok = false
				}
			}
			if ok {
				p.nn[obj] = true
				deps[obj] = d
			}
			continue
		}
		if !isIntType(obj.Type()) {
			continue
		}
		ok := true
		var d []ast.Expr
		if f.def != nil {
			d = append(d, f.def)
		}
		for _, w := range f.writes {
			switch w.op {
			case token.ASSIGN, token.ADD_ASSIGN, token.MUL_ASSIGN:
				d = append(d, w.rhs)
			case token.INC:
			default:
				ok = false
			}
		}
		if ok {
			p.nn[obj] = true
			deps[obj] = d
		}
	}

	for changed := true; changed; {
		changed = false
		for obj := range p.nn {
			for _, d := range deps[obj] {
				if d == nil || !p.nnExpr(d) {
					delete(p.nn, obj)
					changed = true
					break
				}
			}
		}
	}
}

// zeroInitContainer reports a definition with all-zero initial
// contents: make(...), arena.Alloc (which clears its checkout), or a
// var declaration with no value. arena.AllocUninit fails here — its
// contents are garbage from earlier arena generations.
func (p *prover) zeroInitContainer(f *objFacts) bool {
	if f.def == nil {
		return true // var x [N]T / var x []T
	}
	call, ok := unparen(f.def).(*ast.CallExpr)
	if !ok {
		return false
	}
	_, zeroed, isAlloc := p.allocLen(call)
	return isAlloc && zeroed
}

func isIntElem(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return isIntType(u.Elem())
	case *types.Array:
		return isIntType(u.Elem())
	}
	return false
}

// nnExpr proves an expression non-negative under the current
// assumption set.
func (p *prover) nnExpr(e ast.Expr) bool {
	e = p.canon(e)
	if v, ok := p.constVal(e); ok {
		return constant.Sign(constant.ToInt(v)) >= 0
	}
	if isUnsignedInt(p.exprType(e)) {
		return true // unsigned values cannot be negative
	}
	switch v := e.(type) {
	case *ast.Ident:
		obj := p.tp.objOf(v)
		return obj != nil && p.nn[obj]
	case *ast.IndexExpr:
		id, ok := unparen(v.X).(*ast.Ident)
		if !ok {
			return false
		}
		obj := p.tp.objOf(id)
		return obj != nil && p.nn[obj]
	case *ast.BinaryExpr:
		switch v.Op {
		case token.ADD, token.MUL, token.QUO, token.REM, token.AND, token.SHR, token.OR:
			return p.nnExpr(v.X) && p.nnExpr(v.Y)
		}
	case *ast.UnaryExpr:
		if v.Op == token.ADD {
			return p.nnExpr(v.X)
		}
	case *ast.CallExpr:
		if name, ok := p.builtinName(v); ok && (name == "len" || name == "cap") {
			return true
		}
		if pathStr, name, ok := callTarget(p.f, v); ok && isPath(pathStr, corePath) &&
			(name == "ScanInclusive" || name == "ScanExclusive") && len(v.Args) == 2 {
			arg := unparen(v.Args[1])
			if se, isSE := arg.(*ast.SliceExpr); isSE {
				arg = unparen(se.X)
			}
			if id, isID := arg.(*ast.Ident); isID {
				obj := p.tp.objOf(id)
				return obj != nil && p.nn[obj]
			}
			return false
		}
		// An in-module helper whose non-negativity summary proves
		// every return value >= 0 regardless of its arguments
		// (nnsummary.go) — the hook that lets a prefix sum over
		// `sizes[i] = encRowSize(...)` stay monotone without inlining
		// the size computation.
		if p.loader != nil {
			if fn, _, _ := p.tp.calleeOf(v, nil); fn != nil && p.loader.nnSummaryFor(fn) {
				return true
			}
		}
	}
	return false
}

// isUnsignedInt reports a type whose every value is non-negative by
// construction.
func isUnsignedInt(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsUnsigned != 0
}

// ---------------------------------------------------------------------
// Length denotations: "len(out)" facts that survive canonicalization.

// lenDenot denotes a slice length: a concrete expression, symbolically
// len(lenOf) for a variable with no make definition (a parameter), or a
// bare constant (hasC) produced by a function summary whose bound has
// no expression in the caller's file.
type lenDenot struct {
	expr  ast.Expr
	lenOf types.Object
	cval  int64
	hasC  bool
}

// denotEq compares two length denotations canonically.
func (p *prover) denotEq(a, b lenDenot) bool {
	if a.hasC || b.hasC {
		av, aok := p.denotConst(a)
		bv, bok := p.denotConst(b)
		return aok && bok && av == bv
	}
	if a.expr != nil && b.expr != nil {
		return p.exprEq(a.expr, b.expr)
	}
	if a.expr == nil && b.expr == nil {
		return a.lenOf != nil && a.lenOf == b.lenOf && p.stableObj(a.lenOf)
	}
	e, o := a.expr, b.lenOf
	if e == nil {
		e, o = b.expr, a.lenOf
	}
	if o == nil {
		return false
	}
	if M := p.makeLen(o); M != nil {
		return p.exprEq(e, M)
	}
	if call, ok := p.canon(e).(*ast.CallExpr); ok && len(call.Args) == 1 {
		if nm, isB := p.builtinName(call); isB && nm == "len" {
			if id, isID := unparen(call.Args[0]).(*ast.Ident); isID {
				return p.tp.objOf(id) == o && p.stableObj(o)
			}
		}
	}
	return false
}

// denotConst evaluates a length denotation to a constant.
func (p *prover) denotConst(d lenDenot) (int64, bool) {
	if d.hasC {
		return d.cval, true
	}
	e := d.expr
	if e == nil {
		e = p.makeLen(d.lenOf)
	}
	if e == nil {
		return 0, false
	}
	return p.constInt(p.canon(e))
}

// ---------------------------------------------------------------------
// The proofs.

// targetSite is one IndForEach/IndChunks/Scatter/*Unchecked call under
// certification.
type targetSite struct {
	call *ast.CallExpr
	name string
	tgt  certTarget
	ctx  evCtx
	pos  token.Pos
}

// provePoint is the program point at which a provenance proof must
// hold: a real certification site (where the bound is checked against
// the call's target slice) or a helper's return statement (where the
// bound is captured for a function summary instead).
type provePoint struct {
	pos      token.Pos
	ctx      evCtx
	pattern  core.Pattern
	property string
	sink     boundSink
}

// boundSink receives the proved domain bound of an offsets proof.
type boundSink interface {
	// matchLen accepts the proved bound (the filled/packed/permuted
	// domain length). ok=false with empty why means a bound mismatch
	// (the proof supplies its own message); non-empty why is a hard
	// refusal (e.g. the target length cannot be resolved).
	matchLen(p *prover, bound lenDenot) (ok bool, why string)
	// matchTotal accepts a scan proof's returned-total variable.
	matchTotal(p *prover, total types.Object) (ok bool, why string)
	// constOutLen resolves the target length to a constant, for proofs
	// that need a concrete range check (non-identity affine fills).
	constOutLen(p *prover) (int64, bool, string)
}

// siteSink checks the bound against a real call site's target slice.
type siteSink struct{ s *targetSite }

func (k *siteSink) matchLen(p *prover, bound lenDenot) (bool, string) {
	outLen, why := p.outDenot(k.s)
	if why != "" {
		return false, why
	}
	return p.denotEq(outLen, bound), ""
}

func (k *siteSink) matchTotal(p *prover, total types.Object) (bool, string) {
	outLen, why := p.outDenot(k.s)
	if why != "" {
		return false, why
	}
	if outLen.expr != nil {
		if id, isID := p.canon(outLen.expr).(*ast.Ident); isID && p.tp.objOf(id) == total {
			return true, ""
		}
	}
	return false, ""
}

func (k *siteSink) constOutLen(p *prover) (int64, bool, string) {
	outLen, why := p.outDenot(k.s)
	if why != "" {
		return 0, false, why
	}
	v, ok := p.denotConst(outLen)
	return v, ok, ""
}

// captureSink records the bound for the summary builder; every bound is
// accepted (the caller of the summary does the checking).
type captureSink struct {
	bound    lenDenot
	hasBound bool
	total    types.Object
}

func (k *captureSink) matchLen(p *prover, bound lenDenot) (bool, string) {
	k.bound, k.hasBound = bound, true
	return true, ""
}

func (k *captureSink) matchTotal(p *prover, total types.Object) (bool, string) {
	k.total = total
	return true, ""
}

func (k *captureSink) constOutLen(p *prover) (int64, bool, string) {
	return 0, false, "the fill range check needs a concrete target length, which a function summary does not have"
}

// siteProof is the outcome for one site: a discharged property with a
// human-readable proof chain, or a refusal with the first reason found.
type siteProof struct {
	ok       bool
	source   string // packindex | affine-fill | permutation | scan
	property string
	chain    []string
	reason   string
}

func refusal(format string, args ...any) siteProof {
	return siteProof{reason: fmt.Sprintf(format, args...)}
}

// dominates reports that the prove point executes strictly after
// program point `after`: textually later, and no loop around the point
// begins before it (which could re-run the point ahead of the event).
func (p *prover) dominates(after token.Pos, pt *provePoint) bool {
	if pt.pos <= after {
		return false
	}
	for _, l := range pt.ctx.loops {
		if l.begin() <= after {
			return false
		}
	}
	return true
}

// prove runs the provenance analysis for one call site.
func (p *prover) prove(s *targetSite) siteProof {
	if len(s.call.Args) < 3 {
		return refusal("call has too few arguments to locate the offsets")
	}
	if s.ctx.unbound {
		return refusal("call site is inside a closure the analysis cannot bind to a primitive")
	}
	offID, ok := unparen(s.call.Args[2]).(*ast.Ident)
	if !ok {
		return refusal("offsets argument is not a simple local variable")
	}
	pt := &provePoint{
		pos: s.pos, ctx: s.ctx,
		pattern: s.tgt.pattern, property: s.tgt.property,
		sink: &siteSink{s: s},
	}
	return p.proveVar(pt, offID)
}

// proveVar proves the required property for one offsets variable at one
// prove point. It is shared between real call sites and the summary
// builder (which proves a helper's returned slice at its return
// statement).
func (p *prover) proveVar(pt *provePoint, offID *ast.Ident) siteProof {
	obj := p.tp.objOf(offID)
	if obj == nil {
		return refusal("offsets variable does not resolve (type information incomplete)")
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return refusal("offsets argument is not a variable")
	}
	facts := p.facts[obj]
	if facts == nil {
		return refusal("offsets %q is not declared in this function (provenance is intraprocedural)", offID.Name)
	}
	if facts.isParam {
		return refusal("offsets %q is a parameter (provenance is intraprocedural)", offID.Name)
	}

	// Partition every occurrence of the variable.
	var defs, writes, scans, permutes []*use
	for _, u := range p.uses[obj] {
		switch u.kind {
		case useDef:
			defs = append(defs, u)
		case useAssign:
			return refusal("offsets %q is reassigned at line %d", offID.Name, p.line(u.pos))
		case useElemWrite:
			writes = append(writes, u)
		case useScanArg:
			scans = append(scans, u)
		case usePermuteArg:
			permutes = append(permutes, u)
		case useOffsetsArg, useRead:
		case useOther:
			return refusal("offsets %q %s (line %d)", offID.Name, u.why, p.line(u.pos))
		}
	}
	if len(defs) != 1 || facts.kind != defSimple {
		return refusal("offsets %q has no single recognized definition", offID.Name)
	}
	def := defs[0]
	if !def.ctx.straightLine() {
		return refusal("offsets %q is defined inside a loop, conditional, or closure", offID.Name)
	}
	for _, u := range append(append(append([]*use{}, writes...), scans...), permutes...) {
		if u.ctx.unbound {
			return refusal("offsets %q is touched inside a closure the analysis cannot bind (line %d)",
				offID.Name, p.line(u.pos))
		}
	}

	// Dispatch on the defining expression.
	if def.rhs != nil {
		if call, isCall := unparen(def.rhs).(*ast.CallExpr); isCall {
			if pathStr, name, isPkg := callTarget(p.f, call); isPkg && isPath(pathStr, corePath) && name == "PackIndex" {
				return p.provePackIndex(pt, offID.Name, def, call, writes, scans, permutes)
			}
			if _, zeroed, isAlloc := p.allocLen(call); isAlloc {
				switch {
				case len(scans) > 0:
					if !zeroed {
						return refusal("offsets %q is checked out uninitialized (arena.AllocUninit); the scan proof needs zeroed contents", offID.Name)
					}
					return p.proveScan(pt, offID.Name, obj, writes, scans, permutes)
				case len(permutes) > 0:
					return p.provePermutation(pt, offID.Name, obj, writes, permutes)
				case len(writes) > 0:
					return p.proveAffine(pt, offID.Name, obj, writes)
				}
				return refusal("offsets %q is allocated but never filled", offID.Name)
			}
			// Interprocedural: offsets comes straight out of an
			// in-module helper whose returned slice the summary engine
			// can certify, and is never touched afterwards.
			if len(writes)+len(scans)+len(permutes) == 0 {
				if sp, handled := p.proveViaSummary(pt, offID.Name, def, call); handled {
					return sp
				}
			}
		}
	}
	return refusal("offsets %q has a definition form the analysis does not model", offID.Name)
}

// provePackIndex discharges P1: PackIndex output used as-is.
func (p *prover) provePackIndex(pt *provePoint, name string, def *use, pack *ast.CallExpr,
	writes, scans, permutes []*use) siteProof {
	if len(writes)+len(scans)+len(permutes) > 0 {
		var first *use
		for _, u := range append(append(append([]*use{}, writes...), scans...), permutes...) {
			if first == nil || u.pos < first.pos {
				first = u
			}
		}
		return refusal("offsets %q is mutated after core.PackIndex at line %d", name, p.line(first.pos))
	}
	if !p.dominates(pack.End(), pt) {
		return refusal("call site does not strictly follow the PackIndex definition")
	}
	if len(pack.Args) < 2 {
		return refusal("PackIndex call has an unexpected shape")
	}
	ok, why := pt.sink.matchLen(p, lenDenot{expr: pack.Args[1]})
	if why != "" {
		return refusal("%s", why)
	}
	if !ok {
		return refusal("cannot prove len(target) equals the PackIndex domain bound")
	}
	return siteProof{
		ok: true, source: "packindex", property: pt.property,
		chain: []string{
			fmt.Sprintf("offsets %q := core.PackIndex(w, n, keep) at line %d: output is strictly increasing and unique in [0, n)", name, p.line(def.pos)),
			"no writes, aliases, or reorderings after the definition",
			"len(target) == n: every offset is in bounds",
		},
	}
}

// checkIdentityFill validates the single complete fill write and
// classifies its value as identity / reverse / general affine.
func (p *prover) checkIdentityFill(name string, obj types.Object, writes []*use) (w *use, bound lenDenot, lc loopCtx, aff affineForm, rev bool, sp siteProof) {
	if len(writes) != 1 {
		sp = refusal("offsets %q has %d writes; the fill proof needs exactly one", name, len(writes))
		return
	}
	w = writes[0]
	switch {
	case w.ctx.unbound:
		sp = refusal("the fill write to %q is inside an unmodeled closure", name)
		return
	case w.ctx.cond:
		sp = refusal("the fill write to %q is conditional", name)
		return
	case len(w.ctx.loops) != 1:
		sp = refusal("the fill write to %q is not inside a single recognized loop", name)
		return
	}
	lc = w.ctx.loops[0]
	fill := lc.fill
	if fill == nil {
		sp = refusal("the loop filling %q has an unrecognized shape", name)
		return
	}
	idxID, ok := p.canon(w.index).(*ast.Ident)
	if !ok || p.tp.objOf(idxID) != fill.loopVar {
		sp = refusal("the fill index into %q is not the loop variable", name)
		return
	}
	if w.op != token.ASSIGN {
		sp = refusal("the fill write to %q is not a plain assignment", name)
		return
	}
	trackedLen := lenDenot{lenOf: obj}
	if fill.rangeOver != nil {
		ro, isID := unparen(fill.rangeOver).(*ast.Ident)
		if !isID || p.tp.objOf(ro) != obj {
			sp = refusal("the fill ranges over a slice other than %q", name)
			return
		}
		bound = trackedLen
	} else {
		if lo, isC := p.constInt(fill.lo); !isC || lo != 0 {
			sp = refusal("the fill of %q does not start at index 0", name)
			return
		}
		bound = lenDenot{expr: fill.hi}
		if !p.denotEq(bound, trackedLen) {
			sp = refusal("the fill does not cover all of %q (loop bound differs from its length)", name)
			return
		}
	}
	boundExpr := bound.expr
	if boundExpr == nil {
		boundExpr = p.makeLen(obj)
	}
	if a, ok := p.parseAffine(w.rhs, fill.loopVar); ok && a.hasVar || ok && a.a == 0 {
		aff = a
		return
	}
	if boundExpr != nil && p.parseReverse(w.rhs, fill.loopVar, boundExpr) {
		rev = true
		return
	}
	sp = refusal("the value stored in %q is not affine in the loop variable", name)
	return
}

// proveAffine discharges P2: a complete affine fill a*i + c, a != 0.
func (p *prover) proveAffine(pt *provePoint, name string, obj types.Object, writes []*use) siteProof {
	w, bound, lc, aff, rev, sp := p.checkIdentityFill(name, obj, writes)
	if sp.reason != "" {
		return sp
	}
	if !rev && aff.a == 0 {
		return refusal("offsets %q fill is affine with stride 0 (a*i+c, a=0): values repeat", name)
	}
	if pt.pattern == core.RngInd && (rev || aff.a < 0) {
		return refusal("offsets %q fill is descending: unique but not monotone", name)
	}
	if !p.dominates(lc.end(), pt) {
		return refusal("call site does not strictly follow the fill loop")
	}
	identity := rev || (aff.a == 1 && aff.c == 0)
	if identity {
		ok, why := pt.sink.matchLen(p, bound)
		if why != "" {
			return refusal("%s", why)
		}
		if !ok {
			return refusal("cannot prove len(target) covers the filled range of %q", name)
		}
	} else {
		bv, bok := p.denotConst(bound)
		lv, lok, why := pt.sink.constOutLen(p)
		if why != "" {
			return refusal("%s", why)
		}
		if !bok || !lok {
			return refusal("offsets %q fill is affine (a=%d, c=%d) but bounds are only provable for constant sizes", name, aff.a, aff.c)
		}
		lo, hi := aff.c, aff.a*(bv-1)+aff.c
		if aff.a < 0 {
			lo, hi = hi, lo
		}
		if bv > 0 && (lo < 0 || hi >= lv) {
			return refusal("offsets %q affine fill writes values outside [0, len(target))", name)
		}
	}
	desc := fmt.Sprintf("a=%d, c=%d", aff.a, aff.c)
	if rev {
		desc = "descending identity B-1-i"
	}
	return siteProof{
		ok: true, source: "affine-fill", property: pt.property,
		chain: []string{
			fmt.Sprintf("offsets %q is filled as a*i+c (%s) by a complete loop over [0, len) at line %d: injective", name, desc, p.line(w.pos)),
			"no other writes, aliases, or reorderings",
			"fill values lie in [0, len(target)): every offset is in bounds",
		},
	}
}

// provePermutation discharges P3: an identity fill whose only later
// mutations are permutation-preserving sorts, so the slice remains a
// permutation of [0, len).
func (p *prover) provePermutation(pt *provePoint, name string, obj types.Object, writes, permutes []*use) siteProof {
	if pt.pattern == core.RngInd {
		return refusal("offsets %q is a sorted permutation: unique, but monotonicity is not preserved by later sorts", name)
	}
	w, bound, lc, aff, rev, sp := p.checkIdentityFill(name, obj, writes)
	if sp.reason != "" {
		return sp
	}
	if !rev && !(aff.a == 1 && aff.c == 0) {
		return refusal("offsets %q permutation proof needs an identity fill (found a=%d, c=%d)", name, aff.a, aff.c)
	}
	for _, u := range permutes {
		if u.pos <= lc.end() {
			return refusal("offsets %q is sorted before its identity fill completes", name)
		}
	}
	if !p.dominates(lc.end(), pt) {
		return refusal("call site does not strictly follow the identity fill")
	}
	ok, why := pt.sink.matchLen(p, bound)
	if why != "" {
		return refusal("%s", why)
	}
	if !ok {
		return refusal("cannot prove len(target) covers the permuted range of %q", name)
	}
	return siteProof{
		ok: true, source: "permutation", property: pt.property,
		chain: []string{
			fmt.Sprintf("offsets %q is identity-filled over [0, len) at line %d", name, p.line(w.pos)),
			fmt.Sprintf("only permutation-preserving operations (%s) touch it afterwards: it remains a permutation of [0, len)", permuteNames(permutes)),
			"len(target) == len(offsets): every offset is unique and in bounds",
		},
	}
}

func permuteNames(permutes []*use) string {
	seen := map[string]bool{}
	out := ""
	for _, u := range permutes {
		if seen[u.callName] {
			continue
		}
		seen[u.callName] = true
		if out != "" {
			out += ", "
		}
		out += u.callName
	}
	return out
}

// proveScan discharges P4: zero-initialized, non-negative pre-scan
// writes, one prefix scan, untouched afterwards.
func (p *prover) proveScan(pt *provePoint, name string, obj types.Object, writes, scans, permutes []*use) siteProof {
	if pt.pattern == core.SngInd {
		return refusal("offsets %q is a prefix scan: monotone, but empty buckets repeat values so uniqueness fails", name)
	}
	if len(permutes) > 0 {
		return refusal("offsets %q is re-ordered (sorted) around the scan: monotonicity is lost", name)
	}
	if len(scans) != 1 {
		return refusal("offsets %q is scanned %d times; the proof needs exactly one scan", name, len(scans))
	}
	scan := scans[0]
	if !scan.ctx.straightLine() {
		return refusal("the scan of %q is inside a loop, conditional, or closure", name)
	}
	p.ensureNN()
	for _, w := range writes {
		if w.pos >= scan.pos {
			return refusal("offsets %q is mutated after the scan (line %d)", name, p.line(w.pos))
		}
		for _, l := range w.ctx.loops {
			if l.end() >= scan.pos {
				return refusal("a loop writing %q overlaps the scan", name)
			}
		}
		switch w.op {
		case token.INC:
		case token.ASSIGN, token.ADD_ASSIGN:
			if !p.nnExpr(w.rhs) {
				return refusal("cannot prove the value written to %q at line %d non-negative", name, p.line(w.pos))
			}
		default:
			return refusal("offsets %q is decremented or combined with an unmodeled operator at line %d", name, p.line(w.pos))
		}
		if scan.from1 && !p.indexAtLeastOne(w) {
			return refusal("the scan covers %s[1:] but a write at line %d may touch index 0", name, p.line(w.pos))
		}
	}
	if !p.dominates(scan.pos, pt) {
		return refusal("call site does not strictly follow the scan")
	}
	total := scan.scanLHS
	if total == nil || !p.stableObj(total) {
		return refusal("the scan's returned total is not bound to a stable variable")
	}
	okBound, why := pt.sink.matchTotal(p, total)
	if why != "" {
		return refusal("%s", why)
	}
	if !okBound {
		return refusal("cannot prove len(target) equals the scan's returned total %q", total.Name())
	}
	form := "offsets"
	if scan.from1 {
		form = "offsets[1:] (index 0 stays zero)"
	}
	return siteProof{
		ok: true, source: "scan", property: pt.property,
		chain: []string{
			fmt.Sprintf("offsets %q starts zeroed and every pre-scan write is non-negative", name),
			fmt.Sprintf("core.%s over %s at line %d: prefix sums of non-negative values are monotone", scan.callName, form, p.line(scan.pos)),
			fmt.Sprintf("no mutation after the scan; len(target) == returned total %q: boundaries are in bounds", total.Name()),
		},
	}
}

// indexAtLeastOne proves a write index >= 1: a constant, or a*i+c with
// a >= 0, c >= 1 over a loop variable starting at a non-negative bound.
func (p *prover) indexAtLeastOne(w *use) bool {
	if v, ok := p.constInt(p.canon(w.index)); ok {
		return v >= 1
	}
	fill, _, ok := w.ctx.innerFill()
	if !ok {
		return false
	}
	if fill.rangeOver == nil {
		lo, isC := p.constInt(fill.lo)
		if !isC || lo < 0 {
			return false
		}
	}
	aff, ok := p.parseAffine(w.index, fill.loopVar)
	return ok && aff.hasVar && aff.a >= 0 && aff.c >= 1
}

// outDenot resolves the length denotation of the call's target slice.
func (p *prover) outDenot(s *targetSite) (lenDenot, string) {
	if len(s.call.Args) < 2 {
		return lenDenot{}, "call has no target argument"
	}
	id, ok := unparen(s.call.Args[1]).(*ast.Ident)
	if !ok {
		return lenDenot{}, "target slice is not a simple variable; its length cannot be tracked"
	}
	obj := p.tp.objOf(id)
	if obj == nil {
		return lenDenot{}, "target slice does not resolve (type information incomplete)"
	}
	f := p.facts[obj]
	if f == nil || f.addrTaken || f.assigns > 0 {
		return lenDenot{}, fmt.Sprintf("target slice %q does not have a stable header", id.Name)
	}
	if M := p.makeLen(obj); M != nil {
		return lenDenot{expr: M}, ""
	}
	if f.isParam {
		return lenDenot{lenOf: obj}, ""
	}
	return lenDenot{}, fmt.Sprintf("target slice %q has no trackable length", id.Name)
}
