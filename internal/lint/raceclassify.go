package lint

// regionCheck classifies every shared write in one parallel region
// (races.go). The walk is statement-ordered so mutex state is tracked
// linearly; expressions are scanned for call effects; nested region
// bodies (claimed closures) are skipped — they are regions of their
// own.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// coreAtomicHelpers are the core package's AW primitives: every write
// they perform goes through sync/atomic.
var coreAtomicHelpers = map[string]bool{
	"WriteMin32": true, "WriteMin64": true, "WriteMax32": true,
	"WriteMinU32": true, "WriteMinU64": true, "CASLoop32": true,
	"SetBit": true, "ScatterAtomic32": true,
}

// atomicWriteMethods are the mutating methods of sync/atomic types (and
// of the atomic package itself, by prefix).
var atomicWriteMethods = map[string]bool{
	"Store": true, "Add": true, "Swap": true, "CompareAndSwap": true,
	"Or": true, "And": true,
}

// syncCleanMethods are sync-package methods that synchronize without
// writing user state.
var syncCleanMethods = map[string]bool{
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true,
	"TryLock": true, "Wait": true, "Add": true, "Done": true,
	"Signal": true, "Broadcast": true,
}

// stdlibMutators are standard-library functions that write through
// their arguments; everything else out-of-module is assumed read-only.
var stdlibMutators = map[string]bool{
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true,
	"sort.Stable": true, "rand.Shuffle": true, "copy": true,
}

type regionCheck struct {
	rp    *racePass
	tp    *typedPkg
	f     *fileInfo
	fd    *ast.FuncDecl
	r     *raceRegion
	sites []RaceSite

	locals    map[types.Object]bool
	recv      types.Object // RunRange region receiver: shared across invocations
	facts     map[types.Object]*raceFact
	loops     map[types.Object]*raceLoop
	fieldWr   map[string]bool             // selector atoms assigned in the region ("s.block")
	funcBinds map[types.Object][]ast.Expr // func-typed local bindings over the whole enclosing function

	held []string // canonical strings of currently held write locks

	taskMemo map[types.Object]taskRes
}

type raceFact struct {
	def        ast.Expr // 1:1 define RHS (nil for tuple defines)
	assigns    int
	shrinkOnly bool // all reassignments are shrink guards (if x > y { x = y })
	addrTaken  bool
	isLoop     bool
}

type raceLoop struct{ lo, hi ast.Expr }

type taskRes struct {
	detail string
	ok     bool
}

func newRegionCheck(rp *racePass, tp *typedPkg, f *fileInfo, fd *ast.FuncDecl, r *raceRegion) *regionCheck {
	return &regionCheck{
		rp: rp, tp: tp, f: f, fd: fd, r: r,
		locals:    map[types.Object]bool{},
		facts:     map[types.Object]*raceFact{},
		loops:     map[types.Object]*raceLoop{},
		fieldWr:   map[string]bool{},
		funcBinds: map[types.Object][]ast.Expr{},
		taskMemo:  map[types.Object]taskRes{},
	}
}

func (rc *regionCheck) run() {
	if rc.r.body == nil {
		return
	}
	if rc.fd.Recv != nil && rc.r.kind == "RangeBody.RunRange" && len(rc.fd.Recv.List) > 0 {
		fld := rc.fd.Recv.List[0]
		if len(fld.Names) > 0 {
			rc.recv = rc.tp.info.Defs[fld.Names[0]]
		}
	}
	rc.collectFacts()
	rc.collectFuncBinds()
	rc.walkStmts(rc.r.body.List)
}

// collectFuncBinds records every binding of a func-typed local across
// the whole enclosing function. The binding that matters for a call
// inside the region — f := c.bump before ForRange(..., func(i int) {
// f() }) — usually sits outside the region body, so the region-scoped
// facts never see it. Tuple-bound func values record a nil binding,
// which boundCallee treats as unresolvable.
func (rc *regionCheck) collectFuncBinds() {
	mark := func(lhs, rhs ast.Expr) {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := rc.tp.objOf(id)
		if obj == nil {
			return
		}
		if _, isSig := obj.Type().Underlying().(*types.Signature); !isSig {
			return
		}
		rc.funcBinds[obj] = append(rc.funcBinds[obj], rhs)
	}
	ast.Inspect(rc.fd, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) == len(v.Rhs) {
				for i := range v.Lhs {
					mark(v.Lhs[i], v.Rhs[i])
				}
			} else {
				for _, lhs := range v.Lhs {
					mark(lhs, nil)
				}
			}
		case *ast.ValueSpec:
			for i, nm := range v.Names {
				switch {
				case len(v.Values) == len(v.Names):
					mark(nm, v.Values[i])
				case len(v.Values) > 0:
					mark(nm, nil)
				}
				// No initializer: a nil func value, never callable —
				// any later binding stands alone.
			}
		}
		return true
	})
}

// boundCallee resolves a func-typed local bound exactly once in the
// enclosing function to a method value or named function.
func (rc *regionCheck) boundCallee(v *types.Var) (*types.Func, ast.Expr) {
	binds := rc.funcBinds[v]
	if len(binds) != 1 {
		return nil, nil
	}
	return methodValueBinding(rc.tp, binds[0])
}

// ---------------------------------------------------------------------
// Facts pass
// ---------------------------------------------------------------------

// collectFacts records, over the whole region body (including nested
// closures), which objects are region-local, their single-definition
// RHS, reassignment counts, loop bounds, and which selector atoms are
// assigned.
func (rc *regionCheck) collectFacts() {
	fact := func(obj types.Object) *raceFact {
		if obj == nil {
			return &raceFact{}
		}
		fx := rc.facts[obj]
		if fx == nil {
			fx = &raceFact{}
			rc.facts[obj] = fx
		}
		return fx
	}
	ast.Inspect(rc.r.body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.Ident:
			if obj := rc.tp.info.Defs[v]; obj != nil {
				rc.locals[obj] = true
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if id, ok := unparen(v.X).(*ast.Ident); ok {
					fact(rc.tp.objOf(id)).addrTaken = true
				}
			}
		case *ast.AssignStmt:
			switch v.Tok {
			case token.DEFINE:
				if len(v.Lhs) == len(v.Rhs) {
					for i, lhs := range v.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							if obj := rc.tp.info.Defs[id]; obj != nil {
								fx := fact(obj)
								if fx.def != nil {
									fx.assigns++ // redefinition in a nested scope
								} else {
									fx.def = v.Rhs[i]
								}
							}
						}
					}
				} else {
					for _, lhs := range v.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							if obj := rc.tp.info.Defs[id]; obj != nil {
								fact(obj) // tuple define: no foldable RHS
							}
						}
					}
				}
			default:
				for _, lhs := range v.Lhs {
					switch t := unparen(lhs).(type) {
					case *ast.Ident:
						if obj := rc.tp.objOf(t); obj != nil {
							fx := fact(obj)
							fx.assigns++
							if rc.isShrinkAssign(v, t) {
								fx.shrinkOnly = fx.assigns == 1 || fx.shrinkOnly
							} else {
								fx.shrinkOnly = false
							}
						}
					case *ast.SelectorExpr:
						if s := canonString(rc.tp, t); s != "" {
							rc.fieldWr[s] = true
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if id, ok := unparen(v.X).(*ast.Ident); ok {
				if obj := rc.tp.objOf(id); obj != nil {
					fx := fact(obj)
					fx.assigns++
					fx.shrinkOnly = false
				}
			}
		case *ast.ForStmt:
			rc.recordForLoop(v, fact)
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{v.Key, v.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if obj := rc.tp.info.Defs[id]; obj != nil {
						rc.locals[obj] = true
						fact(obj).isLoop = true
					}
				}
			}
		}
		return true
	})
	// Region params are locals too.
	for obj := range rc.r.task {
		rc.locals[obj] = true
	}
	for obj := range rc.r.handed {
		rc.locals[obj] = true
	}
	for _, obj := range []types.Object{rc.r.rangeLo, rc.r.rangeHi, rc.r.worker} {
		if obj != nil {
			rc.locals[obj] = true
		}
	}
}

// recordForLoop registers `for i := LO; i < HI; i++` shapes.
func (rc *regionCheck) recordForLoop(v *ast.ForStmt, fact func(types.Object) *raceFact) {
	as, ok := v.Init.(*ast.AssignStmt)
	if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := rc.tp.info.Defs[id]
	if obj == nil {
		return
	}
	rc.locals[obj] = true
	fact(obj).isLoop = true
	cond, ok := v.Cond.(*ast.BinaryExpr)
	if !ok {
		return
	}
	condID, ok := unparen(cond.X).(*ast.Ident)
	if !ok || rc.tp.objOf(condID) != obj {
		return
	}
	switch cond.Op {
	case token.LSS:
		rc.loops[obj] = &raceLoop{lo: as.Rhs[0], hi: cond.Y}
	case token.LEQ:
		// i <= X is i < X+1; bound shape is still "starts at lo" which
		// is all the owner rules need exactly, so record lo only.
		rc.loops[obj] = &raceLoop{lo: as.Rhs[0]}
	}
}

// isShrinkAssign reports whether this assignment is the body of a
// shrink guard `if x > Y { x = Y }` (or >=) — a cap that keeps x at or
// below its defined value, which the block-owner rule tolerates.
func (rc *regionCheck) isShrinkAssign(as *ast.AssignStmt, id *ast.Ident) bool {
	if as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	path := enclosingPath(rc.r.body, as.Pos())
	for i := len(path) - 1; i >= 0; i-- {
		ifs, ok := path[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		if len(ifs.Body.List) != 1 {
			return false
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || (cond.Op != token.GTR && cond.Op != token.GEQ) {
			return false
		}
		cid, ok := unparen(cond.X).(*ast.Ident)
		if !ok || rc.tp.objOf(cid) != rc.tp.objOf(id) {
			return false
		}
		return exprEq(rc.tp, cond.Y, as.Rhs[0])
	}
	return false
}

// ---------------------------------------------------------------------
// Statement walk
// ---------------------------------------------------------------------

func (rc *regionCheck) walkStmts(list []ast.Stmt) {
	for _, s := range list {
		rc.walkStmt(s)
	}
}

func (rc *regionCheck) walkStmt(s ast.Stmt) {
	switch v := s.(type) {
	case *ast.ExprStmt:
		if call, ok := unparen(v.X).(*ast.CallExpr); ok && rc.lockOp(call, false) {
			return
		}
		rc.scanExpr(v.X)
	case *ast.DeferStmt:
		if rc.lockOp(v.Call, true) {
			return
		}
		rc.scanExpr(v.Call)
	case *ast.AssignStmt:
		for _, rhs := range v.Rhs {
			rc.scanExpr(rhs)
		}
		if v.Tok == token.DEFINE {
			for _, lhs := range v.Lhs {
				if _, ok := lhs.(*ast.Ident); !ok {
					rc.classifyWrite(lhs) // mixed define/assign
				}
			}
			return
		}
		for _, lhs := range v.Lhs {
			rc.scanWriteSubexprs(lhs)
			rc.classifyWrite(lhs)
		}
	case *ast.IncDecStmt:
		rc.scanWriteSubexprs(v.X)
		rc.classifyWrite(v.X)
	case *ast.SendStmt:
		rc.scanExpr(v.Chan)
		rc.scanExpr(v.Value) // channel sends synchronize; no site
	case *ast.GoStmt:
		if lit, ok := unparen(v.Call.Fun).(*ast.FuncLit); ok && rc.r.claimed[lit] {
			for _, a := range v.Call.Args {
				rc.scanExpr(a)
			}
			return
		}
		rc.refuse(v, types.ExprString(v.Call.Fun),
			"goroutine launch through %s: the spawned code is not a lexical region this pass can certify", types.ExprString(v.Call.Fun))
	case *ast.IfStmt:
		if v.Init != nil {
			rc.walkStmt(v.Init)
		}
		rc.scanExpr(v.Cond)
		rc.walkStmts(v.Body.List)
		if v.Else != nil {
			rc.walkStmt(v.Else)
		}
	case *ast.ForStmt:
		if v.Init != nil {
			rc.walkStmt(v.Init)
		}
		if v.Cond != nil {
			rc.scanExpr(v.Cond)
		}
		if v.Post != nil {
			rc.walkStmt(v.Post)
		}
		rc.walkStmts(v.Body.List)
	case *ast.RangeStmt:
		rc.scanExpr(v.X)
		if v.Tok == token.ASSIGN {
			rc.classifyWrite(v.Key)
			if v.Value != nil {
				rc.classifyWrite(v.Value)
			}
		}
		rc.walkStmts(v.Body.List)
	case *ast.SwitchStmt:
		if v.Init != nil {
			rc.walkStmt(v.Init)
		}
		if v.Tag != nil {
			rc.scanExpr(v.Tag)
		}
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					rc.scanExpr(e)
				}
				rc.walkStmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			rc.walkStmt(v.Init)
		}
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				rc.walkStmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					rc.walkStmt(cc.Comm)
				}
				rc.walkStmts(cc.Body)
			}
		}
	case *ast.BlockStmt:
		rc.walkStmts(v.List)
	case *ast.LabeledStmt:
		rc.walkStmt(v.Stmt)
	case *ast.ReturnStmt:
		for _, e := range v.Results {
			rc.scanExpr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						rc.scanExpr(e)
					}
				}
			}
		}
	}
}

// scanWriteSubexprs scans the index and base expressions of a write
// target (which may themselves contain classified calls) without
// treating the target as a read.
func (rc *regionCheck) scanWriteSubexprs(lhs ast.Expr) {
	switch v := unparen(lhs).(type) {
	case *ast.IndexExpr:
		rc.scanExpr(v.Index)
		rc.scanWriteSubexprs(v.X)
	case *ast.SelectorExpr:
		rc.scanWriteSubexprs(v.X)
	case *ast.StarExpr:
		rc.scanWriteSubexprs(v.X)
	}
}

// lockOp recognizes mutex transitions and updates the held set.
// Deferred unlocks hold for the rest of the region.
func (rc *regionCheck) lockOp(call *ast.CallExpr, deferred bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if !isNamedRecv(rc.tp, sel.X, syncPath, "Mutex", "RWMutex") {
		return false
	}
	key := canonString(rc.tp, sel.X)
	switch sel.Sel.Name {
	case "Lock":
		if !deferred {
			rc.held = append(rc.held, key)
		}
		return true
	case "Unlock":
		if deferred {
			return true // lock stays held to the end of the region
		}
		for i := len(rc.held) - 1; i >= 0; i-- {
			if rc.held[i] == key {
				rc.held = append(rc.held[:i], rc.held[i+1:]...)
				break
			}
		}
		return true
	case "RLock", "RUnlock", "TryLock":
		return true
	}
	return false
}

// scanExpr walks an expression classifying call effects. Claimed
// closures (nested region bodies) are skipped; other closures are
// walked with the lock set cleared (they may run on another frame).
func (rc *regionCheck) scanExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			if rc.r.claimed[v] {
				return false
			}
			saved := rc.held
			rc.held = nil
			rc.walkStmts(v.Body.List)
			rc.held = saved
			return false
		case *ast.CallExpr:
			rc.classifyCall(v)
		}
		return true
	})
}

// ---------------------------------------------------------------------
// Call classification
// ---------------------------------------------------------------------

func (rc *regionCheck) classifyCall(call *ast.CallExpr) {
	// Package-qualified calls.
	if pathStr, name, isPkg := callTarget(rc.f, call); isPkg {
		switch {
		case isPath(pathStr, atomicPath):
			if atomicWritePrefix(name) && len(call.Args) > 0 {
				rc.site(RaceAtomic, "sync/atomic."+name, call, types.ExprString(call.Args[0]))
			}
			return
		case isPath(pathStr, corePath):
			if coreAtomicHelpers[name] {
				tgt := ""
				if len(call.Args) > 0 {
					tgt = types.ExprString(call.Args[0])
				}
				rc.site(RaceAtomic, "core."+name, call, tgt)
				return
			}
			if _, isRegion := coreRegionSpecs[name]; isRegion {
				return // nested primitive: its body is a region of its own
			}
		case isPath(pathStr, mqPath) && mqRegionFuncs[name]:
			return
		}
		// Fall through to the effect engine for other in-module
		// package calls; out-of-module handled below.
	}

	// Method calls with special receivers.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if isAtomicRecv(rc.tp, sel.X) {
			if atomicWriteMethods[sel.Sel.Name] {
				rc.site(RaceAtomic, "atomic."+sel.Sel.Name, call, types.ExprString(sel.X))
			}
			return
		}
		if isNamedRecv(rc.tp, sel.X, syncPath, "Mutex", "RWMutex", "WaitGroup", "Cond", "Once") {
			if syncCleanMethods[sel.Sel.Name] || sel.Sel.Name == "Do" {
				return // synchronization, not user-state writes
			}
		}
		if isWorkerExpr(rc.tp, sel.X) {
			switch sel.Sel.Name {
			case "For", "ForBody", "Join", "SpawnTask", "ForEachWorker":
				return // fork points: bodies are regions of their own
			case "Spawn":
				tgt := ""
				if len(call.Args) > 0 {
					tgt = types.ExprString(call.Args[0])
				}
				rc.refuse(call, tgt,
					"task spawned through %s is resolved dynamically; its writes are not in a lexical region", tgt)
				return
			}
		}
	}

	fn, boundRecv, delegated := rc.tp.calleeOf(call, rc.boundCallee)
	if delegated {
		return // unresolvable func value or interface method: the callee owns its writes
	}
	if fn == nil {
		// Conversions, builtins, unresolved.
		if id, ok := unparen(call.Fun).(*ast.Ident); ok {
			rc.classifyBuiltin(id.Name, call)
		}
		return
	}
	if fn.Pkg() == nil {
		return
	}
	if _, inModule := rc.rp.a.modRel(fn.Pkg().Path()); !inModule {
		rc.classifyStdlibCall(fn, call)
		return
	}
	rc.classifyEffectCall(fn, call, boundRecv)
}

// classifyBuiltin handles the writing builtins.
func (rc *regionCheck) classifyBuiltin(name string, call *ast.CallExpr) {
	switch name {
	case "copy":
		if len(call.Args) == 2 {
			rc.classifyBulkWrite(call, call.Args[0], "copy")
		}
	case "delete":
		if len(call.Args) > 0 {
			rc.refuse(call, types.ExprString(call.Args[0]),
				"delete on %s: concurrent map mutation", types.ExprString(call.Args[0]))
		}
	}
}

// classifyBulkWrite classifies a whole-slice write (copy destination).
func (rc *regionCheck) classifyBulkWrite(at ast.Node, dst ast.Expr, what string) {
	base, steps, ok := peelTarget(dst)
	if !ok {
		rc.refuse(at, types.ExprString(dst), "%s into unresolved destination %s", what, types.ExprString(dst))
		return
	}
	obj := rc.tp.objOf(base)
	switch rc.memClass(obj, steps) {
	case memHanded:
		rc.site(RaceWorkerLocal, "handed chunk", at, types.ExprString(dst))
	case memLocal:
		// region-local destination: no shared write
	case memCheckout:
		rc.site(RaceWorkerLocal, "arena checkout", at, types.ExprString(dst))
	default:
		if len(rc.held) > 0 {
			rc.site(RaceLockGuarded, "guarded by "+lockLabel(rc.held[len(rc.held)-1]), at, types.ExprString(dst))
			return
		}
		rc.refuse(at, types.ExprString(dst), "%s into shared %s: destination range not provably task-owned", what, types.ExprString(dst))
	}
}

// classifyStdlibCall: out-of-module calls are assumed read-only except
// the known mutators.
func (rc *regionCheck) classifyStdlibCall(fn *types.Func, call *ast.CallExpr) {
	key := fn.Pkg().Name() + "." + fn.Name()
	if stdlibMutators[key] && len(call.Args) > 0 {
		rc.classifyBulkWrite(call, call.Args[0], key)
	}
}

// classifyEffectCall consults the callee's memoized write-effect
// summary (raceeffect.go). boundRecv, when non-nil, is the receiver a
// method value was bound over — absent from the call syntax but
// written through all the same, so it joins the by-reference
// arguments.
func (rc *regionCheck) classifyEffectCall(fn *types.Func, call *ast.CallExpr, boundRecv ast.Expr) {
	eff := rc.rp.effectOf(fn)
	if eff.shared != "" {
		if len(rc.held) > 0 {
			rc.site(RaceLockGuarded, "guarded by "+lockLabel(rc.held[len(rc.held)-1]), call, fn.Name()+"()")
			return
		}
		rc.refuse(call, fn.Name()+"()",
			"calls %s, which writes shared state (%s) without synchronization", fn.Name(), eff.shared)
		return
	}
	if !eff.paramPlain && !eff.paramAtomic {
		return // callee confines its writes
	}
	// The callee writes through some of its parameters: the arguments
	// at written positions must hand it task-owned memory; positions
	// the summary proves read-only may carry shared data (the decoder
	// reading a shared compressed row into a task-owned buffer). Sites
	// anchor at the argument, not the call, so one call can carry
	// several verdicts.
	args := byRefArgs(rc.tp, call)
	if boundRecv != nil {
		if tv, ok := rc.tp.info.Types[boundRecv]; !ok || tv.Type == nil || !isWorkerNamed(tv.Type) {
			args = append(args, effArg{expr: boundRecv, idx: recvIdx})
		}
	}
	for _, arg := range args {
		if !eff.writesThrough(arg.idx) {
			continue // summarized read-only at this position
		}
		if rc.joinDisjointSlice(arg.expr) {
			rc.site(RaceWorkerLocal, "join-disjoint-slices", arg.expr, types.ExprString(arg.expr))
			continue
		}
		base, steps, ok := peelTarget(arg.expr)
		if !ok {
			rc.refuse(arg.expr, types.ExprString(arg.expr),
				"passes %s to %s, which writes through its parameters", types.ExprString(arg.expr), fn.Name())
			continue
		}
		obj := rc.tp.objOf(base)
		switch rc.memClass(obj, steps) {
		case memHanded, memLocal, memCheckout:
			continue
		}
		if eff.writesAtomic(arg.idx) && !eff.writesPlain(arg.idx) {
			rc.site(RaceAtomic, "via "+fn.Name(), arg.expr, types.ExprString(arg.expr))
			continue
		}
		if len(rc.held) > 0 {
			rc.site(RaceLockGuarded, "guarded by "+lockLabel(rc.held[len(rc.held)-1]), arg.expr, types.ExprString(arg.expr))
			continue
		}
		rc.refuse(arg.expr, types.ExprString(arg.expr),
			"passes shared %s to %s, which writes through its parameters", types.ExprString(arg.expr), fn.Name())
	}
}

// joinDisjointSlice proves the D&C handout idiom: this Join branch
// passes base[l1:h1] to a mutating callee while the sibling branch
// touches base only through slice expressions provably disjoint from
// [l1, h1) — the two branches own complementary pieces.
func (rc *regionCheck) joinDisjointSlice(arg ast.Expr) bool {
	if rc.r.sibling == nil {
		return false
	}
	se, ok := unparen(arg).(*ast.SliceExpr)
	if !ok {
		return false
	}
	baseID, ok := unparen(se.X).(*ast.Ident)
	if !ok {
		return false
	}
	obj := rc.tp.objOf(baseID)
	if obj == nil {
		return false
	}
	// Every use of base in the sibling must be the X of a slice
	// expression whose range is disjoint from ours.
	disjointAll := true
	used := false
	ast.Inspect(rc.r.sibling, func(n ast.Node) bool {
		if !disjointAll {
			return false
		}
		id, isID := n.(*ast.Ident)
		if !isID || rc.tp.objOf(id) != obj {
			return true
		}
		used = true
		path := enclosingPath(rc.r.sibling, id.Pos())
		// The ident's immediate parent (last node before the ident
		// itself) must be a slice expr slicing this ident.
		var parent ast.Node
		for i := len(path) - 1; i >= 0; i-- {
			if path[i] == id {
				continue
			}
			parent = path[i]
			break
		}
		other, isSlice := parent.(*ast.SliceExpr)
		if !isSlice || unparen(other.X) != ast.Expr(id) {
			disjointAll = false
			return false
		}
		if !slicesDisjoint(rc.tp, se, other) {
			disjointAll = false
			return false
		}
		return true
	})
	return used && disjointAll
}

// slicesDisjoint proves [a.Low, a.High) and [b.Low, b.High) disjoint:
// one's upper bound equals the other's lower bound (nil Low is the
// start of the slice, nil High its end).
func slicesDisjoint(tp *typedPkg, a, b *ast.SliceExpr) bool {
	boundEq := func(hi, lo ast.Expr) bool {
		if hi == nil { // runs to the end: can never precede lo
			return false
		}
		if lo == nil { // starts at 0: hi == 0 only for a degenerate slice
			return isZeroExpr(hi)
		}
		return exprEq(tp, hi, lo)
	}
	return boundEq(a.High, b.Low) || boundEq(b.High, a.Low)
}

// ---------------------------------------------------------------------
// Write classification
// ---------------------------------------------------------------------

// targetStep is one access-path step, innermost (closest to the base
// identifier) first.
type targetStep struct {
	index ast.Expr // non-nil for x[i]
	field string   // non-empty for x.f
	star  bool     // *x
}

// peelTarget decomposes a write target into its base identifier and
// access path.
func peelTarget(e ast.Expr) (*ast.Ident, []targetStep, bool) {
	var rev []targetStep
	for {
		switch v := unparen(e).(type) {
		case *ast.Ident:
			steps := make([]targetStep, 0, len(rev))
			for i := len(rev) - 1; i >= 0; i-- {
				steps = append(steps, rev[i])
			}
			return v, steps, true
		case *ast.IndexExpr:
			rev = append(rev, targetStep{index: v.Index})
			e = v.X
		case *ast.SelectorExpr:
			rev = append(rev, targetStep{field: v.Sel.Name})
			e = v.X
		case *ast.StarExpr:
			rev = append(rev, targetStep{star: true})
			e = v.X
		default:
			return nil, nil, false
		}
	}
}

// memory classes for a write target's base.
type memKind int

const (
	memShared   memKind = iota
	memLocal            // region-local memory: no site needed
	memHanded           // handed to this invocation by the region contract
	memCheckout         // arena/box checkout: worker-local by checkout discipline
)

// memClass decides whose memory a write through obj's access path
// lands in.
func (rc *regionCheck) memClass(obj types.Object, steps []targetStep) memKind {
	if obj == nil {
		return memShared
	}
	if rc.r.handed[obj] || (rc.r.worker != nil && obj == rc.r.worker) {
		return memHanded
	}
	if v, ok := obj.(*types.Var); ok && isWorkerNamed(v.Type()) && rc.locals[obj] {
		return memHanded // the invocation's own worker handle
	}
	if obj == rc.recv {
		return memShared // a RangeBody box is shared across invocations
	}
	if !rc.locals[obj] {
		return memShared
	}
	if len(steps) == 0 {
		return memLocal // plain local variable
	}
	// Does the access path leave the variable's own storage?
	t := obj.Type()
	crosses := false
	for _, st := range steps {
		switch {
		case st.star:
			crosses = true
		case st.index != nil:
			switch t.Underlying().(type) {
			case *types.Array:
				// stays inside the variable
			default:
				crosses = true
			}
		case st.field != "":
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				crosses = true
			}
		}
		if crosses {
			break
		}
		t = stepType(t, st)
		if t == nil {
			crosses = true
			break
		}
	}
	if !crosses {
		return memLocal
	}
	switch rc.freshness(obj, 0) {
	case freshLocal:
		return memLocal
	case freshCheckout:
		return memCheckout
	}
	return memShared
}

// stepType advances a type along one in-variable access step.
func stepType(t types.Type, st targetStep) types.Type {
	switch u := t.Underlying().(type) {
	case *types.Array:
		if st.index != nil {
			return u.Elem()
		}
	case *types.Struct:
		if st.field != "" {
			for i := 0; i < u.NumFields(); i++ {
				if u.Field(i).Name() == st.field {
					return u.Field(i).Type()
				}
			}
		}
	}
	return nil
}

type freshKind int

const (
	freshNot freshKind = iota
	freshLocal
	freshCheckout
)

// freshness reports whether a region-local variable's referent memory
// was created inside the region (make/new/composite), checked out from
// the worker's arena, or aliases something older.
func (rc *regionCheck) freshness(obj types.Object, depth int) freshKind {
	if depth > 6 || obj == nil || !rc.locals[obj] {
		return freshNot
	}
	fx := rc.facts[obj]
	if fx == nil || fx.def == nil || fx.assigns > 0 || fx.isLoop {
		return freshNot
	}
	return rc.freshExpr(fx.def, depth)
}

func (rc *regionCheck) freshExpr(e ast.Expr, depth int) freshKind {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		if v.Name == "nil" {
			return freshLocal
		}
		return rc.freshness(rc.tp.objOf(v), depth+1)
	case *ast.CompositeLit:
		return freshLocal
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if _, ok := unparen(v.X).(*ast.CompositeLit); ok {
				return freshLocal
			}
		}
	case *ast.SliceExpr:
		return rc.freshExpr(v.X, depth+1)
	case *ast.CallExpr:
		if id, ok := unparen(v.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "make", "new":
				return freshLocal
			case "append":
				if len(v.Args) > 0 {
					return rc.freshExpr(v.Args[0], depth+1)
				}
			}
		}
		if pathStr, name, isPkg := callTarget(rc.f, v); isPkg && isPath(pathStr, "internal/arena") {
			switch name {
			case "Alloc", "AllocUninit", "AcquireBox":
				return freshCheckout
			case "Standalone", "Of":
				return freshLocal
			}
		}
		// conversion wrapping a fresh expression
		if tv, ok := rc.tp.info.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			return rc.freshExpr(v.Args[0], depth+1)
		}
	}
	return freshNot
}

// classifyWrite classifies one write target and emits its site.
func (rc *regionCheck) classifyWrite(lhs ast.Expr) {
	target := types.ExprString(lhs)
	base, steps, ok := peelTarget(lhs)
	if !ok {
		rc.refuse(lhs, target, "write through unmodeled expression %s", target)
		return
	}
	obj := rc.tp.objOf(base)
	switch rc.memClass(obj, steps) {
	case memLocal:
		return
	case memHanded:
		detail := "handed slot"
		for _, st := range steps {
			if st.index != nil {
				detail = "handed chunk"
			}
		}
		rc.site(RaceWorkerLocal, detail, lhs, target)
		return
	case memCheckout:
		rc.site(RaceWorkerLocal, "arena checkout", lhs, target)
		return
	}

	// Shared memory. A held mutex guards anything.
	if len(rc.held) > 0 {
		rc.site(RaceLockGuarded, "guarded by "+lockLabel(rc.held[len(rc.held)-1]), lhs, target)
		return
	}

	// Map writes are never safe unlocked.
	for _, st := range steps {
		if st.index != nil && rc.isMapIndex(base, steps, st) {
			rc.refuse(lhs, target, "concurrent map write to %s", target)
			return
		}
	}

	// Index disjointness: the innermost index step that proves distinct
	// invocations reach distinct sub-objects certifies the whole path.
	var firstWhy string
	for _, st := range steps {
		if st.index == nil {
			continue
		}
		detail, why := rc.classifyIndex(st.index)
		if detail != "" {
			rc.site(RaceIndexDisjoint, detail, lhs, target)
			return
		}
		if firstWhy == "" {
			firstWhy = why
		}
	}

	// Join branches: state the sibling branch never touches is
	// exclusively this branch's for the duration of the join.
	if rc.r.sibling != nil && obj != nil && !identUsed(rc.tp, rc.r.sibling, obj) {
		rc.site(RaceWorkerLocal, "join-branch-exclusive", lhs, target)
		return
	}

	if firstWhy != "" {
		rc.refuse(lhs, target, "write to shared %s: %s", target, firstWhy)
		return
	}
	rc.refuse(lhs, target, "write to shared %s with no distinguishing index", target)
}

func (rc *regionCheck) isMapIndex(base *ast.Ident, steps []targetStep, at targetStep) bool {
	// Recompute the type at the step by expression typing: the indexed
	// expression's type is recorded by the checker.
	// Walk the steps rebuilding positions is overkill; approximate by
	// checking the base type chain.
	t := rc.baseTypeAt(base, steps, at)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

func (rc *regionCheck) baseTypeAt(base *ast.Ident, steps []targetStep, at targetStep) types.Type {
	obj := rc.tp.objOf(base)
	if obj == nil {
		return nil
	}
	t := obj.Type()
	for _, st := range steps {
		if st.star {
			p, ok := t.Underlying().(*types.Pointer)
			if !ok {
				return nil
			}
			t = p.Elem()
			continue
		}
		if st.field != "" {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			u, ok := t.Underlying().(*types.Struct)
			if !ok {
				return nil
			}
			found := false
			for i := 0; i < u.NumFields(); i++ {
				if u.Field(i).Name() == st.field {
					t = u.Field(i).Type()
					found = true
					break
				}
			}
			if !found {
				return nil
			}
			continue
		}
		if st.index == at.index {
			return t
		}
		switch u := t.Underlying().(type) {
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			return nil
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Site emission
// ---------------------------------------------------------------------

func (rc *regionCheck) site(class, detail string, at ast.Node, target string) {
	pos := rc.rp.a.fset.Position(at.Pos())
	rc.sites = append(rc.sites, RaceSite{
		File: rc.f.rel, Line: pos.Line, Col: pos.Column,
		Func: rc.fd.Name.Name, Region: rc.r.kind,
		Target: target, Class: class, Detail: detail,
	})
}

func (rc *regionCheck) refuse(at ast.Node, target, format string, args ...any) {
	pos := rc.rp.a.fset.Position(at.Pos())
	rc.sites = append(rc.sites, RaceSite{
		File: rc.f.rel, Line: pos.Line, Col: pos.Column,
		Func: rc.fd.Name.Name, Region: rc.r.kind,
		Target: target, Class: RaceRefused,
		Reason: fmt.Sprintf(format, args...),
		Marker: rc.rp.a.markerFor(rc.f, at),
	})
}

// ---------------------------------------------------------------------
// Small shared helpers
// ---------------------------------------------------------------------

func atomicWritePrefix(name string) bool {
	for p := range atomicWriteMethods {
		if len(name) >= len(p) && name[:len(p)] == p {
			return true
		}
	}
	return false
}

// isAtomicRecv reports whether e's type is one of sync/atomic's types.
func isAtomicRecv(tp *typedPkg, e ast.Expr) bool {
	tv, ok := tp.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isNamedIn(tv.Type, atomicPath)
}

// isNamedRecv reports whether e's type is one of the named types of
// the given package.
func isNamedRecv(tp *typedPkg, e ast.Expr, pkgPath string, names ...string) bool {
	tv, ok := tp.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	if !isPath(named.Obj().Pkg().Path(), pkgPath) {
		return false
	}
	for _, n := range names {
		if named.Obj().Name() == n {
			return true
		}
	}
	return false
}

func isNamedIn(t types.Type, pkgPath string) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return isPath(named.Obj().Pkg().Path(), pkgPath)
}

// identUsed reports whether any identifier in n resolves to obj.
func identUsed(tp *typedPkg, n ast.Node, obj types.Object) bool {
	used := false
	ast.Inspect(n, func(x ast.Node) bool {
		if used {
			return false
		}
		if id, ok := x.(*ast.Ident); ok {
			if tp.info.Uses[id] == obj || tp.info.Defs[id] == obj {
				used = true
			}
		}
		return !used
	})
	return used
}

// canonString renders an expression as a canonical comparison key
// (identifiers by object identity where resolvable).
// lockLabel strips canonString's #pos disambiguators for display: the
// certificate file must not churn when unrelated code moves a lock's
// declaration offset.
func lockLabel(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '#' {
			for i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9' {
				i++
			}
			continue
		}
		out = append(out, s[i])
	}
	return string(out)
}

func canonString(tp *typedPkg, e ast.Expr) string {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		if obj := tp.info.Uses[v]; obj != nil {
			return fmt.Sprintf("%s#%d", v.Name, obj.Pos())
		}
		if obj := tp.info.Defs[v]; obj != nil {
			return fmt.Sprintf("%s#%d", v.Name, obj.Pos())
		}
		return v.Name
	case *ast.SelectorExpr:
		x := canonString(tp, v.X)
		if x == "" {
			return ""
		}
		return x + "." + v.Sel.Name
	case *ast.StarExpr:
		return "*" + canonString(tp, v.X)
	}
	return ""
}

// exprEq is structural expression equality with identifiers compared by
// resolved object.
func exprEq(tp *typedPkg, a, b ast.Expr) bool {
	a, b = unparen(a), unparen(b)
	switch av := a.(type) {
	case *ast.Ident:
		bv, ok := b.(*ast.Ident)
		if !ok {
			return false
		}
		ao := tp.info.Uses[av]
		if ao == nil {
			ao = tp.info.Defs[av]
		}
		bo := tp.info.Uses[bv]
		if bo == nil {
			bo = tp.info.Defs[bv]
		}
		if ao != nil && bo != nil {
			return ao == bo
		}
		return av.Name == bv.Name
	case *ast.SelectorExpr:
		bv, ok := b.(*ast.SelectorExpr)
		return ok && av.Sel.Name == bv.Sel.Name && exprEq(tp, av.X, bv.X)
	case *ast.BasicLit:
		bv, ok := b.(*ast.BasicLit)
		return ok && av.Kind == bv.Kind && av.Value == bv.Value
	case *ast.BinaryExpr:
		bv, ok := b.(*ast.BinaryExpr)
		return ok && av.Op == bv.Op && exprEq(tp, av.X, bv.X) && exprEq(tp, av.Y, bv.Y)
	case *ast.CallExpr:
		bv, ok := b.(*ast.CallExpr)
		if !ok || len(av.Args) != len(bv.Args) || !exprEq(tp, av.Fun, bv.Fun) {
			return false
		}
		for i := range av.Args {
			if !exprEq(tp, av.Args[i], bv.Args[i]) {
				return false
			}
		}
		return true
	case *ast.IndexExpr:
		bv, ok := b.(*ast.IndexExpr)
		return ok && exprEq(tp, av.X, bv.X) && exprEq(tp, av.Index, bv.Index)
	case *ast.UnaryExpr:
		bv, ok := b.(*ast.UnaryExpr)
		return ok && av.Op == bv.Op && exprEq(tp, av.X, bv.X)
	}
	return false
}

// enclosingPath returns the node path from root down to the node at
// pos (inclusive of enclosing statements).
func enclosingPath(root ast.Node, pos token.Pos) []ast.Node {
	var path []ast.Node
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if pos < n.Pos() || pos >= n.End() {
			return false
		}
		path = append(path, n)
		return true
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		return walk(n)
	})
	return path
}
