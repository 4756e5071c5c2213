package lint

// Index-disjointness subrules for the races pass: given a write
// xs[idx] to shared memory inside a parallel region, prove that
// distinct concurrent invocations produce distinct idx values.
//
// The foundation is a set of "task-distinguishing" variables — values
// the region contract guarantees are unique per concurrent invocation:
//
//	task-affine     the primitive's per-task index parameter
//	range-owner     a loop variable over the invocation's handed
//	                [lo, hi) subrange (For / RunRange contract)
//	block-owner     a loop variable over [t*B, t*B+B) for a
//	                task-distinguishing t (two-pass blocked kernels)
//	unique-handout  an atomic counter's Add(d)-d result
//	worker-owned    w.ID() of the invocation's own worker
//	residue-class   t + j*extent: distinct residues mod the region
//	                extent, with t in [0, extent)
//
// An index that is an affine function of exactly one
// task-distinguishing variable (nonzero coefficient) plus
// region-invariant terms inherits its disjointness: scaling a family
// of pairwise-disjoint integer sets by a nonzero constant and shifting
// them all by the same amount keeps them pairwise disjoint.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// classifyIndex proves idx unique per concurrent invocation.
// detail != "" names the successful subrule; otherwise why explains
// the failure.
func (rc *regionCheck) classifyIndex(idx ast.Expr) (detail, why string) {
	if d := rc.matchResidue(idx); d != "" {
		return d, ""
	}
	if d := rc.matchBlockScaled(idx); d != "" {
		return d, ""
	}
	if rc.matchUniqueHandout(idx) {
		return "unique-handout", ""
	}
	if rc.matchWorkerID(idx) {
		return "worker-owned", ""
	}
	terms, _, ok := rc.parseAffine(idx, 0)
	if !ok {
		return "", "index " + types.ExprString(idx) + " is not an affine form the analysis models"
	}
	var taskDetail string
	taskCount := 0
	for _, t := range terms {
		if t.coef == 0 {
			continue
		}
		if t.obj != nil {
			if res := rc.taskDetail(t.obj); res.ok {
				taskCount++
				taskDetail = res.detail
				continue
			}
		}
		if rc.invariantTerm(t) {
			continue
		}
		return "", "index " + types.ExprString(idx) + " depends on " + t.name + ", which is neither task-distinguishing nor region-invariant"
	}
	switch taskCount {
	case 1:
		return taskDetail, ""
	case 0:
		return "", "index " + types.ExprString(idx) + " does not vary by task: concurrent invocations write the same element"
	default:
		return "", "index " + types.ExprString(idx) + " mixes several task-distinguishing variables"
	}
}

// taskDetail decides whether obj is task-distinguishing, memoized.
func (rc *regionCheck) taskDetail(obj types.Object) taskRes {
	if res, done := rc.taskMemo[obj]; done {
		return res
	}
	rc.taskMemo[obj] = taskRes{} // cut recursion
	res := rc.taskDetailUncached(obj)
	rc.taskMemo[obj] = res
	return res
}

func (rc *regionCheck) taskDetailUncached(obj types.Object) taskRes {
	if d, isTask := rc.r.task[obj]; isTask {
		return taskRes{detail: d, ok: true}
	}
	if lv := rc.loops[obj]; lv != nil {
		if rc.isRangeOwnerLoop(lv) {
			return taskRes{detail: "range-owner", ok: true}
		}
		if rc.isBlockOwnerLoop(lv) {
			return taskRes{detail: "block-owner", ok: true}
		}
		return taskRes{}
	}
	fx := rc.facts[obj]
	if fx == nil || fx.def == nil || fx.assigns > 0 || !rc.locals[obj] {
		return taskRes{}
	}
	def := fx.def
	if rc.matchUniqueHandout(def) {
		return taskRes{detail: "unique-handout", ok: true}
	}
	if rc.matchWorkerID(def) {
		return taskRes{detail: "worker-owned", ok: true}
	}
	if id, ok := rc.unwrapConv(def).(*ast.Ident); ok {
		if inner := rc.tp.objOf(id); inner != nil && inner != obj {
			return rc.taskDetail(inner)
		}
	}
	return taskRes{}
}

// isRangeOwnerLoop: the loop runs over the invocation's handed
// subrange [lo, hi) (Worker.For / RunRange contract: subranges handed
// to concurrent invocations are disjoint).
func (rc *regionCheck) isRangeOwnerLoop(lv *raceLoop) bool {
	if rc.r.rangeLo == nil || rc.r.rangeHi == nil || lv.lo == nil || lv.hi == nil {
		return false
	}
	loID, ok := rc.unwrapConv(lv.lo).(*ast.Ident)
	if !ok || rc.tp.objOf(loID) != rc.r.rangeLo {
		return false
	}
	hiID, ok := rc.unwrapConv(lv.hi).(*ast.Ident)
	return ok && rc.tp.objOf(hiID) == rc.r.rangeHi
}

// isBlockOwnerLoop: the loop runs over [t*B, t*B+B) — possibly capped
// from above — for a task-distinguishing t, so concurrent invocations
// own disjoint blocks. Matches both the symbolic two-pass scan shape
// (blo := ci*s.block; bhi := min(blo+s.block, n)) and the constant
// shape (base := wi*64; hi := base+64 with a shrink guard).
func (rc *regionCheck) isBlockOwnerLoop(lv *raceLoop) bool {
	if lv.lo == nil || lv.hi == nil {
		return false
	}
	loF := rc.foldIdent(lv.lo, false)
	t, stride := rc.matchProduct(loF)
	if t == nil {
		return false
	}
	hiF := rc.foldIdent(lv.hi, true)
	for _, cand := range rc.minCandidates(hiF) {
		cand = rc.unwrapConv(cand)
		if add, ok := cand.(*ast.BinaryExpr); ok && add.Op == token.ADD {
			// hi = lo + S
			for _, ord := range [][2]ast.Expr{{add.X, add.Y}, {add.Y, add.X}} {
				base, s2 := ord[0], ord[1]
				if !exprEq(rc.tp, s2, stride) {
					continue
				}
				if exprEq(rc.tp, base, lv.lo) || exprEq(rc.tp, base, loF) {
					return true
				}
			}
		}
		if mul, ok := cand.(*ast.BinaryExpr); ok && mul.Op == token.MUL {
			// hi = (t+1) * S
			for _, ord := range [][2]ast.Expr{{mul.X, mul.Y}, {mul.Y, mul.X}} {
				p, s2 := ord[0], ord[1]
				if !exprEq(rc.tp, s2, stride) {
					continue
				}
				pT, pK, okP := rc.parseAffine(p, 0)
				if !okP || pK != 1 || len(pT) != 1 {
					continue
				}
				for _, tm := range pT {
					if tm.coef == 1 && tm.obj != nil && tm.obj == rc.tp.objOf(t) {
						return true
					}
				}
			}
		}
	}
	// Constant-coefficient fallback: lo and hi affine over the same
	// single task variable with equal coefficient a and 0 < hi-lo <= a.
	loT, loK, okLo := rc.parseAffine(lv.lo, 0)
	hiT, hiK, okHi := rc.parseAffine(rc.foldIdent(lv.hi, true), 0)
	if !okLo || !okHi || len(loT) != len(hiT) {
		return false
	}
	var coef int64
	seen := 0
	for key, t1 := range loT {
		t2 := hiT[key]
		if t2 == nil || t2.coef != t1.coef {
			return false
		}
		if t1.obj != nil && rc.taskDetail(t1.obj).ok {
			seen++
			coef = t1.coef
			continue
		}
		if !rc.invariantTerm(t1) {
			return false
		}
	}
	if seen != 1 || coef <= 0 {
		return false
	}
	d := hiK - loK
	return d > 0 && d <= coef
}

// matchProduct matches t*S (or S*t) with t task-distinguishing,
// returning t's identifier and the stride expression.
func (rc *regionCheck) matchProduct(e ast.Expr) (*ast.Ident, ast.Expr) {
	mul, ok := rc.unwrapConv(e).(*ast.BinaryExpr)
	if !ok || mul.Op != token.MUL {
		return nil, nil
	}
	for _, ord := range [][2]ast.Expr{{mul.X, mul.Y}, {mul.Y, mul.X}} {
		id, ok := rc.unwrapConv(ord[0]).(*ast.Ident)
		if !ok {
			continue
		}
		if obj := rc.tp.objOf(id); obj != nil && rc.taskDetail(obj).ok {
			return id, ord[1]
		}
	}
	return nil, nil
}

// minCandidates unwraps min(a, b, ...) calls: a loop bound capped by
// min only shrinks the block.
func (rc *regionCheck) minCandidates(e ast.Expr) []ast.Expr {
	call, ok := rc.unwrapConv(e).(*ast.CallExpr)
	if ok {
		if id, isID := unparen(call.Fun).(*ast.Ident); isID && id.Name == "min" {
			return call.Args
		}
	}
	return []ast.Expr{e}
}

// matchResidue matches t + j*extent (either operand order, either
// factor order): with t the region's per-task index in [0, extent),
// all writes of task t land in the residue class t mod extent.
func (rc *regionCheck) matchResidue(idx ast.Expr) string {
	if rc.r.extent == nil {
		return ""
	}
	add, ok := rc.unwrapConv(idx).(*ast.BinaryExpr)
	if !ok || add.Op != token.ADD {
		return ""
	}
	for _, ord := range [][2]ast.Expr{{add.X, add.Y}, {add.Y, add.X}} {
		tID, ok := rc.unwrapConv(ord[0]).(*ast.Ident)
		if !ok {
			continue
		}
		obj := rc.tp.objOf(tID)
		if obj == nil {
			continue
		}
		if _, seed := rc.r.task[obj]; !seed {
			continue // the [0, extent) bound holds only for the seed index
		}
		mul, ok := rc.unwrapConv(ord[1]).(*ast.BinaryExpr)
		if !ok || mul.Op != token.MUL {
			continue
		}
		if exprEq(rc.tp, mul.X, rc.r.extent) || exprEq(rc.tp, mul.Y, rc.r.extent) {
			return "residue-class"
		}
	}
	return ""
}

// matchBlockScaled matches t*S + j with t task-distinguishing and j a
// loop variable over [0, S): task t owns the block [t*S, (t+1)*S).
func (rc *regionCheck) matchBlockScaled(idx ast.Expr) string {
	add, ok := rc.unwrapConv(idx).(*ast.BinaryExpr)
	if !ok || add.Op != token.ADD {
		return ""
	}
	for _, ord := range [][2]ast.Expr{{add.X, add.Y}, {add.Y, add.X}} {
		jID, ok := rc.unwrapConv(ord[0]).(*ast.Ident)
		if !ok {
			continue
		}
		jObj := rc.tp.objOf(jID)
		if jObj == nil {
			continue
		}
		lv := rc.loops[jObj]
		if lv == nil || lv.lo == nil || lv.hi == nil || !isZeroExpr(lv.lo) {
			continue
		}
		mul, ok := rc.unwrapConv(ord[1]).(*ast.BinaryExpr)
		if !ok || mul.Op != token.MUL {
			continue
		}
		for _, mord := range [][2]ast.Expr{{mul.X, mul.Y}, {mul.Y, mul.X}} {
			tID, ok := rc.unwrapConv(mord[0]).(*ast.Ident)
			if !ok {
				continue
			}
			tObj := rc.tp.objOf(tID)
			if tObj == nil || !rc.taskDetail(tObj).ok {
				continue
			}
			if exprEq(rc.tp, mord[1], lv.hi) {
				return "block-scaled"
			}
		}
	}
	return ""
}

// matchUniqueHandout matches C.Add(d)-d / atomic.AddX(&C, d)-d for a
// shared scalar atomic counter C: every evaluation yields a distinct
// value.
func (rc *regionCheck) matchUniqueHandout(e ast.Expr) bool {
	sub, ok := rc.unwrapConv(e).(*ast.BinaryExpr)
	if !ok || sub.Op != token.SUB {
		return false
	}
	call, ok := unparen(sub.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	var counter ast.Expr
	var delta ast.Expr
	if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel && sel.Sel.Name == "Add" &&
		isAtomicRecv(rc.tp, sel.X) && len(call.Args) == 1 {
		counter, delta = sel.X, call.Args[0]
	} else if pathStr, name, isPkg := callTarget(rc.f, call); isPkg &&
		isPath(pathStr, atomicPath) && len(name) > 3 && name[:3] == "Add" && len(call.Args) == 2 {
		un, isUn := unparen(call.Args[0]).(*ast.UnaryExpr)
		if !isUn || un.Op != token.AND {
			return false
		}
		counter, delta = un.X, call.Args[1]
	} else {
		return false
	}
	if !exprEq(rc.tp, delta, sub.Y) {
		return false
	}
	// The counter must be a shared scalar: an element of a counter
	// array has per-element sequences that can collide across elements.
	base, steps, ok := peelTarget(counter)
	if !ok {
		return false
	}
	for _, st := range steps {
		if st.index != nil {
			return false
		}
	}
	obj := rc.tp.objOf(base)
	return obj != nil && rc.memClass(obj, steps) == memShared
}

// matchWorkerID matches w.ID() on the invocation's own worker: two
// concurrent invocations on distinct workers get distinct ids, and two
// invocations on the same worker run sequentially.
func (rc *regionCheck) matchWorkerID(e ast.Expr) bool {
	call, ok := rc.unwrapConv(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "ID" {
		return false
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok || rc.r.worker == nil {
		return false
	}
	return rc.tp.objOf(id) == rc.r.worker
}

// ---------------------------------------------------------------------
// Affine parsing
// ---------------------------------------------------------------------

// affTerm is one symbolic term of an affine sum.
type affTerm struct {
	obj   types.Object // nil for selector/len atoms
	name  string
	canon string // canonical key for selector atoms (fieldWr lookups)
	coef  int64
}

// parseAffine decomposes e into sum(coef_i * atom_i) + k. Constant
// subexpressions fold through go/types' constant evaluation;
// single-definition locals that are not task-distinguishing fold
// through their definitions.
func (rc *regionCheck) parseAffine(e ast.Expr, depth int) (map[string]*affTerm, int64, bool) {
	terms := map[string]*affTerm{}
	var k int64
	if !rc.affineInto(e, 1, terms, &k, depth) {
		return nil, 0, false
	}
	return terms, k, true
}

func (rc *regionCheck) affineInto(e ast.Expr, scale int64, terms map[string]*affTerm, k *int64, depth int) bool {
	if depth > 12 {
		return false
	}
	e = unparen(e)
	// Constant fold.
	if tv, ok := rc.tp.info.Types[e]; ok && tv.Value != nil {
		if v, exact := constInt64(tv.Value); exact {
			*k += scale * v
			return true
		}
		return false
	}
	switch v := e.(type) {
	case *ast.Ident:
		obj := rc.tp.objOf(v)
		if obj == nil {
			return false
		}
		if !rc.taskDetail(obj).ok && rc.foldable(obj) {
			return rc.affineInto(rc.facts[obj].def, scale, terms, k, depth+1)
		}
		addTerm(terms, &affTerm{obj: obj, name: v.Name}, scale)
		return true
	case *ast.SelectorExpr:
		canon := canonString(rc.tp, v)
		if canon == "" {
			return false
		}
		addTerm(terms, &affTerm{name: types.ExprString(v), canon: canon}, scale)
		return true
	case *ast.BinaryExpr:
		switch v.Op {
		case token.ADD:
			return rc.affineInto(v.X, scale, terms, k, depth+1) &&
				rc.affineInto(v.Y, scale, terms, k, depth+1)
		case token.SUB:
			return rc.affineInto(v.X, scale, terms, k, depth+1) &&
				rc.affineInto(v.Y, -scale, terms, k, depth+1)
		case token.MUL:
			if c, ok := rc.constOf(v.X); ok {
				return rc.affineInto(v.Y, scale*c, terms, k, depth+1)
			}
			if c, ok := rc.constOf(v.Y); ok {
				return rc.affineInto(v.X, scale*c, terms, k, depth+1)
			}
			return false
		}
		return false
	case *ast.UnaryExpr:
		if v.Op == token.SUB {
			return rc.affineInto(v.X, -scale, terms, k, depth+1)
		}
		return false
	case *ast.CallExpr:
		// Conversion: transparent for index arithmetic.
		if tv, ok := rc.tp.info.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			return rc.affineInto(v.Args[0], scale, terms, k, depth+1)
		}
		// len(x) over a stable expression is an invariant atom.
		if id, ok := unparen(v.Fun).(*ast.Ident); ok && id.Name == "len" && len(v.Args) == 1 {
			if key := canonString(rc.tp, v.Args[0]); key != "" {
				addTerm(terms, &affTerm{name: types.ExprString(v)}, scale)
				return true
			}
		}
		return false
	}
	return false
}

func addTerm(terms map[string]*affTerm, t *affTerm, scale int64) {
	key := t.name
	if t.obj != nil {
		key = t.name + "#" + t.obj.Id()
	} else if t.canon != "" {
		key = t.canon
	}
	if have := terms[key]; have != nil {
		have.coef += scale
		return
	}
	t.coef = scale
	terms[key] = t
}

func constInt64(v interface{ ExactString() string }) (int64, bool) {
	// go/constant values: use the exact string for small integers.
	s := v.ExactString()
	var n int64
	neg := false
	for i, c := range s {
		if i == 0 && c == '-' {
			neg = true
			continue
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
		if n < 0 {
			return 0, false
		}
	}
	if neg {
		n = -n
	}
	return n, true
}

func (rc *regionCheck) constOf(e ast.Expr) (int64, bool) {
	if tv, ok := rc.tp.info.Types[unparen(e)]; ok && tv.Value != nil {
		return constInt64(tv.Value)
	}
	return 0, false
}

// foldable reports whether an identifier can be replaced by its
// single straight-line definition.
func (rc *regionCheck) foldable(obj types.Object) bool {
	if !rc.locals[obj] {
		return false
	}
	fx := rc.facts[obj]
	return fx != nil && fx.def != nil && fx.assigns == 0 && !fx.isLoop && !fx.addrTaken
}

// foldIdent resolves an identifier chain through single definitions.
// allowShrink additionally accepts variables whose only reassignments
// are shrink guards (caps that only lower the value).
func (rc *regionCheck) foldIdent(e ast.Expr, allowShrink bool) ast.Expr {
	for depth := 0; depth < 8; depth++ {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return e
		}
		obj := rc.tp.objOf(id)
		if obj == nil || !rc.locals[obj] {
			return e
		}
		fx := rc.facts[obj]
		if fx == nil || fx.def == nil || fx.isLoop || fx.addrTaken {
			return e
		}
		if fx.assigns > 0 && !(allowShrink && fx.shrinkOnly) {
			return e
		}
		e = fx.def
	}
	return e
}

// invariantTerm reports whether a term's value is the same for every
// concurrent invocation of the region.
func (rc *regionCheck) invariantTerm(t *affTerm) bool {
	if t.obj != nil {
		if rc.locals[t.obj] {
			return false // unfoldable local: varies within the region
		}
		fx := rc.facts[t.obj]
		return fx == nil || fx.assigns == 0
	}
	// Selector / len atom: invariant unless the region assigns it.
	return t.canon == "" || !rc.fieldWr[t.canon]
}

// unwrapConv strips parens and type conversions.
func (rc *regionCheck) unwrapConv(e ast.Expr) ast.Expr {
	for depth := 0; depth < 8; depth++ {
		e = unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return e
		}
		tv, ok := rc.tp.info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return e
		}
		e = call.Args[0]
	}
	return e
}
