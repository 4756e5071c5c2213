package lint

// Interprocedural function summaries for the offset-provenance engine.
// When a certification site's offsets come straight out of an in-module
// helper — offsets := descending(n), offs, total := buckets(w, keys) —
// the intraprocedural prover used to refuse at the call boundary. The
// summary builder instead locates the helper's declaration, re-runs the
// provenance proof on the returned slice at the helper's single return
// statement (with a capture sink instead of a site sink), and expresses
// the proved domain bound in terms the caller can check: a constant, a
// parameter, the length of a slice parameter, or a sibling result (the
// scan proof's returned total). Summaries are memoized per
// (function, result, pattern) on the type loader, so helper-of-helper
// chains resolve naturally and recursion is cut off.
//
// Everything stays refusal-biased: variadic helpers, helpers with
// multiple or conditional returns, bounds not expressible in the
// helper's own parameters, and method values whose receiver state the
// engine cannot see are all refused with a chained reason.

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/core"
)

type boundKind int

const (
	boundConst    boundKind = iota // a compile-time constant
	boundParam                     // the k-th parameter's value
	boundLenParam                  // len(k-th parameter)
	boundResult                    // the j-th result (a scan's total)
)

// boundRef is a domain bound expressed against the helper's signature.
type boundRef struct {
	kind boundKind
	k    int   // parameter / result index
	c    int64 // boundConst value
}

// sumKey identifies one memoized summary. The pattern matters because
// the proof forms accept different patterns (a scan proof certifies
// RngInd only, a permutation proof SngInd only).
type sumKey struct {
	fn      *types.Func
	res     int
	pattern core.Pattern
}

// fnSummary is the result of summarizing one helper result.
type fnSummary struct {
	ok       bool
	reason   string // refusal chain when !ok
	source   string // packindex | affine-fill | permutation | scan
	chain    []string
	bound    boundRef
	fnName   string
	declLine int
}

func refusedSummary(format string, args ...any) *fnSummary {
	return &fnSummary{reason: fmt.Sprintf(format, args...)}
}

// proveViaSummary handles the interprocedural dispatch arm of proveVar:
// the offsets variable is defined as (one result of) an in-module call
// and never mutated afterwards. handled=false means the callee is not
// summarizable territory (out of module, unresolvable) and the generic
// refusal applies.
func (p *prover) proveViaSummary(pt *provePoint, name string, def *use, call *ast.CallExpr) (siteProof, bool) {
	if p.loader == nil {
		return siteProof{}, false
	}
	fn, _, _ := p.tp.calleeOf(call, nil)
	if fn == nil || fn.Pkg() == nil {
		return siteProof{}, false
	}
	if _, inModule := p.a.modRel(fn.Pkg().Path()); !inModule {
		return siteProof{}, false
	}
	sum := p.loader.summaryFor(fn, def.resIdx, pt.pattern, pt.property)
	if sum == nil {
		return siteProof{}, false
	}
	if !sum.ok {
		return refusal("offsets %q := %s(...): %s", name, sum.fnName, sum.reason), true
	}
	if !p.dominates(call.End(), pt) {
		return refusal("call site does not strictly follow the %s call", sum.fnName), true
	}

	// Map the helper-relative bound into the caller and check it.
	var boundLine string
	switch sum.bound.kind {
	case boundConst:
		ok, why := pt.sink.matchLen(p, lenDenot{cval: sum.bound.c, hasC: true})
		if why != "" {
			return refusal("%s", why), true
		}
		if !ok {
			return refusal("cannot prove len(target) equals %s's constant domain bound %d", sum.fnName, sum.bound.c), true
		}
		boundLine = fmt.Sprintf("len(target) == %s's constant domain bound %d: every offset is in bounds", sum.fnName, sum.bound.c)
	case boundParam:
		if sum.bound.k >= len(call.Args) {
			return refusal("the %s call has fewer arguments than its signature expects", sum.fnName), true
		}
		ok, why := pt.sink.matchLen(p, lenDenot{expr: call.Args[sum.bound.k]})
		if why != "" {
			return refusal("%s", why), true
		}
		if !ok {
			return refusal("cannot prove len(target) equals the bound passed to %s (argument %d)", sum.fnName, sum.bound.k+1), true
		}
		boundLine = fmt.Sprintf("len(target) == the domain bound passed to %s (argument %d): every offset is in bounds", sum.fnName, sum.bound.k+1)
	case boundLenParam:
		if sum.bound.k >= len(call.Args) {
			return refusal("the %s call has fewer arguments than its signature expects", sum.fnName), true
		}
		argID, isID := unparen(call.Args[sum.bound.k]).(*ast.Ident)
		if !isID {
			return refusal("the slice whose length bounds %s's output (argument %d) is not a simple variable at the call", sum.fnName, sum.bound.k+1), true
		}
		argObj := p.tp.objOf(argID)
		if argObj == nil || !p.stableObj(argObj) {
			return refusal("the slice whose length bounds %s's output (argument %d) does not have a stable header", sum.fnName, sum.bound.k+1), true
		}
		ok, why := pt.sink.matchLen(p, lenDenot{lenOf: argObj})
		if why != "" {
			return refusal("%s", why), true
		}
		if !ok {
			return refusal("cannot prove len(target) equals len(%s) passed to %s", argID.Name, sum.fnName), true
		}
		boundLine = fmt.Sprintf("len(target) == len(%s) passed to %s: every offset is in bounds", argID.Name, sum.fnName)
	case boundResult:
		if def.tupleLhs == nil || sum.bound.k >= len(def.tupleLhs) {
			return refusal("%s's bounding total (result %d) is discarded at the call", sum.fnName, sum.bound.k+1), true
		}
		sibID, isID := unparen(def.tupleLhs[sum.bound.k]).(*ast.Ident)
		if !isID {
			return refusal("%s's bounding total (result %d) is not bound to a simple variable", sum.fnName, sum.bound.k+1), true
		}
		sibObj := p.tp.objOf(sibID)
		if sibObj == nil || !p.stableObj(sibObj) {
			return refusal("%s's bounding total %q is not a stable variable", sum.fnName, sibID.Name), true
		}
		ok, why := pt.sink.matchTotal(p, sibObj)
		if why != "" {
			return refusal("%s", why), true
		}
		if !ok {
			return refusal("cannot prove len(target) equals %s's returned total %q", sum.fnName, sibID.Name), true
		}
		boundLine = fmt.Sprintf("len(target) == %s's returned total %q: boundaries are in bounds", sum.fnName, sibID.Name)
	default:
		return refusal("%s's summary has an unmapped bound", sum.fnName), true
	}

	chain := []string{fmt.Sprintf("offsets %q := %s(...) at line %d: certified by the interprocedural summary of %s (declared at line %d)",
		name, sum.fnName, p.line(def.pos), sum.fnName, sum.declLine)}
	for _, c := range sum.chain {
		chain = append(chain, sum.fnName+": "+c)
	}
	chain = append(chain, "no writes, aliases, or reorderings after the helper returns", boundLine)
	return siteProof{ok: true, source: sum.source, property: pt.property, chain: chain}, true
}

// summaryFor computes (memoized) the summary for result res of fn under
// the given pattern. nil means fn is not summarizable territory at all;
// a non-ok summary carries the refusal reason.
func (l *typeLoader) summaryFor(fn *types.Func, res int, pattern core.Pattern, property string) *fnSummary {
	return l.sums.get(sumKey{fn: fn, res: res, pattern: pattern},
		refusedSummary("helper %s is recursive; summaries do not cross back edges", fn.Name()),
		func() *fnSummary { return l.buildSummary(fn, res, pattern, property) })
}

func (l *typeLoader) buildSummary(fn *types.Func, res int, pattern core.Pattern, property string) *fnSummary {
	rel, inModule := l.a.modRel(fn.Pkg().Path())
	if !inModule {
		return nil
	}
	tp := l.check(rel)
	if tp == nil || tp.tpkg == nil {
		return refusedSummary("helper %s's package failed to type-check", fn.Name())
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return refusedSummary("helper %s has no resolvable signature", fn.Name())
	}
	s := &fnSummary{fnName: fn.Name()}
	if sig.Variadic() {
		s.reason = fmt.Sprintf("helper %s is variadic; argument positions cannot be mapped", s.fnName)
		return s
	}
	if sig.Results().Len() <= res {
		s.reason = fmt.Sprintf("helper %s does not return a value at position %d", s.fnName, res+1)
		return s
	}
	if _, isSlice := sig.Results().At(res).Type().Underlying().(*types.Slice); !isSlice {
		s.reason = fmt.Sprintf("helper %s's result %d is not a slice", s.fnName, res+1)
		return s
	}

	d := l.declOf(fn)
	if d == nil || d.fd.Body == nil {
		s.reason = fmt.Sprintf("helper %s's declaration was not found in the module", s.fnName)
		return s
	}
	fd := d.fd
	s.declLine = l.a.fset.Position(fd.Name.Pos()).Line

	sp := newProver(l.a, tp, d.f, fd, l)

	// Exactly one return statement, in straight-line context, with the
	// full result list spelled out.
	var ret *ast.ReturnStmt
	var retCtx evCtx
	returns := 0
	walkWithPath(fd, func(n ast.Node, path []ast.Node) {
		r, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		returns++
		ret = r
		retCtx = sp.ctxOf(path)
	})
	if returns != 1 {
		s.reason = fmt.Sprintf("helper %s has %d return statements; the summary needs exactly one", s.fnName, returns)
		return s
	}
	if !retCtx.straightLine() {
		s.reason = fmt.Sprintf("helper %s returns from inside a loop, conditional, or closure", s.fnName)
		return s
	}
	if len(ret.Results) != sig.Results().Len() {
		s.reason = fmt.Sprintf("helper %s's return does not name its results individually", s.fnName)
		return s
	}
	retID, isID := unparen(ret.Results[res]).(*ast.Ident)
	if !isID {
		s.reason = fmt.Sprintf("helper %s returns an expression, not a named local, at position %d", s.fnName, res+1)
		return s
	}

	cap := &captureSink{}
	pt := &provePoint{pos: ret.Pos(), ctx: retCtx, pattern: pattern, property: property, sink: cap}
	proof := sp.proveVar(pt, retID)
	if !proof.ok {
		s.reason = fmt.Sprintf("inside %s, %s", s.fnName, proof.reason)
		return s
	}

	// Express the captured bound against the helper's signature.
	paramIdx := tp.paramIndex(nil, fd.Type.Params) // call arguments exclude the receiver
	switch {
	case cap.total != nil:
		j := -1
		for i, r := range ret.Results {
			if i == res {
				continue
			}
			if id, ok := unparen(r).(*ast.Ident); ok && sp.tp.objOf(id) == cap.total {
				j = i
				break
			}
		}
		if j < 0 {
			s.reason = fmt.Sprintf("helper %s's scan total is not returned alongside the offsets", s.fnName)
			return s
		}
		s.bound = boundRef{kind: boundResult, k: j}
	case cap.hasBound:
		b, ok := sp.boundToRef(cap.bound, paramIdx)
		if !ok {
			s.reason = fmt.Sprintf("helper %s's domain bound is not expressible in its parameters", s.fnName)
			return s
		}
		s.bound = b
	default:
		s.reason = fmt.Sprintf("helper %s's proof produced no domain bound", s.fnName)
		return s
	}

	s.ok = true
	s.source = proof.source
	s.chain = proof.chain
	return s
}

// boundToRef rewrites a captured bound denotation against the helper's
// parameter list: a constant, a parameter identifier, len(parameter),
// or — through makeLen — the allocation length of the returned local.
func (p *prover) boundToRef(bound lenDenot, paramIdx map[types.Object]int) (boundRef, bool) {
	if c, ok := p.denotConst(bound); ok {
		return boundRef{kind: boundConst, c: c}, true
	}
	if bound.lenOf != nil {
		if k, isParam := paramIdx[bound.lenOf]; isParam {
			return boundRef{kind: boundLenParam, k: k}, true
		}
		// A local's symbolic length: resolve through its allocation.
		if M := p.makeLen(bound.lenOf); M != nil {
			return p.boundToRef(lenDenot{expr: M}, paramIdx)
		}
		return boundRef{}, false
	}
	if bound.expr == nil {
		return boundRef{}, false
	}
	e := p.canon(bound.expr)
	if id, isID := e.(*ast.Ident); isID {
		obj := p.tp.objOf(id)
		if obj == nil || !p.stableObj(obj) {
			return boundRef{}, false
		}
		if k, isParam := paramIdx[obj]; isParam {
			return boundRef{kind: boundParam, k: k}, true
		}
		return boundRef{}, false
	}
	if call, isCall := e.(*ast.CallExpr); isCall && len(call.Args) == 1 {
		if nm, isB := p.builtinName(call); isB && nm == "len" {
			if id, isID := unparen(call.Args[0]).(*ast.Ident); isID {
				obj := p.tp.objOf(id)
				if obj != nil && p.stableObj(obj) {
					if k, isParam := paramIdx[obj]; isParam {
						return boundRef{kind: boundLenParam, k: k}, true
					}
				}
			}
		}
	}
	return boundRef{}, false
}
