package lint

// Interprocedural non-negativity summaries: the scan proof
// (provenance.go proveScan) demands that every value written into the
// offsets buffer before the prefix sum is provably >= 0, and real
// encoders compute those values in a helper — the compressed-CSR
// builder fills `offsets[v+1] = int64(encRowSize(v, row))` where the
// size computation lives three calls deep in the codec. Inlining is
// out of scope for a syntactic certifier, so nnExpr instead asks this
// file one question per callee: is every value this function returns
// non-negative, independent of its arguments?
//
// The answer is built by running the same non-negativity fixpoint
// (prover.ensureNN) inside the callee and checking each return
// expression with nnExpr there. Parameters are never in the callee's
// assumption set unless unsigned-typed, so a "yes" holds for all
// inputs; recursion is cut by the shared memo (summarycore.go): a back
// edge answers "no", which is always sound. The result is memoized per
// *types.Func on the typeLoader, like the slice summaries in summary.go.

import (
	"go/ast"
	"go/types"
)

// nnSummaryFor reports (memoized) whether fn provably returns only
// non-negative values regardless of its arguments. false means
// "unproven", never "negative".
func (l *typeLoader) nnSummaryFor(fn *types.Func) bool {
	// A back edge answers false: no induction across recursion.
	return l.nnSums.get(fn, false, func() bool { return l.buildNNSummary(fn) })
}

func (l *typeLoader) buildNNSummary(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Variadic() || sig.Recv() != nil {
		return false // receiver state is not modeled
	}
	if sig.Results().Len() != 1 || !isIntType(sig.Results().At(0).Type()) {
		return false
	}
	d := l.declOf(fn)
	if d == nil || d.fd.Body == nil || d.tp.tpkg == nil {
		return false
	}

	sp := newProver(l.a, d.tp, d.f, d.fd, l)
	sp.ensureNN()
	returns, allNN := 0, true
	ast.Inspect(d.fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // closure returns are not fn's returns
		}
		r, isRet := n.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		returns++
		if len(r.Results) != 1 || !sp.nnExpr(r.Results[0]) {
			allNN = false
		}
		return true
	})
	return returns > 0 && allNN
}
