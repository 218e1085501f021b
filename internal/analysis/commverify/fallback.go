package commverify

import (
	"go/ast"
	"go/token"
	"go/types"

	"vmprim/internal/analysis/collectives"
	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/taint"
	"vmprim/internal/analysis/vmlib"
)

// The taint fallback: the second tier, for SPMD scopes the model
// checker cannot decide — the extractor cannot concretize them (a
// NextTag tag, a data-dependent branch, an opaque callee, a
// cross-package identity source), their protocol is open (integer
// parameters only a caller binds), or the check is inconclusive. Such
// a scope is judged by two syntactic rules over the identity taint the
// collectives analyzer computes, facts included:
//
//   - control: a collective or span boundary, or an early return that
//     skips a later one, inside an if/switch/for whose condition reads
//     processor identity — one processor enters, the rest do not;
//   - arguments: a communication call that receives an
//     identity-derived value in a structural parameter (dimension,
//     mask, tag, root), so partners disagree on the pairing.
//
// The rules see no pairing, so rank-asymmetric but matched protocols
// (a binomial tree, a guarded subcube) are out of their reach; that is
// why they only speak where the model checker cannot.

// structuralParams are the parameter names that determine how an
// operation pairs or groups processors. They follow the simulator's
// uniform naming: d/dim/dims for hypercube dimensions, mask for
// subcube selection, tag/wantTag for message matching, rootRel/root
// for collective roots. Payload parameters are deliberately absent:
// per-rank payloads are the point of SPMD.
var structuralParams = map[string]bool{
	"d": true, "dim": true, "dims": true,
	"mask": true,
	"tag":  true, "wantTag": true,
	"rootRel": true, "root": true,
}

// fallback carries the taint state of one function declaration; its
// scopes (the body and each function literal) are checked one by one.
type fallback struct {
	pass    *framework.Pass
	summary *collectives.Result
	cfg     taint.Config
	tainted map[types.Object]bool
	report  func(pos token.Pos, format string, args ...any)
}

// check applies both rules to one scope, never descending into nested
// function literals (each is its own scope).
func (f *fallback) check(scope *ast.BlockStmt) {
	f.checkControl(scope)
	f.checkArgs(scope)
}

// checkControl flags identity-dependent collectives and early returns.
func (f *fallback) checkControl(scope *ast.BlockStmt) {
	// Positions of the scope's non-deferred collective calls. An early
	// return only diverges processors when it skips a collective the
	// other processors go on to execute; deferred calls (the idiomatic
	// defer e.EndSpan()) run on every exit and cannot be skipped.
	var collPos []token.Pos
	ast.Inspect(scope, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if f.summary.IsCollectiveCall(n) {
				collPos = append(collPos, n.Pos())
			}
		}
		return true
	})
	collectiveAfter := func(pos token.Pos) bool {
		for _, p := range collPos {
			if p > pos {
				return true
			}
		}
		return false
	}

	ast.Inspect(scope, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		var cond ast.Expr
		var body []ast.Node
		switch s := n.(type) {
		case *ast.IfStmt:
			cond = s.Cond
			body = append(body, s.Body)
			if s.Else != nil {
				body = append(body, s.Else)
			}
		case *ast.SwitchStmt:
			if s.Tag != nil {
				cond = s.Tag
				body = append(body, s.Body)
				break
			}
			// Condition-less switch: the case guards run in order, so
			// everything from the first tainted guard on is
			// identity-dependent — reaching a later case requires the
			// tainted guard to have failed. Earlier cases are uniform.
			for i, c := range s.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					if f.cfg.Expr(f.tainted, e) {
						cond = e
						break
					}
				}
				if cond != nil {
					for _, later := range s.Body.List[i:] {
						body = append(body, later)
					}
					break
				}
			}
		case *ast.ForStmt:
			cond = s.Cond
			body = append(body, s.Body)
		default:
			return true
		}
		if cond == nil || !f.cfg.Expr(f.tainted, cond) {
			return true
		}
		for _, b := range body {
			f.flagIn(b, collectiveAfter)
		}
		return true
	})
}

// flagIn reports every collective call, and every early return that
// skips a later collective, lexically inside root.
func (f *fallback) flagIn(root ast.Node, collectiveAfter func(token.Pos) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if f.summary.IsCollectiveCall(n) {
				name := "collective"
				if fn := vmlib.Callee(f.pass.TypesInfo, n); fn != nil {
					name = fn.Name()
				}
				f.report(n.Pos(),
					"%s is control-dependent on processor identity: processors diverge and the run deadlocks", name)
			}
		case *ast.ReturnStmt:
			if collectiveAfter(n.Pos()) {
				f.report(n.Pos(),
					"early return under a processor-identity condition skips the collective(s) after it: processors diverge and the run deadlocks")
			}
		}
		return true
	})
}

// checkArgs flags every communication call — collective or
// point-to-point — that receives an identity-derived value in a
// structural parameter. A call is reported once, at its own position,
// however many of its arguments are tainted.
func (f *fallback) checkArgs(scope *ast.BlockStmt) {
	info := f.pass.TypesInfo
	ast.Inspect(scope, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		p2p := vmlib.IsProcMethod(info, call, p2pMethods...)
		if !p2p && !f.summary.IsCollectiveCall(call) {
			return true
		}
		fn := vmlib.Callee(info, call)
		if fn == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil {
			return true
		}
		for i, arg := range call.Args {
			name := sigParamName(sig, i)
			if !structuralParams[name] || !f.cfg.Expr(f.tainted, arg) {
				continue
			}
			kind := "collective"
			if p2p {
				kind = "exchange"
			}
			f.report(call.Pos(),
				"%s argument %q derives from processor identity: processors disagree on the pairing of this %s and the run deadlocks",
				fn.Name(), name, kind)
			break
		}
		return true
	})
}

// sigParamName maps an argument index to its parameter name, folding
// variadic tails onto the final parameter.
func sigParamName(sig *types.Signature, i int) string {
	n := sig.Params().Len()
	switch {
	case n == 0:
		return ""
	case i < n:
		return sig.Params().At(i).Name()
	case sig.Variadic():
		return sig.Params().At(n - 1).Name()
	}
	return ""
}
