// Package taint is the identity-taint engine of the SPMD checker
// (commverify's fallback tier and the collectives summaries it reads):
// it decides which local variables and expressions of a function
// derive from processor identity.
//
// The model is deliberately simple and shared so the analyzers agree
// on what "identity-derived" means:
//
//   - sources are direct identity reads (Proc.ID, Env.GridRow/GridCol
//     — vmlib.IsIdentityRead) plus any call the Config classifies as
//     an identity source (helpers summarized in the same package, or
//     cross-package via the collectives analyzer's facts);
//   - taint propagates through local assignments and declarations to
//     a fixpoint;
//   - collective results sanitize: a collective's result is
//     replicated — identical on every processor even when its
//     arguments differ per processor — so a call the Config
//     classifies as replicated contributes no taint;
//   - a function literal in an expression does not taint the
//     host-side result of the call it is passed to (the SPMD body
//     handed to Machine.Run is its own scope).
package taint

import (
	"go/ast"
	"go/types"

	"vmprim/internal/analysis/vmlib"
)

// Config parameterizes the engine with the two call classifications
// that differ per analyzer invocation.
type Config struct {
	Info *types.Info

	// IsIdentityCall reports calls whose results derive from
	// processor identity beyond the direct vmlib.IsIdentityRead
	// sources (identity-source helper functions). May be nil.
	IsIdentityCall func(*ast.CallExpr) bool

	// IsReplicatedCall reports calls whose results are replicated
	// across processors (collectives) and therefore sanitize taint.
	// May be nil.
	IsReplicatedCall func(*ast.CallExpr) bool
}

// Objects computes the set of objects in fn tainted by processor
// identity, to a fixpoint over local assignments and declarations.
func (c Config) Objects(fn ast.Node) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, r := range n.Rhs {
						if id, ok := n.Lhs[i].(*ast.Ident); ok && c.Expr(tainted, r) {
							changed = taintIdent(c.Info, tainted, id) || changed
						}
					}
				} else if len(n.Rhs) == 1 && c.Expr(tainted, n.Rhs[0]) {
					for _, l := range n.Lhs {
						if id, ok := l.(*ast.Ident); ok {
							changed = taintIdent(c.Info, tainted, id) || changed
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if c.Expr(tainted, v) {
						if len(n.Names) == len(n.Values) {
							changed = taintIdent(c.Info, tainted, n.Names[i]) || changed
						} else {
							for _, name := range n.Names {
								changed = taintIdent(c.Info, tainted, name) || changed
							}
						}
					}
				}
			}
			return true
		})
	}
	return tainted
}

// Expr reports whether e reads processor identity, given the tainted
// object set.
func (c Config) Expr(tainted map[types.Object]bool, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if vmlib.IsIdentityRead(c.Info, n) || (c.IsIdentityCall != nil && c.IsIdentityCall(n)) {
				found = true
				return false
			}
			if c.IsReplicatedCall != nil && c.IsReplicatedCall(n) {
				return false // replicated result: no taint in, none out
			}
		case *ast.Ident:
			if obj := c.Info.Uses[n]; obj != nil && tainted[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// taintIdent marks id's object tainted, reporting whether that is new
// information.
func taintIdent(info *types.Info, tainted map[types.Object]bool, id *ast.Ident) bool {
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil || tainted[obj] {
		return false
	}
	tainted[obj] = true
	return true
}
