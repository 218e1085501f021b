// Package collectives is the base analyzer the SPMD checker builds on:
// it computes, per package, which functions (transitively) perform a
// collective operation and which functions return values derived from
// processor identity — and it exports both summaries as package
// facts, so they survive package boundaries.
//
// It reports no diagnostics of its own. commverify lists it in
// Requires and consumes its Result: a classifier that answers "is
// this call a collective?" and "does this call's result depend on the
// processor's identity?" for local functions (summarized in this
// pass), for imported functions (summarized when their package was
// analyzed, carried here as facts), and for the directly-matched
// simulator entry points (vmlib).
//
// Cross-package flow is the point: a helper like
//
//	package grid
//	func MyRank(p *hypercube.Proc) int { return p.ID() % 4 }
//
// makes every caller of grid.MyRank identity-dependent, and a wrapper
// that hides a Reduce behind an exported function is still a
// collective at its call sites in other packages. Without facts both
// summaries stop at the package boundary and commverify's taint tier
// silently misses the divergence.
package collectives

import (
	"go/ast"
	"go/types"
	"sort"

	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/taint"
	"vmprim/internal/analysis/vmlib"
)

// Analyzer is the collectives entry point.
var Analyzer = &framework.Analyzer{
	Name:      "collectives",
	Doc:       "summarize collective-performing and identity-returning functions (facts only, no diagnostics)",
	FactTypes: []framework.Fact{(*Fact)(nil)},
	Run:       run,
}

// Fact is one package's summary: the qualified names (TypeName.Method
// for methods, plain name for functions) of its collective-performing
// and identity-returning functions.
type Fact struct {
	Collective []string
	Identity   []string
}

// AFact marks Fact as a framework fact.
func (*Fact) AFact() {}

// Result is the classifier handed to dependent analyzers.
type Result struct {
	info *types.Info
	// localColl / localIdent summarize this package's functions.
	localColl, localIdent map[*types.Func]bool
	// collNames / identNames hold "pkgpath:qualified" keys for
	// imported functions, resolved from facts.
	collNames, identNames map[string]bool
}

// IsCollectiveCall reports whether call is a collective: a directly
// matched simulator entry point, or a function summarized (locally or
// by facts) as transitively performing one.
func (r *Result) IsCollectiveCall(call *ast.CallExpr) bool {
	if vmlib.IsCollectiveCall(r.info, call) {
		return true
	}
	f := vmlib.Callee(r.info, call)
	return f != nil && (r.localColl[f] || r.collNames[factKey(f)])
}

// IsIdentityCall reports whether call's result derives from processor
// identity: a direct identity read, or a call to a function
// summarized (locally or by facts) as returning identity.
func (r *Result) IsIdentityCall(call *ast.CallExpr) bool {
	if vmlib.IsIdentityRead(r.info, call) {
		return true
	}
	f := vmlib.Callee(r.info, call)
	return f != nil && (r.localIdent[f] || r.identNames[factKey(f)])
}

// TaintConfig is the taint engine configuration using this result's
// classifications.
func (r *Result) TaintConfig() taint.Config {
	return taint.Config{
		Info:             r.info,
		IsIdentityCall:   r.IsIdentityCall,
		IsReplicatedCall: r.IsCollectiveCall,
	}
}

// factKey is the cross-package lookup key of a function: package path
// plus the qualified name used in facts.
func factKey(f *types.Func) string {
	if f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path() + ":" + qualifiedName(f)
}

// qualifiedName renders a function as it appears in a Fact:
// "TypeName.Method" for methods, the bare name for functions.
func qualifiedName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + f.Name()
		}
	}
	return f.Name()
}

func run(pass *framework.Pass) (any, error) {
	res := &Result{
		info:       pass.TypesInfo,
		localColl:  make(map[*types.Func]bool),
		localIdent: make(map[*types.Func]bool),
		collNames:  make(map[string]bool),
		identNames: make(map[string]bool),
	}

	// Resolve every visible fact into name sets. The store holds the
	// facts of all packages analyzed before this one (standalone) or
	// reachable through dependency vetx files (vet driver).
	for _, pf := range pass.AllPackageFacts() {
		fact := pf.Fact.(*Fact)
		for _, n := range fact.Collective {
			res.collNames[pf.Path+":"+n] = true
		}
		for _, n := range fact.Identity {
			res.identNames[pf.Path+":"+n] = true
		}
	}

	// Collect this package's function bodies (test files excluded, as
	// everywhere: tests deliberately exercise the broken patterns).
	bodies := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		if vmlib.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					bodies[obj] = fn
				}
			}
		}
	}

	// Two fixpoints, in order. Collective status first: it depends
	// only on itself (a caller of a collective-performing helper is
	// collective). Identity second: its taint engine uses collective
	// status as the sanitizer, so it must see the *complete* collective
	// set — judging a return value before a helper it flows through is
	// known to be replicated would taint it permanently (fixpoints only
	// add), misclassifying functions like ReduceColLoc whose results
	// ride an all-reduce and are identical on every processor.
	for changed := true; changed; {
		changed = false
		for obj, fn := range bodies {
			if !res.localColl[obj] && bodyPerformsCollective(res, fn) {
				res.localColl[obj] = true
				changed = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, fn := range bodies {
			if !res.localIdent[obj] && returnsIdentity(res, fn) {
				res.localIdent[obj] = true
				changed = true
			}
		}
	}

	// Export the summary for importers. An empty fact is not exported:
	// absence and emptiness mean the same thing to consumers.
	fact := &Fact{}
	for obj := range res.localColl {
		fact.Collective = append(fact.Collective, qualifiedName(obj))
	}
	for obj := range res.localIdent {
		fact.Identity = append(fact.Identity, qualifiedName(obj))
	}
	sort.Strings(fact.Collective)
	sort.Strings(fact.Identity)
	if len(fact.Collective) > 0 || len(fact.Identity) > 0 {
		pass.ExportPackageFact(fact)
	}
	return res, nil
}

// bodyPerformsCollective reports whether fn's body contains a
// collective call under the current summaries, including inside
// nested function literals: a function that builds and runs an SPMD
// closure performs that closure's collectives.
func bodyPerformsCollective(res *Result, fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && res.IsCollectiveCall(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// returnsIdentity reports whether any return value of fn derives from
// processor identity under the current summaries. Nested literals are
// skipped: their returns are not fn's returns.
func returnsIdentity(res *Result, fn *ast.FuncDecl) bool {
	cfg := res.TaintConfig()
	tainted := cfg.Objects(fn)
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if cfg.Expr(tainted, r) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}
