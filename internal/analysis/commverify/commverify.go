// Package commverify is the SPMD-protocol checker: it decides whether
// every processor of a (sub)cube agrees on each exchange's dimension,
// tag and subcube, the property the runtime watchdog only reports
// after the deadlock has happened. It judges each SPMD scope — a
// function body, or a function literal such as the closure handed to
// Machine.Run — in one of two tiers, never both.
//
// Bounded model checking comes first. The scope is lowered to a small
// protocol IR — communication ops whose dimension/tag/mask arguments
// are integer expressions over p.ID(), p.Dim(), loop variables and
// inlined call arguments — then instantiated for all 2^d processor
// identities on every cube dimension d ≤ 4, and the per-proc automata
// are executed against each other under the runtime's own semantics.
// Unreceived sends, tag mismatches, statically certain ExchangeAll
// panics, and cyclically blocked states become diagnostics carrying a
// minimal counterexample schedule (which procs, which ops, which VT
// step). Point-to-point queues on a hypercube are single-producer, so
// the protocol system is confluent and one canonical schedule decides
// whether completion is reachable: a scope the extractor concretizes
// is genuinely proven (for the checked cube sizes), and a finding is a
// real property of the extracted protocol. Rank-asymmetric protocols
// that pair up — binomial trees, guarded subcubes, one-hop relays —
// are proven clean rather than flagged for their asymmetry.
//
// Span boundaries are part of the protocol: every processor must open
// and close the same spans in the same order, and a model-checked
// scope whose processors disagree on that sequence is reported.
//
// Scopes the model checker cannot decide fall to the taint tier
// (fallback.go): those the extractor cannot concretize — dynamic tags
// from NextTag, data-dependent branches, opaque callees, identity
// laundered through helpers — and open protocols, whose integer
// parameters are bound only where a caller inlines them. There a
// collective or span boundary, or an early return skipping one, under
// an identity-dependent condition, or an identity-derived dimension,
// mask, tag or root argument, is reported. Both tiers draw on the
// collectives analyzer's identity and collective summaries, facts
// included.
//
// The scope is the packages above the collective layer (core, apps,
// bench) and the top-level facade/example/command code. The
// collective and hypercube internals are exempt: a binomial-tree
// broadcast is nothing but rank-dependent sends and receives.
//
// Exported protocol summaries travel between packages as package
// facts, so a wrapper in one package and its caller in another are
// checked as one protocol (and functions whose protocol cannot be
// summarized are recorded as opaque, keeping callers honest).
package commverify

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"vmprim/internal/analysis/collectives"
	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/vmlib"
)

// Analyzer is the commverify entry point.
var Analyzer = &framework.Analyzer{
	Name:      "commverify",
	Doc:       "check SPMD protocol agreement: bounded model check of concretizable scopes, identity-taint rules for the rest",
	Requires:  []*framework.Analyzer{collectives.Analyzer},
	FactTypes: []framework.Fact{(*Fact)(nil)},
	Run:       run,
}

// Fact is one package's exported protocol summary: the marshalled
// protocol of every exported communicating function, plus the names
// of exported functions that communicate in ways the IR cannot
// express. The fact is exported even when both lists are empty — its
// presence tells importers "this package was analyzed, anything not
// listed is communication-free", which is what lets cross-package
// calls to plain helpers stay verifiable.
type Fact struct {
	Protocols map[string]string
	Opaque    []string
}

// AFact marks Fact as a framework fact.
func (*Fact) AFact() {}

func run(pass *framework.Pass) (any, error) {
	path := pass.Pkg.Path()
	factScope := inModule(path) && !vmlib.InScope(path, exemptPaths...)
	reportScope := vmlib.InScope(path, vmlib.CorePath, vmlib.AppsPath, vmlib.BenchPath) ||
		vmlib.InTopLevelScope(path)
	if !factScope && !reportScope {
		return nil, nil
	}
	summary := pass.ResultOf[collectives.Analyzer].(*collectives.Result)
	x := newExtractor(pass, summary)

	if factScope {
		x.exportFact()
	}
	if !reportScope {
		return nil, nil
	}

	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}

	for _, file := range pass.Files {
		if vmlib.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			fb := &fallback{pass: pass, summary: summary, cfg: summary.TaintConfig(), report: report}
			// judge hands a scope to the model checker when it lowered
			// cleanly, and to the taint fallback when it did not or the
			// check was inconclusive (an open protocol among them).
			judge := func(proto *protocol, ok bool, body *ast.BlockStmt) {
				if ok {
					if proto == nil || !proto.comm {
						return // lowered cleanly, nothing to agree on
					}
					if v, checked := boundedCheck(proto); checked {
						if v != nil {
							report(v.pos, "%s", v.msg)
						}
						return
					}
				}
				if fb.tainted == nil {
					fb.tainted = fb.cfg.Objects(fn)
				}
				fb.check(body)
			}
			// The declaration itself: functions go through the memoized
			// summary so local inlining is shared (a nil protocol that
			// is not opaque lowered cleanly but communicates nothing);
			// methods are lowered directly.
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok && fn.Recv == nil {
				e := x.protocolOf(obj)
				judge(e.proto, !e.opaque, fn.Body)
			} else {
				p, err := x.extractFunc(fn.Type, fn.Body)
				judge(p, err == nil, fn.Body)
			}
			// Every function literal underneath is its own SPMD scope.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					p, err := x.extractFunc(lit.Type, lit.Body)
					judge(p, err == nil, lit.Body)
				}
				return true
			})
		}
	}
	return nil, nil
}

// exportFact summarizes the package's exported functions for
// importers.
func (x *extractor) exportFact() {
	fact := &Fact{Protocols: make(map[string]string)}
	for f, decl := range x.bodies {
		if !decl.Name.IsExported() {
			continue
		}
		e := x.protocolOf(f)
		switch {
		case e.opaque:
			fact.Opaque = append(fact.Opaque, f.Name())
		case e.proto != nil && e.proto.comm:
			fact.Protocols[f.Name()] = marshalProtocol(e.proto)
		}
	}
	sort.Strings(fact.Opaque)
	x.pass.ExportPackageFact(fact)
}
