// Package framework is a self-contained reimplementation of the slice
// of golang.org/x/tools/go/analysis that the vmlint analyzers need:
// the Analyzer/Pass/Diagnostic vocabulary, package facts with a
// Requires graph, suggested fixes, a package loader, a standalone
// runner with //lint:allow suppression, and the go vet -vettool
// unit-checker protocol.
//
// The build environment for this repository is hermetic — the module
// proxy is unreachable and the module must stay dependency-free — so
// the real x/tools packages cannot be added to go.mod. The API below
// mirrors theirs closely enough that swapping this package for
// golang.org/x/tools/go/analysis (plus unitchecker and analysistest)
// is a mechanical import change, which is the intended migration once
// the dependency is available.
//
// Differences from the real framework, chosen for simplicity:
//
//   - facts are package-level only: an analyzer summarizes a package
//     (which functions perform collectives, which discharge buffer
//     parameters) rather than attaching facts to individual objects;
//   - no SSA or CFG: analyzers work on the AST and go/types info;
//   - package loading shells out to `go list -export` and feeds the
//     compiler's export data to go/importer, instead of using
//     go/packages.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
)

// An Analyzer is one static check: a name, a documentation string, and
// a Run function invoked once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation: one summary line, a blank
	// line, then details.
	Doc string

	// Requires lists the analyzers whose results this one consumes.
	// The runner executes them first (on the same package) and makes
	// their results available through Pass.ResultOf.
	Requires []*Analyzer

	// FactTypes lists the concrete types (pointers to gob-encodable
	// structs implementing Fact) this analyzer may export or import.
	// Declaring them here registers them for serialization through the
	// vet -vettool protocol.
	FactTypes []Fact

	// Run applies the analyzer to a package. It reports findings via
	// pass.Report/Reportf, returns a result value for dependent
	// analyzers (or nil), and returns an error only for internal
	// analyzer failures (never for findings).
	Run func(pass *Pass) (any, error)
}

// A Fact is a serializable per-package summary produced by one
// analyzer while analyzing a package and consumed when analyzing its
// importers — the mechanism that carries the collectives identity-taint
// summaries and recyclecheck's ownership summaries across package
// boundaries. Concrete fact types must be pointers to gob-encodable
// structs, and a zero-valued fact must be distinguishable from an
// absent one (ImportPackageFact reports presence separately).
type Fact interface {
	// AFact is a marker method tying the type to this interface.
	AFact()
}

// A PackageFact pairs a fact with the package it describes.
type PackageFact struct {
	Path string
	Fact Fact
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the check being applied.
	Analyzer *Analyzer

	// Fset maps token positions of Files to file/line/column.
	Fset *token.FileSet

	// Files are the package's parsed syntax trees (comments included).
	Files []*ast.File

	// Pkg is the type-checked package.
	Pkg *types.Package

	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info

	// ResultOf holds the results of the analyzers named in
	// Analyzer.Requires, computed on this same package.
	ResultOf map[*Analyzer]any

	// Report delivers one diagnostic. The runner installs it; analyzer
	// code should prefer Reportf.
	Report func(Diagnostic)

	// facts is the run-wide fact store (shared across packages and
	// analyzers within one runner invocation).
	facts *FactStore
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportPackageFact records fact as this package's summary for the
// fact's concrete type, replacing any previous fact of that type. The
// type must be declared in Analyzer.FactTypes.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.checkFactType(fact)
	p.facts.set(p.Pkg.Path(), fact)
}

// ImportPackageFact copies the fact of fact's concrete type recorded
// for pkg (by this or an earlier pass, or read from a dependency's
// vetx file) into *fact, reporting whether one was present. The type
// must be declared in Analyzer.FactTypes.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	p.checkFactType(fact)
	return p.facts.get(pkg.Path(), fact)
}

// AllPackageFacts returns every fact in the store whose concrete type
// is declared in Analyzer.FactTypes, across all packages seen so far
// (analyzed earlier in this run, or imported through vetx files).
func (p *Pass) AllPackageFacts() []PackageFact {
	allowed := make(map[reflect.Type]bool, len(p.Analyzer.FactTypes))
	for _, ft := range p.Analyzer.FactTypes {
		allowed[reflect.TypeOf(ft)] = true
	}
	var out []PackageFact
	for _, pf := range p.facts.all() {
		if allowed[reflect.TypeOf(pf.Fact)] {
			out = append(out, pf)
		}
	}
	return out
}

// checkFactType panics unless fact's type is declared in FactTypes —
// an undeclared type would silently fail to round-trip through the
// vet protocol, so it is an analyzer bug.
func (p *Pass) checkFactType(fact Fact) {
	t := reflect.TypeOf(fact)
	for _, ft := range p.Analyzer.FactTypes {
		if reflect.TypeOf(ft) == t {
			return
		}
	}
	panic(fmt.Sprintf("analyzer %s: fact type %s not declared in FactTypes", p.Analyzer.Name, t))
}

// A Diagnostic is one finding at a source position, optionally
// carrying machine-applicable fixes.
type Diagnostic struct {
	Pos     token.Pos
	Message string

	// SuggestedFixes are edits that resolve the diagnostic. Each fix
	// must be self-contained; the driver applies at most one fix per
	// diagnostic (the first), and drops fixes whose edits overlap
	// edits already taken from earlier diagnostics.
	SuggestedFixes []SuggestedFix
}

// A SuggestedFix is one machine-applicable resolution of a
// diagnostic: a short description and the text edits that realize it.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// A TextEdit replaces the source range [Pos, End) with NewText.
// End == token.NoPos means a pure insertion at Pos.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// WalkStack traverses root in depth-first source order, calling fn for
// every node with the stack of enclosing nodes (outermost first, not
// including n itself). If fn returns false the node's children are
// skipped. Analyzers use it where x/tools code would use
// inspector.WithStack.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}
