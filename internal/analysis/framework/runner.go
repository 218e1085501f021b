package framework

import (
	"fmt"
	"go/token"
	"sort"
)

// A Finding is one diagnostic after suppression, positioned and
// attributed to its analyzer, carrying any machine-applicable fixes.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Fixes    []SuggestedFix
}

// String renders the finding in the conventional file:line:col form
// consumed by editors and CI annotators.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// A Suppression is one live //lint:allow directive, for audit
// listings (vmlint -suppressions).
type Suppression struct {
	File     string
	Line     int
	Analyzer string
	Reason   string
	// Used reports whether the directive suppressed at least one
	// diagnostic in this run. An unused directive is also reported as
	// a "directive" finding: it documents an exception that no longer
	// exists, which is exactly the kind of drift the audit catches.
	Used bool
}

// A RunResult is the outcome of applying the analyzer suite.
type RunResult struct {
	Findings     []Finding
	Suppressions []Suppression
}

// Run applies the analyzers (and, first, their Requires closure) to
// every package, honors //lint:allow directives, and returns the
// surviving findings sorted by position together with the suppression
// audit. Only findings from the requested analyzers are reported;
// required-but-unrequested analyzers run for their results and facts
// alone. Malformed directives (missing analyzer or reason), stale
// directives (suppressing nothing) and directives naming an analyzer
// outside the requested set are reported as findings of the
// pseudo-analyzer "directive" so they fail the lint gate.
//
// Packages are processed in dependency order so that package facts
// flow from imports to importers; pkgs marked FactsOnly contribute
// facts but no findings.
//
// Packages with type errors are not analyzed; Run returns an error
// naming them, since findings over broken types would be unreliable.
func Run(pkgs []*Package, analyzers []*Analyzer) (*RunResult, error) {
	return RunWithFacts(pkgs, analyzers, NewFactStore())
}

// RunWithFacts is Run against a caller-provided fact store, which may
// be pre-seeded (the unitchecker seeds it from dependency vetx files)
// and is left holding every fact exported during the run.
func RunWithFacts(pkgs []*Package, analyzers []*Analyzer, facts *FactStore) (*RunResult, error) {
	registerFactTypes(analyzers)
	ordered, err := analyzerOrder(analyzers)
	if err != nil {
		return nil, err
	}
	requested := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		requested[a.Name] = true
	}

	res := &RunResult{}
	for _, pkg := range packageOrder(pkgs) {
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("package %s has type errors (first: %v)", pkg.PkgPath, pkg.TypeErrors[0])
		}
		var dirs []*directive
		for _, f := range pkg.Files {
			ds, bad := parseDirectives(pkg.Fset, f)
			dirs = append(dirs, ds...)
			if pkg.FactsOnly {
				continue
			}
			for _, b := range bad {
				res.Findings = append(res.Findings, Finding{
					Analyzer: "directive",
					Pos:      pkg.Fset.Position(b.pos),
					Message:  b.msg,
				})
			}
		}
		results := make(map[*Analyzer]any, len(ordered))
		for _, a := range ordered {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				ResultOf:  make(map[*Analyzer]any, len(a.Requires)),
				facts:     facts,
			}
			for _, dep := range a.Requires {
				pass.ResultOf[dep] = results[dep]
			}
			report := requested[a.Name] && !pkg.FactsOnly
			pass.Report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				for _, dir := range dirs {
					if dir.suppresses(a.Name, pos, d.Pos) {
						dir.used = true
						return
					}
				}
				if report {
					res.Findings = append(res.Findings, Finding{
						Analyzer: a.Name, Pos: pos, Message: d.Message, Fixes: d.SuggestedFixes,
					})
				}
			}
			result, err := a.Run(pass)
			if err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
			results[a] = result
		}
		// Suppression audit: a directive that suppressed nothing is
		// dead weight (the exception it documented is gone) and is
		// itself reported, with a fix that deletes it. A directive
		// naming an analyzer outside the run set is reported the same
		// way: the set is the driver's roster, so the name belongs to
		// a deleted or misspelled analyzer and would otherwise pass
		// unjudged forever. Facts-only packages are not audited.
		for _, dir := range dirs {
			if pkg.FactsOnly {
				continue
			}
			res.Suppressions = append(res.Suppressions, Suppression{
				File: dir.file, Line: dir.line,
				Analyzer: dir.analyzer, Reason: dir.reason,
				Used: dir.used,
			})
			if dir.used {
				continue
			}
			msg := fmt.Sprintf("//lint:allow %s directive suppresses no diagnostic; remove it", dir.analyzer)
			if dir.analyzer != "all" && !requested[dir.analyzer] {
				msg = fmt.Sprintf("//lint:allow %s names no analyzer in this run; remove it", dir.analyzer)
			}
			res.Findings = append(res.Findings, Finding{
				Analyzer: "directive",
				Pos:      pkg.Fset.Position(dir.pos),
				Message:  msg,
				Fixes: []SuggestedFix{{
					Message:   "delete the stale directive",
					TextEdits: []TextEdit{{Pos: dir.pos, End: dir.end, NewText: nil}},
				}},
			})
		}
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	sort.Slice(res.Suppressions, func(i, j int) bool {
		a, b := res.Suppressions[i], res.Suppressions[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return res, nil
}

// closure expands analyzers to include their transitive Requires, in
// an order where dependencies precede dependents.
func closure(analyzers []*Analyzer) []*Analyzer {
	var out []*Analyzer
	seen := make(map[*Analyzer]bool)
	var visit func(a *Analyzer)
	visit = func(a *Analyzer) {
		if seen[a] {
			return
		}
		seen[a] = true
		for _, dep := range a.Requires {
			visit(dep)
		}
		out = append(out, a)
	}
	for _, a := range analyzers {
		visit(a)
	}
	return out
}

// analyzerOrder is closure plus cycle detection: a Requires cycle
// would deadlock the real framework's scheduler and is a programming
// error here too.
func analyzerOrder(analyzers []*Analyzer) ([]*Analyzer, error) {
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[*Analyzer]int)
	var out []*Analyzer
	var visit func(a *Analyzer) error
	visit = func(a *Analyzer) error {
		switch state[a] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analyzer Requires cycle through %s", a.Name)
		}
		state[a] = visiting
		for _, dep := range a.Requires {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[a] = done
		out = append(out, a)
		return nil
	}
	for _, a := range analyzers {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// packageOrder sorts pkgs so that every package follows the packages
// it imports (restricted to the given set), which is what lets facts
// exported while analyzing a dependency be imported while analyzing
// its dependents in the same run. Ties keep the incoming (sorted)
// order, so output remains deterministic.
func packageOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	var out []*Package
	state := make(map[*Package]int) // 1 = visiting, 2 = done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p] != 0 {
			return // done, or a cycle (impossible in valid Go) — either way stop
		}
		state[p] = 1
		if p.Types != nil {
			for _, imp := range p.Types.Imports() {
				if dep, ok := byPath[imp.Path()]; ok {
					visit(dep)
				}
			}
		}
		state[p] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}
