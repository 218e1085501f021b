package framework_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmprim/internal/analysis/analysistest"
	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/recyclecheck"
)

// TestStaleSuppressionAudit: a //lint:allow directive that suppresses
// nothing is itself reported (pseudo-analyzer "directive") with a
// whole-line deletion fix matching the fixture's .golden, while the
// directive over a real diagnostic survives and is audited as used.
func TestStaleSuppressionAudit(t *testing.T) {
	testdata := filepath.Join("..", "testdata")
	res, fset := analysistest.Result(t, testdata, recyclecheck.Analyzer,
		"vmprim/internal/apps/stale", true)

	if len(res.Findings) != 1 {
		t.Fatalf("want exactly the stale-directive finding, got %v", res.Findings)
	}
	fd := res.Findings[0]
	if fd.Analyzer != "directive" || !strings.Contains(fd.Message, "suppresses no diagnostic") {
		t.Errorf("unexpected finding: %s", fd)
	}
	if len(fd.Fixes) != 1 {
		t.Fatalf("stale directive carries no deletion fix: %s", fd)
	}

	var sups []framework.Suppression
	for _, s := range res.Suppressions {
		if filepath.Base(s.File) == "stale.go" {
			sups = append(sups, s)
		}
	}
	if len(sups) != 2 {
		t.Fatalf("want 2 audited suppressions, got %+v", sups)
	}
	for _, s := range sups {
		if s.Analyzer != "recyclecheck" || s.Reason == "" {
			t.Errorf("suppression missing analyzer or reason: %+v", s)
		}
	}
	if sups[0].Used || sups[0].Line != fd.Pos.Line {
		t.Errorf("stale directive should be audited unused at the finding's line: %+v", sups[0])
	}
	if !sups[1].Used {
		t.Errorf("directive over the real leak should be audited used: %+v", sups[1])
	}

	fixed, err := framework.ApplyFixes(fset, res.Findings)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) != 1 {
		t.Fatalf("want one fixed file, got %d", len(fixed))
	}
	for file, got := range fixed {
		want, err := os.ReadFile(file + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("deleting the stale directive diverges from golden:\n%s",
				framework.Diff(file, want, got))
		}
	}
}

// TestUnknownAnalyzerDirective: a //lint:allow directive naming an
// analyzer outside the run set (a deleted or misspelled one) is not
// passed unjudged: it is audited unused and reported as a "directive"
// finding whose fix deletes the whole line.
func TestUnknownAnalyzerDirective(t *testing.T) {
	testdata := filepath.Join("..", "testdata")
	res, fset := analysistest.Result(t, testdata, recyclecheck.Analyzer,
		"vmprim/internal/apps/unknowndir", true)

	if len(res.Findings) != 1 {
		t.Fatalf("want exactly the unknown-analyzer finding, got %v", res.Findings)
	}
	fd := res.Findings[0]
	if fd.Analyzer != "directive" || !strings.Contains(fd.Message, "collorder names no analyzer in this run") {
		t.Errorf("unexpected finding: %s", fd)
	}
	if len(res.Suppressions) != 1 || res.Suppressions[0].Used {
		t.Errorf("unknown-analyzer directive should be audited unused: %+v", res.Suppressions)
	}

	fixed, err := framework.ApplyFixes(fset, res.Findings)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) != 1 {
		t.Fatalf("want one fixed file, got %d", len(fixed))
	}
	for file, got := range fixed {
		want, err := os.ReadFile(file + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("deleting the directive diverges from golden:\n%s", framework.Diff(file, want, got))
		}
	}
}
