package main

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"vmprim/internal/analysis/framework"
)

// TestFindingsJSON pins the -json wire shape: stable field names, fix
// description carried when present and omitted when not, and an empty
// slice (not null) for a clean run — CI consumers parse this.
func TestFindingsJSON(t *testing.T) {
	in := []framework.Finding{
		{
			Analyzer: "commverify",
			Pos:      token.Position{Filename: "a.go", Line: 3, Column: 7},
			Message:  "protocol deadlocks on the d=2 cube",
		},
		{
			Analyzer: "recyclecheck",
			Pos:      token.Position{Filename: "b.go", Line: 10, Column: 2},
			Message:  "buffer never recycled",
			Fixes: []framework.SuggestedFix{
				{Message: "add p.Recycle(buf)"},
				{Message: "second fix must not leak into the report"},
			},
		},
	}
	got, err := json.Marshal(findingsJSON(in))
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"file":"a.go","line":3,"col":7,"analyzer":"commverify","message":"protocol deadlocks on the d=2 cube"},` +
		`{"file":"b.go","line":10,"col":2,"analyzer":"recyclecheck","message":"buffer never recycled","fix":"add p.Recycle(buf)"}]`
	if string(got) != want {
		t.Errorf("wire shape drifted:\n got: %s\nwant: %s", got, want)
	}

	empty, err := json.Marshal(findingsJSON(nil))
	if err != nil {
		t.Fatal(err)
	}
	if string(empty) != "[]" {
		t.Errorf("clean run must encode as [], got %s", empty)
	}

	// The hostconc family rides the same wire: a lockdiscipline finding
	// with its defer-Unlock fix serializes with the analyzer name CI
	// keys annotations on.
	hc, err := json.Marshal(findingsJSON([]framework.Finding{{
		Analyzer: "lockdiscipline",
		Pos:      token.Position{Filename: "sse.go", Line: 42, Column: 2},
		Message:  "function ends with b.mu still locked (Lock without a matching Unlock)",
		Fixes:    []framework.SuggestedFix{{Message: "defer the matching Unlock"}},
	}}))
	if err != nil {
		t.Fatal(err)
	}
	wantHC := `[{"file":"sse.go","line":42,"col":2,"analyzer":"lockdiscipline",` +
		`"message":"function ends with b.mu still locked (Lock without a matching Unlock)",` +
		`"fix":"defer the matching Unlock"}]`
	if string(hc) != wantHC {
		t.Errorf("hostconc wire shape drifted:\n got: %s\nwant: %s", hc, wantHC)
	}
}

// TestProblemMatcherCoversAnalyzers proves the CI problem matcher's
// regexp captures every registered analyzer's findings — the analyzer
// names are the `code` capture group, so an all-lowercase name is part
// of each analyzer's contract.
func TestProblemMatcherCoversAnalyzers(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", ".github", "vmlint-problem-matcher.json"))
	if err != nil {
		t.Fatal(err)
	}
	var matcher struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp string `json:"regexp"`
				Code   int    `json:"code"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(data, &matcher); err != nil {
		t.Fatal(err)
	}
	if len(matcher.ProblemMatcher) != 1 || len(matcher.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("unexpected matcher shape: %s", data)
	}
	pat := matcher.ProblemMatcher[0].Pattern[0]
	re, err := regexp.Compile(pat.Regexp)
	if err != nil {
		t.Fatalf("matcher regexp does not compile: %v", err)
	}
	for _, a := range analyzers() {
		line := framework.Finding{
			Analyzer: a.Name,
			Pos:      token.Position{Filename: "internal/serve/sse.go", Line: 7, Column: 3},
			Message:  "sample finding",
		}.String()
		m := re.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("matcher does not capture %s finding: %q", a.Name, line)
			continue
		}
		if m[pat.Code] != a.Name {
			t.Errorf("matcher code group captured %q, want %q in %q", m[pat.Code], a.Name, line)
		}
	}
}

// TestAnalyzerRoster guards the registration list: every analyzer the
// docs promise, exactly once, the hostconc family included.
func TestAnalyzerRoster(t *testing.T) {
	want := map[string]bool{
		"recyclecheck": false, "spanbalance": false,
		"simdeterminism": false, "commverify": false,
		"hostconc": false, "lockdiscipline": false, "goroutinelife": false,
		"chanprotocol": false,
	}
	for _, a := range analyzers() {
		seen, ok := want[a.Name]
		if !ok {
			t.Errorf("unexpected analyzer %q registered", a.Name)
		}
		if seen {
			t.Errorf("analyzer %q registered twice", a.Name)
		}
		want[a.Name] = true
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("analyzer %q not registered", name)
		}
	}
}
