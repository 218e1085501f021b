package commverify

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vmprim/internal/analysis/analysistest"
)

var testdata = filepath.Join("..", "testdata")

func TestCommverify(t *testing.T) {
	analysistest.Run(t, testdata, Analyzer, "vmprim/internal/apps/cv")
}

// TestCorder covers identity-derived structural arguments and
// identity-dependent branches whose arms communicate differently.
func TestCorder(t *testing.T) {
	analysistest.Run(t, testdata, Analyzer, "vmprim/internal/apps/corder")
}

// TestSPMD covers collectives under identity-dependent control, and
// proves the directive over the taint fallback's finding in
// holderGather is audited as used.
func TestSPMD(t *testing.T) {
	analysistest.Run(t, testdata, Analyzer, "vmprim/internal/apps/spmd")

	res, _ := analysistest.Result(t, testdata, Analyzer, "vmprim/internal/apps/spmd", true)
	if len(res.Suppressions) != 1 {
		t.Fatalf("want the one holderGather directive audited, got %+v", res.Suppressions)
	}
	if s := res.Suppressions[0]; s.Analyzer != "commverify" || !s.Used {
		t.Errorf("holderGather directive should suppress a commverify finding: %+v", s)
	}
}

// TestFacadeScope: example code that only touches the vmprim facade
// (aliased Proc/Env types, package-level kernel wrappers) is analyzed
// through the facade re-export rules in vmlib.
func TestFacadeScope(t *testing.T) {
	analysistest.Run(t, testdata, Analyzer, "vmprim/examples/exfix")
}

// TestCrossPackageFacts proves the RelaySkew finding rides on the
// xrelay protocol facts: with the dependency analyzed the tag
// mismatch is found, without it the scope is unverifiable and the
// model checker stays silent rather than guessing.
func TestCrossPackageFacts(t *testing.T) {
	count := func(withFacts bool) int {
		n := 0
		for _, f := range analysistest.Findings(t, testdata, Analyzer, "vmprim/internal/apps/cv", withFacts) {
			if strings.Contains(f.Message, "carries tag 4") {
				n++
			}
		}
		return n
	}
	if got := count(true); got != 1 {
		t.Errorf("with facts: got %d RelaySkew findings, want 1", got)
	}
	if got := count(false); got != 0 {
		t.Errorf("without facts: got %d RelaySkew findings, want 0 (the model checker must not judge unverifiable scopes)", got)
	}
}

// TestFallbackCrossPackageFacts drives the taint fallback's fixtures
// with and without dependency facts: the identity taint of
// xhelp.Quadrant and the collectiveness of xhelp.SumAll are known only
// through the collectives analyzer's package facts, so the
// diagnostics must appear when facts flow and vanish when they do not.
func TestFallbackCrossPackageFacts(t *testing.T) {
	for _, pkg := range []string{"xuse", "spmdx"} {
		t.Run(pkg, func(t *testing.T) {
			path := "vmprim/internal/apps/" + pkg
			analysistest.Run(t, testdata, Analyzer, path)
			for _, f := range analysistest.Findings(t, testdata, Analyzer, path, false) {
				t.Errorf("with facts disabled, cross-package diagnostic still reported: %s", f)
			}
		})
	}
}

// fallbackMessage matches the taint tier's diagnostics; every other
// commverify diagnostic comes from the bounded model check.
var fallbackMessage = regexp.MustCompile(`control-dependent on processor identity|derives from processor identity|early return under a processor-identity condition`)

// TestVerdictMatrix runs the checker over every SPMD fixture and pins
// its verdict per function: each function with a real protocol bug
// draws at least one finding, each function documented as clean draws
// none, and no scope is judged by both tiers.
func TestVerdictMatrix(t *testing.T) {
	buggy := map[string][]string{
		"internal/apps/corder": {"DemoDeadlock", "TagByRank", "TagByRankSized", "HelperDim", "EarlyReturn",
			"DimMismatch", "SwitchDiverge", "FanByRank", "FanVarByRank", "FanDiverge"},
		"internal/apps/cv": {"CrossShift", "HolderWrongMask", "LostSend", "TagSkew",
			"RecvFirst", "FanDup", "FanSkew", "RelaySkew", "OwnedCross"},
		"internal/apps/xuse": {"UseQuadrant", "GuardedSum"},
		"internal/apps/spmd": {"rootOnlyBcast", "rootOnlySized", "hiddenInHelper", "taintedVar",
			"earlyReturn", "closureGuarded", "switchGuards", "subcube", "guardedSpan", "spanSkipped"},
		"internal/apps/spmdx": {"GuardedReduce"},
		"examples/exfix":      {"Lopsided"},
	}
	clean := map[string][]string{
		"internal/apps/corder": {"SymmetricPayloads", "UniformChoice", "LoopFroth",
			"FanUniform", "FanSymmetric", "OwnerSwitch"},
		"internal/apps/cv": {"PipelinedShift", "TreeGather", "HolderSubcube", "Relay",
			"FanAll", "BarrierThenShift", "edgeSend", "LocalInline", "RelayPair", "ScrambleUser",
			"OwnedShift"},
		"internal/apps/spmd": {"uniform", "helper", "safeEarlyReturn", "sanitized",
			"hostCode", "holderGather", "phase", "spanUniform"},
		"examples/exfix": {"Balanced", "UniformRing"},
	}
	// The identity laundered through a helper's return value (locally
	// or across packages) is beyond the extractor, and an open protocol
	// is beyond the model checker: only the taint fallback sees these.
	fallbackOnly := map[string]string{
		"HelperDim":      `Exchange argument "d"`,
		"UseQuadrant":    `Exchange argument "d"`,
		"TagByRankSized": `Send argument "tag"`,
		"rootOnlySized":  `Bcast is control-dependent`,
	}

	tiers := map[string]map[bool]bool{} // scope → tiers that spoke
	for fixture, fns := range buggy {
		perFunc := map[string][]string{}
		for _, f := range analysistest.Findings(t, testdata, Analyzer, "vmprim/"+fixture, true) {
			fn, scope := scopeOf(t, f.Pos)
			perFunc[fn] = append(perFunc[fn], f.Message)
			if tiers[scope] == nil {
				tiers[scope] = map[bool]bool{}
			}
			tiers[scope][fallbackMessage.MatchString(f.Message)] = true
		}
		for _, fn := range fns {
			if len(perFunc[fn]) == 0 {
				t.Errorf("%s: %s has a protocol bug but draws no finding", fixture, fn)
			}
			if want, ok := fallbackOnly[fn]; ok && !strings.Contains(strings.Join(perFunc[fn], "\n"), want) {
				t.Errorf("%s: %s: want the fallback's %s finding, got %q", fixture, fn, want, perFunc[fn])
			}
		}
		for _, fn := range clean[fixture] {
			if len(perFunc[fn]) != 0 {
				t.Errorf("%s: %s is documented clean but draws %q", fixture, fn, perFunc[fn])
			}
		}
	}
	var fallbackScopes, bmcScopes int
	for scope, ts := range tiers {
		if ts[true] && ts[false] {
			t.Errorf("%s: findings from both tiers", scope)
		}
		if ts[true] {
			fallbackScopes++
		} else {
			bmcScopes++
		}
	}
	if fallbackScopes == 0 || bmcScopes == 0 {
		t.Errorf("both tiers should speak over the fixtures: %d fallback scopes, %d model-checked", fallbackScopes, bmcScopes)
	}
}

// scopeOf names the function declaring the position and the
// innermost SPMD scope (the declaration body or a function literal)
// holding it.
func scopeOf(t *testing.T, pos token.Position) (fn, scope string) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, pos.Filename, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := fset.File(file.Pos()).LineStart(pos.Line) + token.Pos(pos.Column-1)
	for _, decl := range file.Decls {
		d, ok := decl.(*ast.FuncDecl)
		if !ok || at < d.Pos() || at >= d.End() {
			continue
		}
		fn, scope = d.Name.Name, d.Name.Name
		ast.Inspect(d, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && lit.Pos() <= at && at < lit.End() {
				scope = fmt.Sprintf("%s/func@%d", d.Name.Name, fset.Position(lit.Pos()).Line)
			}
			return true
		})
		return fn, filepath.Base(pos.Filename) + ":" + scope
	}
	t.Fatalf("%s: finding outside every function", pos)
	return "", ""
}

// TestProtocolRoundTrip pins the fact wire format: marshal → parse →
// marshal must be the identity on a protocol exercising every IR
// construct.
func TestProtocolRoundTrip(t *testing.T) {
	inner := &protocol{
		params: []string{"$1"},
		body: []stmt{
			&opStmt{kind: opSend, dim: constE(0), tag: varE("$1")},
			&retStmt{},
		},
	}
	inner.comm, inner.p2p = scan(inner.body)
	p := &protocol{
		body: []stmt{
			&ifStmt{
				cond: binE(token.EQL, binE(token.AND, &expr{kind: eID}, constE(1)), constE(0)),
				then: []stmt{&opStmt{kind: opExchange, dim: constE(0), tag: constE(7)}},
				els:  []stmt{&opStmt{kind: opRecv, dim: constE(0), tag: unE(token.SUB, constE(7))}},
			},
			&forStmt{v: "v1", from: constE(0), to: &expr{kind: eDim}, incl: false, body: []stmt{
				&opStmt{kind: opExchangeAll, dims: []*expr{varE("v1")}, tag: constE(3)},
			}},
			&opStmt{kind: opSpan, name: "BeginSpan"},
			&opStmt{kind: opColl, name: "Bcast", mask: constE(3), tag: constE(4), root: constE(0)},
			&callStmt{callee: inner, args: []*expr{constE(9)}},
			&opStmt{kind: opSpan, name: "EndSpan"},
		},
	}
	p.comm, p.p2p = scan(p.body)

	once := marshalProtocol(p)
	parsed, err := parseProtocol(once, 0)
	if err != nil {
		t.Fatalf("parsing %q: %v", once, err)
	}
	twice := marshalProtocol(parsed)
	if once != twice {
		t.Errorf("round trip not stable:\n once: %s\ntwice: %s", once, twice)
	}
	if !parsed.comm || !parsed.p2p {
		t.Errorf("parsed protocol lost its comm/p2p summary: comm=%v p2p=%v", parsed.comm, parsed.p2p)
	}
}

// FuzzParseProtocol hardens the fact decoder, which reads vetx files
// other processes wrote: parsing never panics, and whatever parses is
// a fixed point of parse → marshal → parse. The seed corpus in
// testdata/fuzz holds the TestProtocolRoundTrip protocol and the
// marshalled cv and xrelay fixture facts.
func FuzzParseProtocol(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		p, err := parseProtocol(src, 0)
		if err != nil {
			return
		}
		once := marshalProtocol(p)
		again, err := parseProtocol(once, 0)
		if err != nil {
			t.Fatalf("marshalled protocol does not parse: %v\n input: %q\nmarshal: %q", err, src, once)
		}
		if twice := marshalProtocol(again); twice != once {
			t.Fatalf("parse → marshal → parse is not a fixed point:\n input: %q\n  once: %q\n twice: %q", src, once, twice)
		}
	})
}
