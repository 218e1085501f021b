package commverify

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"vmprim/internal/analysis/collectives"
	"vmprim/internal/analysis/framework"
	"vmprim/internal/analysis/vmlib"
)

// Extraction: lower one SPMD scope (a function declaration or
// function literal) to the protocol IR. The lowering is deliberately
// partial — anything it cannot model exactly makes the scope
// unverifiable, and unverifiable scopes go to the taint fallback
// instead of the model checker. That is the model checker's soundness
// boundary: it only speaks about protocols the extractor concretizes,
// and never guesses.

// p2pMethods are the point-to-point Proc operations the checker
// models as queue operations.
var p2pMethods = []string{"Send", "Recv", "Exchange", "ExchangeOwned", "ExchangeAll"}

// pureProcMethods are the Proc methods that neither communicate nor
// block: identity/geometry reads, buffer-pool traffic, cost charging,
// and the profiler/flight-recorder surface (span notes, conformance
// predictions, critical-path capture). They are invisible to the
// protocol. BeginSpan and EndSpan are not among them: every processor
// must open and close the same spans in the same order, so span
// boundaries are protocol operations (opSpan).
var pureProcMethods = map[string]bool{
	"ID": true, "Dim": true, "P": true, "FullMask": true, "Neighbor": true,
	"GetBuf": true, "Recycle": true, "Capture": true, "Compute": true,
	"AdvanceTo": true, "Clock": true, "Params": true, "Profiling": true,
	"SpanNote": true, "SpanPredict": true,
	"NoteCollective": true, "RouteCharge": true, "RoutePhaseCharge": true,
}

// pureEnvMethods are the core.Env methods with the same status (the
// span-note/conformance forwarding surface plus the local accessors
// vmlib already exempts from the collective contract).
var pureEnvMethods = map[string]bool{
	"SpanNote": true, "SpanPredict": true,
	"NextTag": true, "NextTag2": true, "Profiling": true,
	"GridRow": true, "GridCol": true,
}

// exemptPaths are the simulator internals beneath the protocol
// abstraction: rank-asymmetric by design, never summarized, and —
// collective entry points aside — pure from a caller's point of view.
var exemptPaths = []string{
	vmlib.HypercubePath, vmlib.CollectivePath, vmlib.RouterPath, vmlib.GrayPath,
}

// errUnverifiable aborts extraction of one scope: it communicates,
// but not in a form the IR can express.
var errUnverifiable = fmt.Errorf("protocol not extractable")

// protoEntry is the memoized summary of one local function.
type protoEntry struct {
	proto  *protocol // non-nil when the body lowered cleanly
	opaque bool      // communicates, but is not summarizable
}

// extractor carries the per-package lowering state.
type extractor struct {
	pass    *framework.Pass
	summary *collectives.Result
	bodies  map[*types.Func]*ast.FuncDecl
	protos  map[*types.Func]*protoEntry
	inwork  map[*types.Func]bool
	facts   map[string]*Fact // package path → imported commverify fact
	nvar    int              // fresh-name counter for loop variables
}

func newExtractor(pass *framework.Pass, summary *collectives.Result) *extractor {
	x := &extractor{
		pass:    pass,
		summary: summary,
		bodies:  make(map[*types.Func]*ast.FuncDecl),
		protos:  make(map[*types.Func]*protoEntry),
		inwork:  make(map[*types.Func]bool),
		facts:   make(map[string]*Fact),
	}
	for _, file := range pass.Files {
		if vmlib.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil && fn.Recv == nil {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					x.bodies[obj] = fn
				}
			}
		}
	}
	for _, pf := range pass.AllPackageFacts() {
		if f, ok := pf.Fact.(*Fact); ok {
			x.facts[pf.Path] = f
		}
	}
	return x
}

// env maps in-scope integer variables to their symbolic values.
// poisoned marks values the extractor lost track of.
type env map[types.Object]*expr

func (ev env) clone() env {
	out := make(env, len(ev))
	for k, v := range ev {
		out[k] = v
	}
	return out
}

// protocolOf summarizes a local function (memoized): its protocol if
// the body lowers cleanly, opaque if it communicates but does not,
// and a nil-protocol non-opaque entry when it performs no modeled
// communication at all.
func (x *extractor) protocolOf(f *types.Func) *protoEntry {
	if e, ok := x.protos[f]; ok {
		return e
	}
	decl, ok := x.bodies[f]
	if !ok || x.inwork[f] {
		// No body here (imported, or a method), or a recursive cycle:
		// unsummarizable, so opaque iff it may communicate.
		e := &protoEntry{opaque: decl == nil || x.mayComm(decl.Body)}
		if !ok {
			e.opaque = true
		}
		return e
	}
	x.inwork[f] = true
	proto, err := x.extractFunc(decl.Type, decl.Body)
	delete(x.inwork, f)
	e := &protoEntry{}
	switch {
	case err == nil && proto.comm:
		e.proto = proto
	case err == nil:
		// Lowered cleanly but communicates nothing: pure.
	default:
		e.opaque = x.mayComm(decl.Body)
	}
	x.protos[f] = e
	return e
}

// extractFunc lowers one function-shaped scope: integer parameters
// become protocol parameters, everything else starts unknown.
func (x *extractor) extractFunc(ft *ast.FuncType, body *ast.BlockStmt) (*protocol, error) {
	ev := make(env)
	proto := &protocol{}
	argIdx := 0
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				obj := x.pass.TypesInfo.Defs[name]
				if obj != nil && isIntType(obj.Type()) {
					v := paramName(argIdx)
					ev[obj] = varE(v)
					proto.params = append(proto.params, v)
				}
				argIdx++
			}
			if len(field.Names) == 0 {
				argIdx++
			}
		}
	}
	stmts, err := x.extractStmts(body.List, ev)
	if err != nil {
		return nil, err
	}
	proto.body = stmts
	proto.comm, proto.p2p = scan(stmts)
	return proto, nil
}

func isIntType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// ---- expressions ----

// exprOf lowers e to the IR, or returns nil when it cannot.
func (x *extractor) exprOf(e ast.Expr, ev env) *expr {
	if tv, ok := x.pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		switch tv.Value.Kind() {
		case constant.Int:
			if v, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok {
				return constE(v)
			}
		case constant.Bool:
			if constant.BoolVal(tv.Value) {
				return constE(1)
			}
			return constE(0)
		}
		return nil
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := ev[x.pass.TypesInfo.Uses[e]]; ok && v != poisoned {
			return v
		}
		return nil
	case *ast.CallExpr:
		return x.callExprOf(e, ev)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.SUB, token.XOR, token.NOT, token.ADD:
			v := x.exprOf(e.X, ev)
			if v == nil {
				return nil
			}
			if e.Op == token.ADD {
				return v
			}
			return unE(e.Op, v)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.AND, token.OR, token.XOR, token.AND_NOT, token.SHL, token.SHR,
			token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			a := x.exprOf(e.X, ev)
			b := x.exprOf(e.Y, ev)
			if a == nil || b == nil {
				return nil
			}
			return binE(e.Op, a, b)
		}
	}
	return nil
}

// callExprOf lowers the calls that may appear inside expressions:
// identity/geometry reads on the Proc, and integer conversions.
func (x *extractor) callExprOf(call *ast.CallExpr, ev env) *expr {
	if tv, ok := x.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isIntType(tv.Type) {
			return x.exprOf(call.Args[0], ev)
		}
		return nil
	}
	info := x.pass.TypesInfo
	switch {
	case vmlib.IsProcMethod(info, call, "ID"):
		return &expr{kind: eID}
	case vmlib.IsProcMethod(info, call, "Dim"):
		return &expr{kind: eDim}
	case vmlib.IsProcMethod(info, call, "P"):
		return binE(token.SHL, constE(1), &expr{kind: eDim})
	case vmlib.IsProcMethod(info, call, "FullMask"):
		return binE(token.SUB, binE(token.SHL, constE(1), &expr{kind: eDim}), constE(1))
	case vmlib.IsProcMethod(info, call, "Neighbor"):
		if len(call.Args) == 1 {
			if a := x.exprOf(call.Args[0], ev); a != nil {
				return binE(token.XOR, &expr{kind: eID}, binE(token.SHL, constE(1), a))
			}
		}
	}
	return nil
}

// ---- communication classification ----

// isPureCall reports whether call is known not to communicate or
// block: pure Proc/Env methods, builtins, conversions, and calls into
// packages that cannot reach the simulator.
func (x *extractor) isPureCall(call *ast.CallExpr) bool {
	if tv, ok := x.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return true // conversion
	}
	if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := x.pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			return true
		}
	}
	f := vmlib.Callee(x.pass.TypesInfo, call)
	if f == nil {
		return false
	}
	if vmlib.IsMethod(f, vmlib.HypercubePath, "Proc", f.Name()) {
		return pureProcMethods[f.Name()]
	}
	if vmlib.IsMethod(f, vmlib.CorePath, "Env", f.Name()) && pureEnvMethods[f.Name()] {
		return true
	}
	if pkg := f.Pkg(); pkg == nil || !inModule(pkg.Path()) {
		return true // stdlib (or builtin-ish): cannot touch the simulator
	}
	return false
}

func inModule(path string) bool {
	return path == vmlib.FacadePath || vmlib.InScope(path, vmlib.FacadePath)
}

// mayComm conservatively reports whether n can perform a protocol
// operation — a communication op or a span boundary — without
// descending into nested function literals (each literal is its own
// SPMD scope). Unresolvable calls count as communication: the checker
// must never treat a send, a receive or a span as absent.
func (x *extractor) mayComm(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if x.isPureCall(call) {
			return true
		}
		info := x.pass.TypesInfo
		if _, span := vmlib.IsSpanCall(info, call); span ||
			vmlib.IsProcMethod(info, call, p2pMethods...) ||
			vmlib.IsProcMethod(info, call, "Barrier") ||
			x.summary.IsCollectiveCall(call) {
			found = true
			return false
		}
		f := vmlib.Callee(info, call)
		if f == nil {
			found = true // dynamic call: could be anything
			return false
		}
		if f.Pkg() != nil && f.Pkg() == x.pass.Pkg && x.bodies[f] != nil {
			e := x.protocolOf(f)
			if e.opaque || (e.proto != nil && e.proto.comm) {
				found = true
				return false
			}
			return true
		}
		if f.Pkg() != nil && vmlib.InScope(f.Pkg().Path(), exemptPaths...) {
			return true // non-collective entry into the exempt internals
		}
		// Imported module function: only a commverify fact can clear it.
		if fact, ok := x.factFor(f); ok {
			if _, comm := fact.Protocols[f.Name()]; !comm && !contains(fact.Opaque, f.Name()) {
				return true
			}
		}
		found = true
		return false
	})
	return found
}

func (x *extractor) factFor(f *types.Func) (*Fact, bool) {
	if f.Pkg() == nil {
		return nil, false
	}
	fact, ok := x.facts[f.Pkg().Path()]
	return fact, ok
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// ---- statements ----

func (x *extractor) extractStmts(list []ast.Stmt, ev env) ([]stmt, error) {
	var out []stmt
	for _, s := range list {
		stmts, err := x.extractStmt(s, ev)
		if err != nil {
			return nil, err
		}
		out = append(out, stmts...)
	}
	return out, nil
}

func (x *extractor) extractStmt(s ast.Stmt, ev env) ([]stmt, error) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			return x.extractCall(call, ev)
		}
		return x.fallback(s, ev)

	case *ast.AssignStmt:
		return x.extractAssign(s, ev)

	case *ast.IncDecStmt:
		if id, ok := s.X.(*ast.Ident); ok {
			obj := x.pass.TypesInfo.Uses[id]
			if v, ok := ev[obj]; ok && v != poisoned {
				op := token.ADD
				if s.Tok == token.DEC {
					op = token.SUB
				}
				ev[obj] = binE(op, v, constE(1))
			} else if obj != nil {
				ev[obj] = poisoned
			}
		}
		return nil, nil

	case *ast.DeclStmt:
		return x.extractDecl(s, ev)

	case *ast.ReturnStmt:
		var out []stmt
		if len(s.Results) == 1 {
			if call, ok := s.Results[0].(*ast.CallExpr); ok && x.isCommCall(call) {
				ops, err := x.extractCall(call, ev)
				if err != nil {
					return nil, err
				}
				return append(ops, &retStmt{}), nil
			}
		}
		for _, r := range s.Results {
			if x.mayComm(r) {
				return nil, errUnverifiable
			}
		}
		return append(out, &retStmt{}), nil

	case *ast.IfStmt:
		return x.extractIf(s, ev)

	case *ast.ForStmt:
		return x.extractFor(s, ev)

	case *ast.SwitchStmt:
		return x.extractSwitch(s, ev)

	case *ast.BlockStmt:
		return x.extractStmts(s.List, ev)

	case *ast.LabeledStmt:
		return x.extractStmt(s.Stmt, ev)

	case *ast.BranchStmt:
		// break/continue/goto at a point the IR models: only loops are
		// modeled, and modeled loop bodies reject branch statements, so
		// reaching one here means unstructured flow around the
		// statements already extracted.
		return nil, errUnverifiable

	case *ast.DeferStmt:
		// A deferred span close (the idiomatic defer e.EndSpan()) runs
		// on every exit of every processor: symmetric by construction,
		// so it stays out of the span sequence.
		if _, span := vmlib.IsSpanCall(x.pass.TypesInfo, s.Call); span {
			return nil, nil
		}
		if x.mayComm(s.Call) {
			return nil, errUnverifiable
		}
		return nil, nil

	case *ast.GoStmt:
		if x.mayComm(s.Call) {
			return nil, errUnverifiable
		}
		return nil, nil

	case *ast.EmptyStmt:
		return nil, nil

	default:
		// RangeStmt, TypeSwitchStmt, SelectStmt, SendStmt, …
		return x.fallback(s, ev)
	}
}

// fallback handles any construct the IR does not model: fine when it
// neither communicates nor returns (its variable writes are just
// forgotten), unverifiable otherwise — a return under an unmodeled
// branch may skip the communication after it on some processors only.
func (x *extractor) fallback(s ast.Stmt, ev env) ([]stmt, error) {
	if x.mayComm(s) || hasReturn(s) {
		return nil, errUnverifiable
	}
	x.poisonAssigned(s, ev)
	return nil, nil
}

// isCommCall reports whether call is a modeled communication
// operation or a call that (transitively) performs one.
func (x *extractor) isCommCall(call *ast.CallExpr) bool {
	return !x.isPureCall(call) && x.mayComm(call)
}

// extractCall lowers a statement-position call.
func (x *extractor) extractCall(call *ast.CallExpr, ev env) ([]stmt, error) {
	info := x.pass.TypesInfo

	// Nested communication inside argument expressions is not modeled
	// (its ordering relative to the call is entangled with evaluation
	// order); require it to be hoisted into its own statement.
	for _, a := range call.Args {
		if x.mayComm(a) {
			return nil, errUnverifiable
		}
	}

	// Point-to-point Proc operations.
	if vmlib.IsProcMethod(info, call, p2pMethods...) {
		return x.extractP2P(call, ev)
	}
	if begin, ok := vmlib.IsSpanCall(info, call); ok {
		name := "EndSpan"
		if begin {
			name = "BeginSpan"
		}
		return []stmt{&opStmt{kind: opSpan, name: name, pos: call.Pos()}}, nil
	}
	if vmlib.IsProcMethod(info, call, "Barrier") && len(call.Args) == 2 {
		mask := x.exprOf(call.Args[0], ev)
		tag := x.exprOf(call.Args[1], ev)
		if mask == nil || tag == nil {
			return nil, errUnverifiable
		}
		return []stmt{&opStmt{kind: opColl, name: "Barrier", pos: call.Pos(),
			mask: mask, tag: tag, root: constE(-1)}}, nil
	}

	if x.isPureCall(call) {
		return nil, nil
	}

	f := vmlib.Callee(info, call)
	if f == nil {
		if x.mayComm(call) {
			return nil, errUnverifiable
		}
		return nil, nil
	}

	// Local functions inline their extracted protocol; a commverify
	// fact does the same across package boundaries, and the collective
	// summary (which includes the collectives analyzer's facts) covers
	// the collective entry points by signature.
	local := f.Pkg() != nil && f.Pkg() == x.pass.Pkg && x.bodies[f] != nil
	if local {
		e := x.protocolOf(f)
		switch {
		case e.opaque:
			return nil, errUnverifiable
		case e.proto != nil && e.proto.comm:
			return x.inlineCall(call, e.proto, ev)
		default:
			return nil, nil
		}
	}
	if fact, ok := x.factFor(f); ok {
		if src, ok := fact.Protocols[f.Name()]; ok {
			proto, err := parseProtocol(src, call.Pos())
			if err != nil {
				return nil, errUnverifiable
			}
			return x.inlineCall(call, proto, ev)
		}
		if contains(fact.Opaque, f.Name()) {
			return nil, errUnverifiable
		}
		if !x.summary.IsCollectiveCall(call) {
			return nil, nil // summarized package, non-communicating function
		}
	}
	if x.summary.IsCollectiveCall(call) {
		return x.extractCollective(call, f, ev)
	}
	if f.Pkg() != nil && vmlib.InScope(f.Pkg().Path(), exemptPaths...) {
		return nil, nil
	}
	// A module-internal function with no fact in sight: without its
	// summary the protocol is incomplete, so give up rather than treat
	// a possible send or receive as absent.
	return nil, errUnverifiable
}

// extractP2P lowers Send/Recv/Exchange/ExchangeOwned/ExchangeAll.
func (x *extractor) extractP2P(call *ast.CallExpr, ev env) ([]stmt, error) {
	f := vmlib.Callee(x.pass.TypesInfo, call)
	op := &opStmt{pos: call.Pos()}
	switch f.Name() {
	case "Send":
		op.kind = opSend
	case "Recv":
		op.kind = opRecv
	case "Exchange", "ExchangeOwned":
		op.kind = opExchange
	case "ExchangeAll":
		op.kind = opExchangeAll
	}
	if op.kind == opExchangeAll {
		if len(call.Args) < 2 {
			return nil, errUnverifiable
		}
		lit, ok := ast.Unparen(call.Args[0]).(*ast.CompositeLit)
		if !ok {
			return nil, errUnverifiable
		}
		for _, el := range lit.Elts {
			d := x.exprOf(el, ev)
			if d == nil {
				return nil, errUnverifiable
			}
			op.dims = append(op.dims, d)
		}
		if op.tag = x.exprOf(call.Args[1], ev); op.tag == nil {
			return nil, errUnverifiable
		}
		return []stmt{op}, nil
	}
	if len(call.Args) < 2 {
		return nil, errUnverifiable
	}
	op.dim = x.exprOf(call.Args[0], ev)
	op.tag = x.exprOf(call.Args[1], ev)
	if op.dim == nil || op.tag == nil {
		return nil, errUnverifiable
	}
	return []stmt{op}, nil
}

// extractCollective lowers a collective entry point by signature: the
// uniform parameter naming (mask, tag, rootRel/root) identifies the
// structural arguments. Entry points without that shape are not
// modelable.
func (x *extractor) extractCollective(call *ast.CallExpr, f *types.Func, ev env) ([]stmt, error) {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return nil, errUnverifiable
	}
	op := &opStmt{kind: opColl, name: f.Name(), pos: call.Pos(), root: constE(-1)}
	n := sig.Params().Len()
	for i, arg := range call.Args {
		if i >= n {
			break
		}
		var dst **expr
		switch sig.Params().At(i).Name() {
		case "mask":
			dst = &op.mask
		case "tag":
			dst = &op.tag
		case "rootRel", "root":
			dst = &op.root
		default:
			continue
		}
		if *dst = x.exprOf(arg, ev); *dst == nil {
			return nil, errUnverifiable
		}
	}
	if op.mask == nil || op.tag == nil {
		return nil, errUnverifiable
	}
	return []stmt{op}, nil
}

// inlineCall binds the callee protocol's parameters to the
// call-site's argument expressions.
func (x *extractor) inlineCall(call *ast.CallExpr, proto *protocol, ev env) ([]stmt, error) {
	cs := &callStmt{pos: call.Pos(), callee: proto}
	for _, p := range proto.params {
		k, ok := paramIndex(p)
		if !ok || k >= len(call.Args) {
			return nil, errUnverifiable
		}
		a := x.exprOf(call.Args[k], ev)
		if a == nil {
			return nil, errUnverifiable
		}
		cs.args = append(cs.args, a)
	}
	return []stmt{cs}, nil
}

// extractAssign threads assignments through the environment: integer
// right-hand sides are substituted eagerly, communication calls emit
// their ops and poison their targets (payloads are never structural),
// anything else poisons.
func (x *extractor) extractAssign(s *ast.AssignStmt, ev env) ([]stmt, error) {
	var out []stmt
	// x, y := f() and x := <comm call> shapes: one call on the right.
	if len(s.Rhs) == 1 {
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok && x.isCommCall(call) {
			ops, err := x.extractCall(call, ev)
			if err != nil {
				return nil, err
			}
			out = ops
			x.poisonTargets(s.Lhs, ev)
			return out, nil
		}
	}
	if len(s.Lhs) != len(s.Rhs) {
		for _, r := range s.Rhs {
			if x.mayComm(r) {
				return nil, errUnverifiable
			}
		}
		x.poisonTargets(s.Lhs, ev)
		return nil, nil
	}
	for i, lhs := range s.Lhs {
		rhs := s.Rhs[i]
		if x.mayComm(rhs) {
			return nil, errUnverifiable
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue // writes through indices/fields are never read back symbolically
		}
		if id.Name == "_" {
			continue
		}
		obj := x.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = x.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		v := x.exprOf(rhs, ev)
		switch {
		case v == nil:
			ev[obj] = poisoned
		case s.Tok == token.ASSIGN || s.Tok == token.DEFINE:
			ev[obj] = v
		default:
			// Compound assignment: fold the operator.
			cur, ok := ev[obj]
			if !ok || cur == poisoned {
				ev[obj] = poisoned
				break
			}
			op, ok := compoundOp(s.Tok)
			if !ok {
				ev[obj] = poisoned
				break
			}
			ev[obj] = binE(op, cur, v)
		}
	}
	return out, nil
}

func compoundOp(tok token.Token) (token.Token, bool) {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD, true
	case token.SUB_ASSIGN:
		return token.SUB, true
	case token.MUL_ASSIGN:
		return token.MUL, true
	case token.QUO_ASSIGN:
		return token.QUO, true
	case token.REM_ASSIGN:
		return token.REM, true
	case token.AND_ASSIGN:
		return token.AND, true
	case token.OR_ASSIGN:
		return token.OR, true
	case token.XOR_ASSIGN:
		return token.XOR, true
	case token.AND_NOT_ASSIGN:
		return token.AND_NOT, true
	case token.SHL_ASSIGN:
		return token.SHL, true
	case token.SHR_ASSIGN:
		return token.SHR, true
	}
	return token.ILLEGAL, false
}

func (x *extractor) extractDecl(s *ast.DeclStmt, ev env) ([]stmt, error) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok == token.CONST || gd.Tok == token.TYPE {
		return nil, nil
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			obj := x.pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			switch {
			case len(vs.Values) == 0:
				if isIntType(obj.Type()) {
					ev[obj] = constE(0) // zero value
				}
			case i < len(vs.Values):
				if x.mayComm(vs.Values[i]) {
					return nil, errUnverifiable
				}
				if v := x.exprOf(vs.Values[i], ev); v != nil {
					ev[obj] = v
				} else {
					ev[obj] = poisoned
				}
			default:
				ev[obj] = poisoned
			}
		}
	}
	return nil, nil
}

func (x *extractor) extractIf(s *ast.IfStmt, ev env) ([]stmt, error) {
	if s.Init != nil {
		if _, err := x.extractStmt(s.Init, ev); err != nil {
			return nil, err
		}
	}
	cond := x.exprOf(s.Cond, ev)
	if cond == nil {
		return x.fallback(s, ev)
	}
	thenEv := ev.clone()
	elseEv := ev.clone()
	then, err := x.extractStmts(s.Body.List, thenEv)
	if err != nil {
		return nil, err
	}
	var els []stmt
	if s.Else != nil {
		els, err = x.extractStmt(s.Else, elseEv)
		if err != nil {
			return nil, err
		}
	}
	mergeEnvs(ev, thenEv, elseEv)
	return []stmt{&ifStmt{cond: cond, then: then, els: els}}, nil
}

// mergeEnvs reconciles the branch environments into the outer one:
// values the arms agree on survive, everything else is poisoned.
func mergeEnvs(ev, a, b env) {
	for obj := range ev {
		va, vb := a[obj], b[obj]
		if exprEq(va, vb) {
			ev[obj] = va
		} else {
			ev[obj] = poisoned
		}
	}
	// Variables first defined inside the arms go out of scope; nothing
	// to merge for them.
}

func (x *extractor) extractFor(s *ast.ForStmt, ev env) ([]stmt, error) {
	if !x.mayComm(s.Body) {
		// A communication-free loop only perturbs variables.
		x.poisonAssigned(s, ev)
		return nil, nil
	}
	// Modeled shape: for v := from; v < to; v++ with a branch-free body
	// that leaves v alone.
	init, ok := s.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return nil, errUnverifiable
	}
	vId, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, errUnverifiable
	}
	vObj := x.pass.TypesInfo.Defs[vId]
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		return nil, errUnverifiable
	}
	cx, ok := ast.Unparen(cond.X).(*ast.Ident)
	if !ok || x.pass.TypesInfo.Uses[cx] != vObj {
		return nil, errUnverifiable
	}
	post, ok := s.Post.(*ast.IncDecStmt)
	if !ok || post.Tok != token.INC {
		return nil, errUnverifiable
	}
	px, ok := post.X.(*ast.Ident)
	if !ok || x.pass.TypesInfo.Uses[px] != vObj {
		return nil, errUnverifiable
	}
	if hasBranch(s.Body) {
		return nil, errUnverifiable
	}
	assigned := x.assignedObjs(s.Body)
	if assigned[vObj] {
		return nil, errUnverifiable
	}

	from := x.exprOf(init.Rhs[0], ev)
	if from == nil {
		return nil, errUnverifiable
	}
	// Body-assigned variables change per iteration: poison them before
	// reading the bound or the body.
	for obj := range assigned {
		if _, ok := ev[obj]; ok {
			ev[obj] = poisoned
		}
	}
	to := x.exprOf(cond.Y, ev)
	if to == nil {
		return nil, errUnverifiable
	}

	x.nvar++
	name := fmt.Sprintf("v%d", x.nvar)
	bodyEv := ev.clone()
	bodyEv[vObj] = varE(name)
	body, err := x.extractStmts(s.Body.List, bodyEv)
	if err != nil {
		return nil, err
	}
	return []stmt{&forStmt{v: name, from: from, to: to, incl: cond.Op == token.LEQ, body: body}}, nil
}

// extractSwitch lowers a value switch with extractable tag and guards
// to an if-chain.
func (x *extractor) extractSwitch(s *ast.SwitchStmt, ev env) ([]stmt, error) {
	if s.Init != nil {
		if _, err := x.extractStmt(s.Init, ev); err != nil {
			return nil, err
		}
	}
	var tag *expr
	if s.Tag != nil {
		if tag = x.exprOf(s.Tag, ev); tag == nil {
			return x.fallback(s, ev)
		}
	}
	type arm struct {
		cond *expr // nil for default
		body []ast.Stmt
	}
	var arms []arm
	for _, cl := range s.Body.List {
		cc := cl.(*ast.CaseClause)
		if hasFallthrough(cc.Body) {
			return x.fallback(s, ev)
		}
		if cc.List == nil {
			arms = append(arms, arm{body: cc.Body})
			continue
		}
		var cond *expr
		for _, e := range cc.List {
			g := x.exprOf(e, ev)
			if g == nil {
				return x.fallback(s, ev)
			}
			if tag != nil {
				g = binE(token.EQL, tag, g)
			}
			if cond == nil {
				cond = g
			} else {
				cond = binE(token.LOR, cond, g)
			}
		}
		arms = append(arms, arm{cond: cond, body: cc.Body})
	}
	// Build the chain back to front; every arm extracts in its own
	// environment clone, and the whole statement poisons what any arm
	// assigned (conservative but simple).
	var build func(i int) ([]stmt, error)
	build = func(i int) ([]stmt, error) {
		if i >= len(arms) {
			return nil, nil
		}
		armEv := ev.clone()
		body, err := x.extractStmts(arms[i].body, armEv)
		if err != nil {
			return nil, err
		}
		if arms[i].cond == nil { // default: swallow the rest of the chain
			return body, nil
		}
		els, err := build(i + 1)
		if err != nil {
			return nil, err
		}
		return []stmt{&ifStmt{cond: arms[i].cond, then: body, els: els}}, nil
	}
	out, err := build(0)
	if err != nil {
		return nil, err
	}
	x.poisonAssigned(s.Body, ev)
	return out, nil
}

// hasFallthrough reports a fallthrough directly in a case body.
func hasFallthrough(body []ast.Stmt) bool {
	for _, s := range body {
		if b, ok := s.(*ast.BranchStmt); ok && b.Tok == token.FALLTHROUGH {
			return true
		}
	}
	return false
}

// hasReturn reports a return statement under n, ignoring function
// literals.
func hasReturn(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		}
		return !found
	})
	return found
}

// hasBranch reports any break/continue/goto anywhere under n (nested
// loops and switches included — the IR models none of them inside a
// communicating loop body), ignoring function literals.
func hasBranch(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		switch b := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if b.Tok != token.FALLTHROUGH {
				found = true
			}
			return false
		}
		return true
	})
	return found
}

// assignedObjs collects every object assigned (or ++/--'d, or
// range-bound) under n, ignoring function literals.
func (x *extractor) assignedObjs(n ast.Node) map[types.Object]bool {
	out := make(map[types.Object]bool)
	add := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := x.pass.TypesInfo.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := x.pass.TypesInfo.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				add(l)
			}
		case *ast.IncDecStmt:
			add(n.X)
		case *ast.RangeStmt:
			add(n.Key)
			if n.Value != nil {
				add(n.Value)
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				add(name)
			}
		}
		return true
	})
	return out
}

// poisonAssigned forgets every variable n assigns.
func (x *extractor) poisonAssigned(n ast.Node, ev env) {
	for obj := range x.assignedObjs(n) {
		ev[obj] = poisoned
	}
}

// poisonTargets forgets the identifier targets of an assignment.
func (x *extractor) poisonTargets(lhs []ast.Expr, ev env) {
	for _, l := range lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
			if obj := x.pass.TypesInfo.Defs[id]; obj != nil {
				ev[obj] = poisoned
			} else if obj := x.pass.TypesInfo.Uses[id]; obj != nil {
				ev[obj] = poisoned
			}
		}
	}
}
