package commverify

import (
	"go/token"
	"strconv"
)

// The protocol IR. Extraction lowers the Go AST of one SPMD scope to
// this small language; the bounded model checker then instantiates it
// for every processor identity of a d-dimensional cube and executes
// the resulting automata against each other. Everything a protocol
// may branch or index on is an integer expression over the processor
// rank, the cube dimension, enclosing loop variables, and inlined
// call arguments — exactly the vocabulary of the paper's primitives
// (rank bits, gray codes, dimension induction).

// exprKind discriminates the expression nodes.
type exprKind int

const (
	eConst  exprKind = iota // integer literal: val
	eID                     // p.ID() — the processor rank
	eDim                    // p.Dim() — the cube dimension d
	eVar                    // loop variable or inlined parameter: name
	eUnary                  // tok in {-, ^, !}: x
	eBinary                 // tok: x, y
)

// expr is one node of an integer (or boolean, encoded 0/1) expression.
type expr struct {
	kind exprKind
	val  int64
	name string
	tok  token.Token
	x, y *expr
}

// poisoned is the sentinel for a variable whose value the extractor
// cannot track (assigned under unmodeled control flow, or from an
// unevaluable right-hand side). Reading it in a structural position
// makes the scope unverifiable.
var poisoned = &expr{}

func constE(v int64) *expr   { return &expr{kind: eConst, val: v} }
func varE(name string) *expr { return &expr{kind: eVar, name: name} }
func unE(tok token.Token, x *expr) *expr {
	return &expr{kind: eUnary, tok: tok, x: x}
}
func binE(tok token.Token, x, y *expr) *expr {
	return &expr{kind: eBinary, tok: tok, x: x, y: y}
}

// exprEq is structural equality, used when merging the variable
// environments of branch arms.
func exprEq(a, b *expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.kind != b.kind || a.val != b.val || a.name != b.name || a.tok != b.tok {
		return false
	}
	return exprEq(a.x, b.x) && exprEq(a.y, b.y)
}

// opKind discriminates the communication operations.
type opKind int

const (
	opSend opKind = iota
	opRecv
	opExchange    // Send then Recv on the same dim/tag
	opExchangeAll // sends on every listed dim, then receives in order
	opColl        // named collective over a subcube mask
	opSpan        // BeginSpan/EndSpan (name): a profiling span boundary
)

// stmt is one statement of the protocol IR.
type stmt interface{ isStmt() }

// opStmt is one communication operation.
type opStmt struct {
	kind opKind
	name string // opColl: collective name (Barrier, Bcast, …); opSpan: BeginSpan or EndSpan
	pos  token.Pos
	dim  *expr   // Send/Recv/Exchange
	tag  *expr   // every op
	mask *expr   // opColl
	root *expr   // opColl; constE(-1) when the collective has no root
	dims []*expr // opExchangeAll
}

// ifStmt is a two-way branch on an extractable condition.
type ifStmt struct {
	cond      *expr
	then, els []stmt
}

// forStmt is counted iteration: for v := from; v < to; v++ (incl
// flips the bound to <=). The body may reference v.
type forStmt struct {
	v        string
	from, to *expr
	incl     bool
	body     []stmt
}

// retStmt terminates the enclosing protocol frame (a function return;
// panic is modeled the same way, as "this processor stops").
type retStmt struct{}

// callStmt inlines another extracted protocol with bound integer
// arguments, preserving call-return semantics (a retStmt inside the
// callee terminates only the callee's frame).
type callStmt struct {
	pos    token.Pos
	callee *protocol
	args   []*expr // aligned with callee.params
}

func (*opStmt) isStmt()   {}
func (*ifStmt) isStmt()   {}
func (*forStmt) isStmt()  {}
func (*retStmt) isStmt()  {}
func (*callStmt) isStmt() {}

// protocol is one extracted SPMD scope: a statement body over the
// IR, with the inlinable integer parameters it is generic over.
// params[i] is the IR variable name "$<k>" where k is the call-site
// argument index that binds it.
type protocol struct {
	params []string
	body   []stmt
	comm   bool // contains at least one operation (communication or span)
	p2p    bool // contains at least one point-to-point op
}

// paramName renders the IR variable bound to call-site argument k.
func paramName(k int) string { return "$" + strconv.Itoa(k) }

// paramIndex inverts paramName; ok is false for non-parameter names.
func paramIndex(name string) (int, bool) {
	if len(name) < 2 || name[0] != '$' {
		return 0, false
	}
	k, err := strconv.Atoi(name[1:])
	return k, err == nil
}

// scan computes the comm/p2p summary of a body, through nested
// inlined calls.
func scan(body []stmt) (comm, p2p bool) {
	for _, s := range body {
		var c, p bool
		switch s := s.(type) {
		case *opStmt:
			c = true
			p = s.kind != opColl && s.kind != opSpan
		case *ifStmt:
			c1, p1 := scan(s.then)
			c2, p2 := scan(s.els)
			c, p = c1 || c2, p1 || p2
		case *forStmt:
			c, p = scan(s.body)
		case *callStmt:
			c, p = s.callee.comm, s.callee.p2p
		}
		comm = comm || c
		p2p = p2p || p
	}
	return comm, p2p
}
