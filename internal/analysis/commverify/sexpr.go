package commverify

import (
	"fmt"
	"go/token"
	"strconv"
	"strings"
)

// Protocol summaries cross package boundaries as S-expressions inside
// the commverify package fact. The format is closed: callees are
// embedded inline at marshal time (recursive protocols are opaque
// long before this point), so a parsed protocol never references
// another fact. All positions in a parsed protocol are the importing
// call site's — a diagnostic against an imported summary points at
// the call, which is the line the importing package controls.

// marshalProtocol renders p in the fact wire format.
func marshalProtocol(p *protocol) string {
	var b strings.Builder
	b.WriteString("(proto (params")
	for _, v := range p.params {
		b.WriteByte(' ')
		b.WriteString(v)
	}
	b.WriteByte(')')
	marshalStmts(&b, p.body)
	b.WriteByte(')')
	return b.String()
}

func marshalStmts(b *strings.Builder, body []stmt) {
	for _, s := range body {
		b.WriteByte(' ')
		marshalStmt(b, s)
	}
}

func marshalStmt(b *strings.Builder, s stmt) {
	switch s := s.(type) {
	case *opStmt:
		switch s.kind {
		case opSend, opRecv, opExchange:
			fmt.Fprintf(b, "(%s ", map[opKind]string{opSend: "send", opRecv: "recv", opExchange: "exch"}[s.kind])
			marshalExpr(b, s.dim)
			b.WriteByte(' ')
			marshalExpr(b, s.tag)
			b.WriteByte(')')
		case opExchangeAll:
			b.WriteString("(exall (dims")
			for _, d := range s.dims {
				b.WriteByte(' ')
				marshalExpr(b, d)
			}
			b.WriteString(") ")
			marshalExpr(b, s.tag)
			b.WriteByte(')')
		case opSpan:
			fmt.Fprintf(b, "(span %s)", s.name)
		case opColl:
			fmt.Fprintf(b, "(coll %s ", s.name)
			marshalExpr(b, s.mask)
			b.WriteByte(' ')
			marshalExpr(b, s.tag)
			b.WriteByte(' ')
			marshalExpr(b, s.root)
			b.WriteByte(')')
		}
	case *ifStmt:
		b.WriteString("(if ")
		marshalExpr(b, s.cond)
		b.WriteString(" (")
		marshalStmts(b, s.then)
		b.WriteString(") (")
		marshalStmts(b, s.els)
		b.WriteString("))")
	case *forStmt:
		fmt.Fprintf(b, "(for %s ", s.v)
		marshalExpr(b, s.from)
		b.WriteByte(' ')
		marshalExpr(b, s.to)
		incl := "0"
		if s.incl {
			incl = "1"
		}
		b.WriteString(" " + incl + " (")
		marshalStmts(b, s.body)
		b.WriteString("))")
	case *retStmt:
		b.WriteString("(ret)")
	case *callStmt:
		b.WriteString("(call ")
		b.WriteString(marshalProtocol(s.callee))
		for _, a := range s.args {
			b.WriteByte(' ')
			marshalExpr(b, a)
		}
		b.WriteByte(')')
	}
}

func marshalExpr(b *strings.Builder, e *expr) {
	switch e.kind {
	case eConst:
		b.WriteString(strconv.FormatInt(e.val, 10))
	case eID:
		b.WriteString("id")
	case eDim:
		b.WriteString("dim")
	case eVar:
		b.WriteString(e.name)
	case eUnary:
		fmt.Fprintf(b, "(u%s ", e.tok.String())
		marshalExpr(b, e.x)
		b.WriteByte(')')
	case eBinary:
		fmt.Fprintf(b, "(%s ", e.tok.String())
		marshalExpr(b, e.x)
		b.WriteByte(' ')
		marshalExpr(b, e.y)
		b.WriteByte(')')
	}
}

// ---- parsing ----

// sexpr is the generic parse tree: either an atom or a list.
type sexpr struct {
	atom string
	list []*sexpr
}

func parseSexpr(s string) (*sexpr, error) {
	toks := tokenize(s)
	node, rest, err := parseNode(toks)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("trailing tokens")
	}
	return node, nil
}

func tokenize(s string) []string {
	var toks []string
	i := 0
	for i < len(s) {
		switch c := s[i]; {
		case c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == ' ':
			i++
		default:
			j := i
			for j < len(s) && s[j] != '(' && s[j] != ')' && s[j] != ' ' {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		}
	}
	return toks
}

func parseNode(toks []string) (*sexpr, []string, error) {
	if len(toks) == 0 {
		return nil, nil, fmt.Errorf("unexpected end")
	}
	if toks[0] != "(" {
		if toks[0] == ")" {
			return nil, nil, fmt.Errorf("unexpected )")
		}
		return &sexpr{atom: toks[0]}, toks[1:], nil
	}
	toks = toks[1:]
	node := &sexpr{list: []*sexpr{}}
	for {
		if len(toks) == 0 {
			return nil, nil, fmt.Errorf("unclosed list")
		}
		if toks[0] == ")" {
			return node, toks[1:], nil
		}
		child, rest, err := parseNode(toks)
		if err != nil {
			return nil, nil, err
		}
		node.list = append(node.list, child)
		toks = rest
	}
}

func (n *sexpr) isList(head string) bool {
	return n.list != nil && len(n.list) > 0 && n.list[0].atom == head
}

// parseProtocol decodes a fact summary, stamping every operation with
// pos (the importing call site).
func parseProtocol(src string, pos token.Pos) (*protocol, error) {
	root, err := parseSexpr(src)
	if err != nil {
		return nil, err
	}
	return protocolFromSexpr(root, pos)
}

func protocolFromSexpr(root *sexpr, pos token.Pos) (*protocol, error) {
	if !root.isList("proto") || len(root.list) < 2 || !root.list[1].isList("params") {
		return nil, fmt.Errorf("not a proto")
	}
	p := &protocol{}
	for _, v := range root.list[1].list[1:] {
		if v.atom == "" {
			return nil, fmt.Errorf("bad param")
		}
		p.params = append(p.params, v.atom)
	}
	body, err := stmtsFromSexpr(root.list[2:], pos)
	if err != nil {
		return nil, err
	}
	p.body = body
	p.comm, p.p2p = scan(body)
	return p, nil
}

func stmtsFromSexpr(nodes []*sexpr, pos token.Pos) ([]stmt, error) {
	var out []stmt
	for _, n := range nodes {
		s, err := stmtFromSexpr(n, pos)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func stmtFromSexpr(n *sexpr, pos token.Pos) (stmt, error) {
	if n.list == nil || len(n.list) == 0 {
		return nil, fmt.Errorf("atom in statement position")
	}
	bad := fmt.Errorf("malformed %q statement", n.list[0].atom)
	switch n.list[0].atom {
	case "send", "recv", "exch":
		if len(n.list) != 3 {
			return nil, bad
		}
		dim, err1 := exprFromSexpr(n.list[1])
		tag, err2 := exprFromSexpr(n.list[2])
		if err1 != nil || err2 != nil {
			return nil, bad
		}
		kind := map[string]opKind{"send": opSend, "recv": opRecv, "exch": opExchange}[n.list[0].atom]
		return &opStmt{kind: kind, pos: pos, dim: dim, tag: tag}, nil
	case "exall":
		if len(n.list) != 3 || !n.list[1].isList("dims") {
			return nil, bad
		}
		op := &opStmt{kind: opExchangeAll, pos: pos}
		for _, d := range n.list[1].list[1:] {
			e, err := exprFromSexpr(d)
			if err != nil {
				return nil, bad
			}
			op.dims = append(op.dims, e)
		}
		var err error
		if op.tag, err = exprFromSexpr(n.list[2]); err != nil {
			return nil, bad
		}
		return op, nil
	case "span":
		if len(n.list) != 2 || (n.list[1].atom != "BeginSpan" && n.list[1].atom != "EndSpan") {
			return nil, bad
		}
		return &opStmt{kind: opSpan, name: n.list[1].atom, pos: pos}, nil
	case "coll":
		if len(n.list) != 5 || n.list[1].atom == "" {
			return nil, bad
		}
		op := &opStmt{kind: opColl, name: n.list[1].atom, pos: pos}
		var e1, e2, e3 error
		op.mask, e1 = exprFromSexpr(n.list[2])
		op.tag, e2 = exprFromSexpr(n.list[3])
		op.root, e3 = exprFromSexpr(n.list[4])
		if e1 != nil || e2 != nil || e3 != nil {
			return nil, bad
		}
		return op, nil
	case "if":
		if len(n.list) != 4 || n.list[2].list == nil || n.list[3].list == nil {
			return nil, bad
		}
		cond, err := exprFromSexpr(n.list[1])
		if err != nil {
			return nil, bad
		}
		then, err := stmtsFromSexpr(n.list[2].list, pos)
		if err != nil {
			return nil, err
		}
		els, err := stmtsFromSexpr(n.list[3].list, pos)
		if err != nil {
			return nil, err
		}
		return &ifStmt{cond: cond, then: then, els: els}, nil
	case "for":
		if len(n.list) != 6 || n.list[1].atom == "" || n.list[5].list == nil {
			return nil, bad
		}
		from, err1 := exprFromSexpr(n.list[2])
		to, err2 := exprFromSexpr(n.list[3])
		if err1 != nil || err2 != nil || (n.list[4].atom != "0" && n.list[4].atom != "1") {
			return nil, bad
		}
		body, err := stmtsFromSexpr(n.list[5].list, pos)
		if err != nil {
			return nil, err
		}
		return &forStmt{v: n.list[1].atom, from: from, to: to, incl: n.list[4].atom == "1", body: body}, nil
	case "ret":
		return &retStmt{}, nil
	case "call":
		if len(n.list) < 2 {
			return nil, bad
		}
		callee, err := protocolFromSexpr(n.list[1], pos)
		if err != nil {
			return nil, err
		}
		cs := &callStmt{pos: pos, callee: callee}
		for _, a := range n.list[2:] {
			e, err := exprFromSexpr(a)
			if err != nil {
				return nil, bad
			}
			cs.args = append(cs.args, e)
		}
		if len(cs.args) != len(callee.params) {
			return nil, bad
		}
		return cs, nil
	}
	return nil, bad
}

func exprFromSexpr(n *sexpr) (*expr, error) {
	if n.list == nil {
		switch {
		case n.atom == "id":
			return &expr{kind: eID}, nil
		case n.atom == "dim":
			return &expr{kind: eDim}, nil
		case n.atom == "":
			return nil, fmt.Errorf("empty atom")
		default:
			if v, err := strconv.ParseInt(n.atom, 10, 64); err == nil {
				return constE(v), nil
			}
			return varE(n.atom), nil
		}
	}
	if len(n.list) == 0 || n.list[0].list != nil {
		return nil, fmt.Errorf("malformed expression")
	}
	head := n.list[0].atom
	if strings.HasPrefix(head, "u") && len(n.list) == 2 {
		tok, ok := tokenOf(head[1:])
		if !ok {
			return nil, fmt.Errorf("bad unary op %q", head)
		}
		x, err := exprFromSexpr(n.list[1])
		if err != nil {
			return nil, err
		}
		return unE(tok, x), nil
	}
	if len(n.list) == 3 {
		tok, ok := tokenOf(head)
		if !ok {
			return nil, fmt.Errorf("bad binary op %q", head)
		}
		x, err1 := exprFromSexpr(n.list[1])
		y, err2 := exprFromSexpr(n.list[2])
		if err1 != nil {
			return nil, err1
		}
		if err2 != nil {
			return nil, err2
		}
		return binE(tok, x, y), nil
	}
	return nil, fmt.Errorf("malformed expression")
}

// exprTokens are the operator tokens the IR admits, keyed by their
// source rendering.
var exprTokens = map[string]token.Token{
	"+": token.ADD, "-": token.SUB, "*": token.MUL, "/": token.QUO, "%": token.REM,
	"&": token.AND, "|": token.OR, "^": token.XOR, "&^": token.AND_NOT,
	"<<": token.SHL, ">>": token.SHR,
	"==": token.EQL, "!=": token.NEQ, "<": token.LSS, "<=": token.LEQ,
	">": token.GTR, ">=": token.GEQ, "&&": token.LAND, "||": token.LOR,
	"!": token.NOT,
}

func tokenOf(s string) (token.Token, bool) {
	t, ok := exprTokens[s]
	return t, ok
}
