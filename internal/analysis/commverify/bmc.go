package commverify

import (
	"errors"
	"fmt"
	"go/token"
	"strings"
)

// Bounded model checking: a closed protocol (no free parameters) is
// instantiated for every processor identity of a d-dimensional cube,
// d = 1..maxDim, and the resulting per-proc automata are executed
// against each other under the runtime's semantics — Send is
// non-blocking (links buffer), Recv pops the FIFO for its (proc, dim)
// and panics on a tag mismatch, a collective fires when every member
// of its subcube is parked at the same (name, mask, tag, root).
//
// Point-to-point queues on a hypercube are single-producer (the
// (dst, dim) queue receives only from dst^(1<<dim)), so the system is
// confluent: one canonical round-based schedule decides reachability
// of completion, and that schedule doubles as the counterexample.
//
// Span boundaries do not block, so they take no part in the schedule;
// instead every processor's sequence of BeginSpan/EndSpan operations
// must be the same, the SPMD contract the profiler's span tree relies
// on.
//
// Instantiations that use a dimension or mask the cube does not have
// skip that d (the protocol is written for bigger cubes); evaluation
// failures (unbound variable, division by zero, blown unroll caps)
// make the check inconclusive, and the scope goes to the taint
// fallback.

const (
	maxDim  = 4    // cubes checked: d = 1..maxDim (2..16 procs)
	maxOps  = 4096 // per-proc unrolled op budget
	maxIter = 1024 // per-loop iteration budget
)

// errSkipDim aborts one (d, id) instantiation without condemning the
// protocol: the op addressed a dimension or mask outside this cube.
var errSkipDim = errors.New("dimension outside this cube")

// ckind discriminates the concrete (fully evaluated) operations.
type ckind int

const (
	cSend ckind = iota
	cRecv
	cColl
)

// cop is one concrete operation of one processor's automaton.
type cop struct {
	kind       ckind
	dim, tag   int64
	mask, root int64  // cColl
	name       string // cColl
	pos        token.Pos
}

func (c cop) String() string {
	switch c.kind {
	case cSend:
		return fmt.Sprintf("Send(dim=%d, tag=%d)", c.dim, c.tag)
	case cRecv:
		return fmt.Sprintf("Recv(dim=%d, tag=%d)", c.dim, c.tag)
	default:
		if c.root >= 0 {
			return fmt.Sprintf("%s(mask=%d, tag=%d, root=%d)", c.name, c.mask, c.tag, c.root)
		}
		return fmt.Sprintf("%s(mask=%d, tag=%d)", c.name, c.mask, c.tag)
	}
}

// spanEvent is one span boundary a processor executes. Two events
// are the same operation when name, source position and anchoring
// call site all agree.
type spanEvent struct {
	name     string
	src, pos token.Pos
}

// verdict is one protocol violation with its anchoring position.
type verdict struct {
	pos token.Pos
	msg string
}

// ---- expression evaluation ----

type frame map[string]int64

func eval(e *expr, fr frame, id, d int64) (int64, error) {
	switch e.kind {
	case eConst:
		return e.val, nil
	case eID:
		return id, nil
	case eDim:
		return d, nil
	case eVar:
		v, ok := fr[e.name]
		if !ok {
			return 0, fmt.Errorf("unbound variable %s", e.name)
		}
		return v, nil
	case eUnary:
		x, err := eval(e.x, fr, id, d)
		if err != nil {
			return 0, err
		}
		switch e.tok {
		case token.SUB:
			return -x, nil
		case token.XOR:
			return ^x, nil
		case token.NOT:
			if x == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("bad unary op")
	case eBinary:
		x, err := eval(e.x, fr, id, d)
		if err != nil {
			return 0, err
		}
		y, err := eval(e.y, fr, id, d)
		if err != nil {
			return 0, err
		}
		b2i := func(b bool) int64 {
			if b {
				return 1
			}
			return 0
		}
		switch e.tok {
		case token.ADD:
			return x + y, nil
		case token.SUB:
			return x - y, nil
		case token.MUL:
			return x * y, nil
		case token.QUO:
			if y == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return x / y, nil
		case token.REM:
			if y == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return x % y, nil
		case token.AND:
			return x & y, nil
		case token.OR:
			return x | y, nil
		case token.XOR:
			return x ^ y, nil
		case token.AND_NOT:
			return x &^ y, nil
		case token.SHL, token.SHR:
			if y < 0 || y > 62 {
				return 0, fmt.Errorf("shift out of range")
			}
			if e.tok == token.SHL {
				return x << uint(y), nil
			}
			return x >> uint(y), nil
		case token.EQL:
			return b2i(x == y), nil
		case token.NEQ:
			return b2i(x != y), nil
		case token.LSS:
			return b2i(x < y), nil
		case token.LEQ:
			return b2i(x <= y), nil
		case token.GTR:
			return b2i(x > y), nil
		case token.GEQ:
			return b2i(x >= y), nil
		case token.LAND:
			return b2i(x != 0 && y != 0), nil
		case token.LOR:
			return b2i(x != 0 || y != 0), nil
		}
		return 0, fmt.Errorf("bad binary op")
	}
	return 0, fmt.Errorf("poisoned expression")
}

// ---- unrolling ----

// unroller flattens one protocol instantiation to a linear op list.
type unroller struct {
	id, d int64
	ops   []cop
	spans []spanEvent
	bad   *verdict // statically certain runtime panic (duplicate ExchangeAll dim)
	// at is the outermost inlined call being unrolled, if any: ops
	// inside a callee anchor there, so a finding lands in the scope
	// that was checked rather than in the helper it called.
	at token.Pos
}

func (u *unroller) exec(body []stmt, fr frame) (returned bool, err error) {
	for _, s := range body {
		switch s := s.(type) {
		case *opStmt:
			if err := u.op(s, fr); err != nil {
				return false, err
			}
			if u.bad != nil {
				return true, nil // stop unrolling past a certain panic
			}
		case *ifStmt:
			c, err := eval(s.cond, fr, u.id, u.d)
			if err != nil {
				return false, err
			}
			arm := s.els
			if c != 0 {
				arm = s.then
			}
			ret, err := u.exec(arm, fr)
			if ret || err != nil {
				return ret, err
			}
		case *forStmt:
			from, err := eval(s.from, fr, u.id, u.d)
			if err != nil {
				return false, err
			}
			to, err := eval(s.to, fr, u.id, u.d)
			if err != nil {
				return false, err
			}
			if s.incl {
				to++
			}
			if to-from > maxIter {
				return false, fmt.Errorf("loop bound too large")
			}
			for i := from; i < to; i++ {
				fr[s.v] = i
				ret, err := u.exec(s.body, fr)
				if ret || err != nil {
					delete(fr, s.v)
					return ret, err
				}
			}
			delete(fr, s.v)
		case *retStmt:
			return true, nil
		case *callStmt:
			inner := make(frame, len(s.args))
			for i, a := range s.args {
				v, err := eval(a, fr, u.id, u.d)
				if err != nil {
					return false, err
				}
				inner[s.callee.params[i]] = v
			}
			// A return inside the callee terminates the callee only.
			outer := u.at
			if !outer.IsValid() {
				u.at = s.pos
			}
			_, err := u.exec(s.callee.body, inner)
			u.at = outer
			if err != nil {
				return false, err
			}
			if u.bad != nil {
				return true, nil
			}
		}
	}
	return false, nil
}

func (u *unroller) op(s *opStmt, fr frame) error {
	if len(u.ops) >= maxOps {
		return fmt.Errorf("op budget exceeded")
	}
	evalAt := func(e *expr) (int64, error) { return eval(e, fr, u.id, u.d) }
	pos := s.pos
	if u.at.IsValid() {
		pos = u.at
	}
	switch s.kind {
	case opSpan:
		u.spans = append(u.spans, spanEvent{name: s.name, src: s.pos, pos: pos})
	case opSend, opRecv, opExchange:
		dim, err := evalAt(s.dim)
		if err != nil {
			return err
		}
		if dim < 0 || dim >= u.d {
			return errSkipDim
		}
		tag, err := evalAt(s.tag)
		if err != nil {
			return err
		}
		if s.kind != opRecv {
			u.ops = append(u.ops, cop{kind: cSend, dim: dim, tag: tag, pos: pos})
		}
		if s.kind != opSend {
			u.ops = append(u.ops, cop{kind: cRecv, dim: dim, tag: tag, pos: pos})
		}
	case opExchangeAll:
		tag, err := evalAt(s.tag)
		if err != nil {
			return err
		}
		seen := make(map[int64]bool, len(s.dims))
		var dims []int64
		for _, de := range s.dims {
			dim, err := evalAt(de)
			if err != nil {
				return err
			}
			if dim < 0 || dim >= u.d {
				return errSkipDim
			}
			if seen[dim] {
				u.bad = &verdict{pos: pos, msg: fmt.Sprintf(
					"ExchangeAll dimension list contains dim %d twice for p%d on the d=%d cube: the runtime panics on duplicate dimensions",
					dim, u.id, u.d)}
				return nil
			}
			seen[dim] = true
			dims = append(dims, dim)
		}
		for _, dim := range dims {
			u.ops = append(u.ops, cop{kind: cSend, dim: dim, tag: tag, pos: pos})
		}
		for _, dim := range dims {
			u.ops = append(u.ops, cop{kind: cRecv, dim: dim, tag: tag, pos: pos})
		}
	case opColl:
		mask, err := evalAt(s.mask)
		if err != nil {
			return err
		}
		full := int64(1)<<uint(u.d) - 1
		if mask&^full != 0 || mask < 0 {
			return errSkipDim
		}
		tag, err := evalAt(s.tag)
		if err != nil {
			return err
		}
		root, err := evalAt(s.root)
		if err != nil {
			return err
		}
		u.ops = append(u.ops, cop{kind: cColl, name: s.name, mask: mask, tag: tag, root: root, pos: pos})
	}
	return nil
}

// ---- simulation ----

type message struct {
	tag int64
	src int
	pos token.Pos
}

// boundedCheck instantiates and executes proto on every cube size up
// to maxDim and returns the first violation found, smallest cube
// first — the minimal counterexample. checked reports whether the
// check was conclusive: an open protocol (one with integer parameters,
// checked only where a caller inlines it), an instantiation that fails
// to evaluate or blows a budget, or a protocol that fits no checked
// cube proves nothing. A nil verdict with checked set means every
// checkable instantiation ran to completion with drained links and
// symmetric spans.
func boundedCheck(proto *protocol) (v *verdict, checked bool) {
	if len(proto.params) != 0 {
		return nil, false
	}
	for d := int64(1); d <= maxDim; d++ {
		n := 1 << uint(d)
		perProc := make([][]cop, n)
		spans := make([][]spanEvent, n)
		skip := false
		for id := 0; id < n && !skip; id++ {
			u := &unroller{id: int64(id), d: d}
			_, err := u.exec(proto.body, make(frame))
			switch {
			case err == errSkipDim:
				skip = true
			case err != nil:
				return nil, false
			case u.bad != nil:
				return u.bad, true
			default:
				perProc[id], spans[id] = u.ops, u.spans
			}
		}
		if skip {
			continue
		}
		v, ok := simulate(int(d), perProc)
		if !ok {
			return nil, false
		}
		if v == nil {
			v = spanSkew(int(d), spans)
		}
		if v != nil {
			return v, true
		}
		checked = true
	}
	return nil, checked
}

// spanSkew compares every processor's span sequence with p0's and
// reports the first boundary one of them executes and the other does
// not.
func spanSkew(d int, spans [][]spanEvent) *verdict {
	for q := 1; q < len(spans); q++ {
		a, b := spans[0], spans[q]
		for i := 0; i < len(a) || i < len(b); i++ {
			if i < len(a) && i < len(b) && a[i] == b[i] {
				continue
			}
			runs, skips, ev := 0, q, spanEvent{}
			if i < len(a) {
				ev = a[i]
			} else {
				runs, skips, ev = q, 0, b[i]
			}
			return &verdict{pos: ev.pos, msg: fmt.Sprintf(
				"%s is not run by every processor on the d=%d cube: p%d runs it at span boundary %d, p%d does not — all processors must open and close the same spans in the same order",
				ev.name, d, runs, i, skips)}
		}
	}
	return nil
}

// simulate runs the canonical round-based schedule on the d-cube; ok
// is false when the step budget runs out before a verdict.
func simulate(d int, perProc [][]cop) (v *verdict, ok bool) {
	n := 1 << uint(d)
	pc := make([]int, n)
	queues := make([][]message, n*d)
	var schedule []string

	for step := 0; step < n*maxOps+1; step++ {
		progress := false
		var acts []string

		// Point-to-point steps, one per proc, in rank order.
		for id := 0; id < n; id++ {
			if pc[id] >= len(perProc[id]) {
				continue
			}
			op := perProc[id][pc[id]]
			switch op.kind {
			case cSend:
				dst := id ^ (1 << uint(op.dim))
				queues[dst*d+int(op.dim)] = append(queues[dst*d+int(op.dim)],
					message{tag: op.tag, src: id, pos: op.pos})
				pc[id]++
				progress = true
				acts = append(acts, fmt.Sprintf("p%d %s", id, op))
			case cRecv:
				q := queues[id*d+int(op.dim)]
				if len(q) == 0 {
					continue // blocked
				}
				if q[0].tag != op.tag {
					return &verdict{pos: op.pos, msg: fmt.Sprintf(
						"tag mismatch on the d=%d cube: p%d Recv(dim=%d) expects tag %d but the message from p%d carries tag %d (the runtime panics here)",
						d, id, op.dim, op.tag, q[0].src, q[0].tag)}, true
				}
				queues[id*d+int(op.dim)] = q[1:]
				pc[id]++
				progress = true
				acts = append(acts, fmt.Sprintf("p%d %s", id, op))
			}
		}

		// Collective steps: fire every subcube whose members are all
		// parked at the same operation; cascade within the step.
		for fired := true; fired; {
			fired = false
			for id := 0; id < n; id++ {
				if pc[id] >= len(perProc[id]) {
					continue
				}
				op := perProc[id][pc[id]]
				if op.kind != cColl {
					continue
				}
				members, ok := collReady(d, id, op, pc, perProc)
				if !ok {
					continue
				}
				for _, q := range members {
					pc[q]++
				}
				fired = true
				progress = true
				acts = append(acts, fmt.Sprintf("%s %s", procSet(members), op))
			}
		}

		if progress {
			schedule = append(schedule, fmt.Sprintf("step %d: %s", step, strings.Join(acts, ", ")))
			continue
		}

		// Quiescent. Anyone unfinished is deadlocked.
		var blocked []int
		for id := 0; id < n; id++ {
			if pc[id] < len(perProc[id]) {
				blocked = append(blocked, id)
			}
		}
		if len(blocked) > 0 {
			return deadlockVerdict(d, step, blocked, pc, perProc, queues, schedule), true
		}
		// Everyone completed: leftover queued messages were never received.
		for dst := 0; dst < n; dst++ {
			for dim := 0; dim < d; dim++ {
				if q := queues[dst*d+dim]; len(q) > 0 {
					return &verdict{pos: q[0].pos, msg: fmt.Sprintf(
						"Send(dim=%d, tag=%d) from p%d is never received by p%d on the d=%d cube: all processors ran to completion with the message still queued",
						dim, q[0].tag, q[0].src, dst, d)}, true
				}
			}
		}
		return nil, true
	}
	return nil, false // step budget blown: inconclusive
}

// collReady reports whether the collective op that proc id is parked
// at can fire: every member of its subcube parked at an equal op.
func collReady(d, id int, op cop, pc []int, perProc [][]cop) ([]int, bool) {
	n := 1 << uint(d)
	base := id &^ int(op.mask)
	var members []int
	for q := 0; q < n; q++ {
		if q&^int(op.mask) != base {
			continue
		}
		members = append(members, q)
		if pc[q] >= len(perProc[q]) {
			return nil, false
		}
		oq := perProc[q][pc[q]]
		if oq.kind != cColl || oq.name != op.name || oq.mask != op.mask ||
			oq.tag != op.tag || oq.root != op.root {
			return nil, false
		}
	}
	return members, true
}

// procSet renders a member list compactly.
func procSet(members []int) string {
	if len(members) <= 4 {
		parts := make([]string, len(members))
		for i, m := range members {
			parts[i] = fmt.Sprintf("p%d", m)
		}
		return strings.Join(parts, ",")
	}
	return fmt.Sprintf("p%d..p%d (%d procs)", members[0], members[len(members)-1], len(members))
}

// deadlockVerdict renders the blocked table and the counterexample
// schedule. The finding anchors at the lowest blocked proc's op.
func deadlockVerdict(d, step int, blocked, pc []int, perProc [][]cop, queues [][]message, schedule []string) *verdict {
	n := 1 << uint(d)
	var parts []string
	for i, id := range blocked {
		if i == 3 {
			parts = append(parts, fmt.Sprintf("(+%d more)", len(blocked)-i))
			break
		}
		op := perProc[id][pc[id]]
		hint := ""
		switch op.kind {
		case cRecv:
			hint = fmt.Sprintf(" [no message pending on dim %d]", op.dim)
		case cColl:
			if w := firstAbsentMember(d, id, op, pc, perProc); w >= 0 {
				hint = fmt.Sprintf(" [waiting for p%d]", w)
			}
		}
		parts = append(parts, fmt.Sprintf("p%d at %s%s", id, op, hint))
	}
	msg := fmt.Sprintf("protocol deadlocks on the d=%d cube: %d/%d procs blocked at VT step %d — %s",
		d, len(blocked), n, step, strings.Join(parts, ", "))
	if s := renderSchedule(schedule); s != "" {
		msg += "; schedule: " + s
	}
	first := blocked[0]
	return &verdict{pos: perProc[first][pc[first]].pos, msg: msg}
}

// firstAbsentMember finds the lowest subcube member not parked at an
// equal collective, for the blocked-table hint.
func firstAbsentMember(d, id int, op cop, pc []int, perProc [][]cop) int {
	n := 1 << uint(d)
	base := id &^ int(op.mask)
	for q := 0; q < n; q++ {
		if q&^int(op.mask) != base || q == id {
			continue
		}
		if pc[q] >= len(perProc[q]) {
			return q
		}
		oq := perProc[q][pc[q]]
		if oq.kind != cColl || oq.name != op.name || oq.mask != op.mask ||
			oq.tag != op.tag || oq.root != op.root {
			return q
		}
	}
	return -1
}

// renderSchedule joins the per-step action lines, truncated: the
// counterexample should orient, not overwhelm.
func renderSchedule(schedule []string) string {
	const cap = 400
	s := strings.Join(schedule, "; ")
	if len(s) > cap {
		s = s[:cap] + "…"
	}
	return s
}
