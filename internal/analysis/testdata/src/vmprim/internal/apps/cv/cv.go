// Package cv holds the commverify fixtures: SPMD protocols the
// bounded model checker must prove deadlock-free, and broken ones it
// must flag with a concrete counterexample. Every clean function here
// is fully concretizable — the point of the positive cases is that
// the checker actually verified them, not that it gave up.
package cv

import (
	"vmprim/internal/collective"
	"vmprim/internal/hypercube"
	"vmprim/internal/other/xrelay"
)

// PipelinedShift is the canonical dimension-ordered shift: every proc
// exchanges with each neighbor in the same dimension order. Clean.
func PipelinedShift(p *hypercube.Proc) {
	buf := p.GetBuf(4)
	for k := 0; k < p.Dim(); k++ {
		buf = p.Exchange(k, 3, buf)
	}
	p.Recycle(buf)
}

// TreeGather folds values toward proc 0 along a binomial tree: the
// high half of each subcube sends and retires, the low half receives
// and continues. Clean — sends and receives pair exactly.
func TreeGather(p *hypercube.Proc) {
	acc := p.GetBuf(4)
	for k := 0; k < p.Dim(); k++ {
		if (p.ID()>>k)&1 == 1 {
			p.Send(k, 5, acc)
			return
		}
		got := p.Recv(k, 5)
		_ = got
	}
	_ = acc
}

// HolderSubcube enters a collective from a guarded subcube: mask 1
// groups procs in pairs along dim 0, and the guard ID&2 == 0 admits
// whole pairs, never half of one. Clean.
func HolderSubcube(p *hypercube.Proc) {
	buf := p.GetBuf(8)
	if p.ID()&2 == 0 {
		buf = collective.Bcast(p, 1, 4, 0, buf)
	}
	buf = p.Exchange(0, 9, buf)
	p.Recycle(buf)
}

// Relay is deliberately rank-asymmetric: only proc 0 sends and only
// proc 1 receives. A sequence comparison of the two arms would flag the
// asymmetry; the model checker proves the pairing sound. Clean.
func Relay(p *hypercube.Proc) {
	if p.ID() == 0 {
		p.Send(0, 11, p.GetBuf(2))
	}
	if p.ID() == 1 {
		got := p.Recv(0, 11)
		p.Recycle(got)
	}
}

// FanAll exchanges along dims 0 and 1 in one ExchangeAll. Clean on
// every cube that has both dimensions (d=1 is skipped, not flagged:
// the protocol is written for bigger cubes).
func FanAll(p *hypercube.Proc) {
	bufs := p.ExchangeAll([]int{0, 1}, 6, nil)
	_ = bufs
}

// BarrierThenShift separates phases with a whole-cube barrier. Clean.
func BarrierThenShift(p *hypercube.Proc) {
	p.Barrier(p.FullMask(), 1)
	buf := p.Exchange(0, 2, p.GetBuf(1))
	p.Recycle(buf)
}

// edgeSend is an open protocol (free k and tag): not checkable on its
// own, but inlined and concretized at every call site.
func edgeSend(p *hypercube.Proc, k, tag int) {
	if (p.ID()>>k)&1 == 0 {
		p.Send(k, tag, nil)
	} else {
		got := p.Recv(k, tag)
		_ = got
	}
}

// LocalInline drives the helper with concrete arguments; the checker
// verifies the inlined whole. Clean.
func LocalInline(p *hypercube.Proc) {
	edgeSend(p, 0, 21)
}

// RelayPair pairs the cross-package halves with agreeing tags; the
// xrelay protocol facts make the whole verifiable. Clean.
func RelayPair(p *hypercube.Proc) {
	xrelay.HopSend(p, 5, nil)
	buf := xrelay.HopRecv(p, 5)
	_ = buf
}

// CrossShift is the -demo-deadlock bug: procs 0 and 3 exchange along
// dim 0 while procs 1 and 2 exchange along dim 1, so every Recv waits
// on a neighbor that sent into a different queue.
func CrossShift(p *hypercube.Proc) {
	d := (p.ID() & 1) ^ ((p.ID() >> 1) & 1)
	out := p.Exchange(d, 7, p.GetBuf(3)) // want `protocol deadlocks on the d=2 cube: 4/4 procs blocked at VT step 1`
	p.Recycle(out)
}

// HolderWrongMask guards a mask-3 collective with a mask-1-shaped
// condition: the guard admits half of each 4-proc subcube, and the
// admitted half waits forever for the other.
func HolderWrongMask(p *hypercube.Proc) {
	if p.ID()&1 == 0 {
		got := collective.AllGather(p, 3, 4, p.GetBuf(1)) // want `protocol deadlocks on the d=2 cube: 2/4 procs blocked`
		_ = got
	}
}

// LostSend sends with no receiver anywhere in the protocol.
func LostSend(p *hypercube.Proc) {
	if p.ID() == 0 {
		p.Send(0, 4, nil) // want `Send\(dim=0, tag=4\) from p0 is never received by p1 on the d=1 cube`
	}
}

// TagSkew pairs a Send and a Recv on the same link with different
// tags — the runtime panics at the Recv.
func TagSkew(p *hypercube.Proc) {
	if p.ID()&1 == 0 {
		p.Send(0, 1, nil)
	} else {
		got := p.Recv(0, 2) // want `tag mismatch on the d=1 cube: p1 Recv\(dim=0\) expects tag 2 but the message from p0 carries tag 1`
		_ = got
	}
}

// RecvFirst posts the Recv before the Send on both sides of the link:
// a head-to-head wait that deadlocks in the very first step.
func RecvFirst(p *hypercube.Proc) {
	got := p.Recv(0, 8) // want `protocol deadlocks on the d=1 cube: 2/2 procs blocked at VT step 0`
	p.Send(0, 8, got)
}

// FanDup lists the same dimension twice in an ExchangeAll — a
// statically certain runtime panic.
func FanDup(p *hypercube.Proc) {
	x := p.ExchangeAll([]int{0, 0}, 5, nil) // want `ExchangeAll dimension list contains dim 0 twice for p0 on the d=1 cube`
	_ = x
}

// FanSkew derives the dimension list from the rank: even and odd
// procs exchange along different dims, so half the receives starve.
func FanSkew(p *hypercube.Proc) {
	x := p.ExchangeAll([]int{p.ID() & 1}, 9, nil) // want `protocol deadlocks on the d=2 cube: 2/4 procs blocked`
	_ = x
}

// RelaySkew drives the cross-package halves with different tags; only
// the imported protocol facts make this visible.
func RelaySkew(p *hypercube.Proc) {
	xrelay.HopSend(p, 4, nil)
	buf := xrelay.HopRecv(p, 5) // want `tag mismatch on the d=1 cube: p1 Recv\(dim=0\) expects tag 5 but the message from p0 carries tag 4`
	_ = buf
}

// ScrambleUser calls xrelay's opaque communicator: the scope is
// unverifiable and must stay silent — no finding, no false proof.
func ScrambleUser(p *hypercube.Proc) {
	p.Send(0, 2, nil)
	xrelay.Scramble(p, p.GetBuf(1))
}

// OwnedShift hands every phase's buffer over to the neighbor, as the
// router does with its per-phase wires. Clean.
func OwnedShift(p *hypercube.Proc) {
	for k := 0; k < p.Dim(); k++ {
		wire := p.ExchangeOwned(k, 12, make([]float64, 2))
		_ = wire
	}
}

// OwnedCross is CrossShift with hand-over exchanges: a hand-over is
// still a send and a receive, so it deadlocks the same way.
func OwnedCross(p *hypercube.Proc) {
	d := (p.ID() & 1) ^ ((p.ID() >> 1) & 1)
	wire := p.ExchangeOwned(d, 13, nil) // want `protocol deadlocks on the d=2 cube: 4/4 procs blocked at VT step 1`
	_ = wire
}
