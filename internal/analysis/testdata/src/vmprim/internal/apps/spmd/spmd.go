// Fixtures for commverify's two tiers on collectives and spans under
// identity-dependent control. Scopes over p.ID() concretize and the
// bounded model check reports them with a counterexample; scopes over
// the grid coordinates, bool flags, collective results or a dynamic
// runner do not, nor do open protocols with integer parameters, and
// the taint fallback judges those.
package spmd

import (
	"vmprim/internal/collective"
	"vmprim/internal/core"
	"vmprim/internal/hypercube"
)

// rootOnlyBcast is the canonical deadlock: one processor calls the
// collective, the rest skip it.
func rootOnlyBcast(p *hypercube.Proc, data []float64) {
	if p.ID() == 0 {
		collective.Bcast(p, 1, 1, 0, data) // want `protocol deadlocks on the d=1 cube: 1/2 procs blocked at VT step 0 — p0 at Bcast`
	}
}

// rootOnlySized is rootOnlyBcast with an integer parameter. The open
// protocol is model-checked only where a caller inlines it, so the
// declaration itself goes to the taint fallback.
func rootOnlySized(p *hypercube.Proc, n int, data []float64) {
	if p.ID() == 0 {
		collective.Bcast(p, 1, 1, 0, data[:n]) // want `Bcast is control-dependent on processor identity`
	}
}

// uniform is the correct shape: every processor calls, the root is an
// argument, and per-rank data differences are fine.
func uniform(p *hypercube.Proc, data []float64) {
	var src []float64
	if p.ID() == 0 {
		src = data
	}
	got := collective.Bcast(p, 1, 1, 0, src)
	p.Recycle(got)
}

// helper performs a collective, so calling it is calling one.
func helper(p *hypercube.Proc, data []float64) {
	got := collective.AllGather(p, 1, 1, data)
	p.Recycle(got)
}

// hiddenInHelper launders the collective through the helper; the
// helper's protocol is inlined, and the finding anchors at the call.
func hiddenInHelper(p *hypercube.Proc, data []float64) {
	if p.ID() != 0 {
		helper(p, data) // want `protocol deadlocks on the d=1 cube: 1/2 procs blocked at VT step 0 — p1 at AllGather`
	}
}

// taintedVar tracks identity through an intermediate variable.
func taintedVar(p *hypercube.Proc) {
	root := p.ID() == 0
	if root {
		p.Barrier(1, 1) // want `protocol deadlocks on the d=1 cube: 1/2 procs blocked at VT step 0 — p0 at Barrier`
	}
}

// earlyReturn diverges: non-holders leave, holders reach the
// collective below and wait forever.
func earlyReturn(e *core.Env) {
	if e.GridRow() != 0 {
		return // want `early return under a processor-identity condition skips the collective`
	}
	e.DotVec()
}

// safeEarlyReturn does not diverge: the only span close after the
// return is deferred, so it runs on every exit, and no collective
// follows.
func safeEarlyReturn(e *core.Env) {
	e.BeginSpan("op")
	defer e.EndSpan()
	if e.GridCol() != 0 {
		return
	}
}

// sanitized shows that collective results carry no taint: they are
// replicated, identical on every processor, so branching on one is
// symmetric.
func sanitized(p *hypercube.Proc, data []float64) {
	got := collective.Bcast(p, 1, 1, 0, data)
	if got[0] > 0 {
		p.Barrier(1, 2)
	}
	p.Recycle(got)
}

// hostCode shows that a closure (the SPMD body handed to a runner)
// does not taint the host-side results of the call it is passed to.
func hostCode(run func(func(p *hypercube.Proc)) error, data []float64) error {
	err := run(func(p *hypercube.Proc) {
		var src []float64
		if p.ID() == 0 {
			src = data
		}
		got := collective.Bcast(p, 1, 1, 0, src)
		p.Recycle(got)
	})
	if err != nil {
		return err
	}
	return nil
}

// closureGuarded flags divergence inside the closure scope itself.
func closureGuarded(run func(func(p *hypercube.Proc)), data []float64) {
	run(func(p *hypercube.Proc) {
		if p.ID() == 0 {
			collective.Bcast(p, 1, 1, 0, data) // want `protocol deadlocks on the d=1 cube: 1/2 procs blocked at VT step 0 — p0 at Bcast`
		}
	})
}

// switchGuards mirrors core.ExtractRow: a uniform guard ahead of a
// rank guard in a condition-less switch. Only the rank-guarded case
// is identity-dependent.
func switchGuards(e *core.Env, replicate bool) {
	switch {
	case replicate:
		e.DotVec()
	case e.GridRow() == 0:
		e.DotVec() // want `DotVec is control-dependent on processor identity`
	}
}

// subcube looks like a holder-only collective, but mask 1 pairs p0
// with p1, which never arrives.
func subcube(p *hypercube.Proc, data []float64) {
	if p.ID() == 0 {
		got := collective.AllGather(p, 1, 1, data) // want `protocol deadlocks on the d=1 cube: 1/2 procs blocked at VT step 0 — p0 at AllGather`
		p.Recycle(got)
	}
}

// holderGather documents a deliberate holder-only collective with a
// suppression directive, in the shape of core.ScanVec: the tag comes
// from NextTag, so the scope is beyond the model checker, and the
// directive silences the taint fallback's early-return finding.
func holderGather(e *core.Env, data []float64) {
	tag := e.NextTag()
	if e.GridRow() != 0 {
		//lint:allow commverify the gather below spans the holder row's subcube only, which the other rows are not part of
		return
	}
	got := collective.AllGather(e.P, 1, tag, data)
	e.P.Recycle(got)
}

// guardedSpan opens a span on rank 0 only. Nothing blocks, but the
// processors' span trees diverge, which breaks the SPMD span contract.
func guardedSpan(p *hypercube.Proc) {
	if p.ID() == 0 {
		p.BeginSpan("x") // want `BeginSpan is not run by every processor on the d=1 cube: p0 runs it at span boundary 0, p1 does not`
		p.EndSpan()
	}
}

// phase communicates nothing, but its span makes it part of the
// protocol of every caller.
func phase(p *hypercube.Proc) {
	p.BeginSpan("phase")
	p.EndSpan()
}

// spanSkipped: odd ranks return before the phase the others open.
func spanSkipped(p *hypercube.Proc) {
	if p.ID()&1 == 1 {
		return
	}
	phase(p) // want `BeginSpan is not run by every processor on the d=1 cube: p0 runs it at span boundary 0, p1 does not`
}

// spanUniform is symmetric: the guard reads the cube dimension, which
// every processor shares, and the deferred close runs on every exit.
func spanUniform(p *hypercube.Proc) {
	p.BeginSpan("op")
	defer p.EndSpan()
	if p.Dim() > 2 {
		p.BeginSpan("big")
		p.EndSpan()
	}
}
