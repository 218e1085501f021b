// Fixtures for commverify: identity-derived structural arguments and
// identity-dependent branches whose arms perform different
// communication sequences. Most scopes concretize, so the bounded
// model check reports them with a counterexample; HelperDim and
// FanVarByRank hide the identity where the extractor cannot follow it
// (a helper's return value, a dimension slice in a variable), and the
// taint fallback reports them instead.
package corder

import (
	"vmprim/internal/collective"
	"vmprim/internal/hypercube"
)

// DemoDeadlock is the exact shape of `vmprim -demo-deadlock`: control
// flow is identical on every processor, but the exchange dimension is
// computed from the rank, so no two partners agree.
func DemoDeadlock(p *hypercube.Proc) {
	d := (p.ID() & 1) ^ ((p.ID() >> 1) & 1)
	p.Exchange(d, 7, []float64{1, 2}) // want `protocol deadlocks on the d=2 cube: 4/4 procs blocked`
}

// TagByRank: same bug through the tag instead of the dimension.
func TagByRank(p *hypercube.Proc, data []float64) {
	p.Send(0, p.ID(), data) // want `Send\(dim=0, tag=1\) from p1 is never received by p0 on the d=1 cube`
}

// TagByRankSized is TagByRank with an integer parameter. The open
// protocol is model-checked only where a caller inlines it, so the
// declaration itself goes to the taint fallback's argument rule.
func TagByRankSized(p *hypercube.Proc, n int, data []float64) {
	p.Send(0, p.ID(), data[:n]) // want `Send argument "tag" derives from processor identity`
}

// myDim launders identity through a local helper. The extractor does
// not inline return values, so HelperDim is unverifiable; the
// collectives summary marks myDim an identity source, and the taint
// fallback catches the argument.
func myDim(p *hypercube.Proc) int { return p.ID() % 2 }

func HelperDim(p *hypercube.Proc, data []float64) {
	p.Exchange(myDim(p), 7, data) // want `argument "d" derives from processor identity`
}

// EarlyReturn: rank 0 leaves before the broadcast everyone else joins.
func EarlyReturn(p *hypercube.Proc, data []float64) {
	if p.ID() == 0 {
		return
	}
	collective.Bcast(p, 3, 5, 0, data) // want `protocol deadlocks on the d=2 cube: 3/4 procs blocked`
}

// DimMismatch: both arms exchange, but on different dimensions.
func DimMismatch(p *hypercube.Proc, data []float64) {
	if p.ID()&1 == 0 {
		p.Exchange(0, 5, data) // want `protocol deadlocks on the d=2 cube: 2/4 procs blocked`
	} else {
		p.Exchange(1, 5, data)
	}
}

// SwitchDiverge: an identity-tainted switch whose arms run different
// collectives.
func SwitchDiverge(p *hypercube.Proc, data []float64) {
	switch p.ID() {
	case 0:
		collective.Bcast(p, 3, 2, 0, data) // want `protocol deadlocks on the d=2 cube: 4/4 procs blocked`
	default:
		collective.AllGather(p, 3, 2, data)
	}
}

// SymmetricPayloads is fine: the structural arguments agree on both
// arms, only the payload differs — which is the whole point of SPMD.
func SymmetricPayloads(p *hypercube.Proc, data []float64) {
	if p.ID() == 0 {
		collective.AllGather(p, 3, 4, data[:1])
	} else {
		collective.AllGather(p, 3, 4, data[1:])
	}
}

// UniformChoice is fine: the branch does diverge, but its condition is
// rank-independent, so every processor takes the same side. (A bool
// parameter is beyond the extractor; the taint fallback judges it.)
func UniformChoice(p *hypercube.Proc, big bool, data []float64) {
	if big {
		collective.AllGather(p, 3, 1, data)
	} else {
		collective.Bcast(p, 3, 1, 0, data)
	}
}

// LoopFroth is fine: the rank-0 arm runs a loop full of control flow
// (including a continue) but no communication, so every processor
// still meets the broadcast below in the same position.
func LoopFroth(p *hypercube.Proc, data []float64) {
	if p.ID() == 0 {
		for i := range data {
			if data[i] < 0 {
				continue
			}
			data[i] *= 2
		}
	}
	collective.Bcast(p, 3, 9, 0, data)
}

// FanByRank: the all-port dimension list is built per element, and one
// element reads the rank — even ranks list dim 0 twice, which the
// runtime rejects before anyone communicates.
func FanByRank(p *hypercube.Proc, payloads [][]float64) {
	p.ExchangeAll([]int{0, p.ID() & 1}, 2, payloads) // want `ExchangeAll dimension list contains dim 0 twice for p0 on the d=1 cube`
}

// FanVarByRank: the same bug laundered through a local variable. The
// extractor models only literal dimension lists, so the scope falls
// to the taint fallback, whose assignment fixpoint carries the taint
// to the dims slice.
func FanVarByRank(p *hypercube.Proc, payloads [][]float64) {
	dims := []int{p.ID() % 2, 1}
	p.ExchangeAll(dims, 2, payloads) // want `ExchangeAll argument "dims" derives from processor identity`
}

// FanDiverge: both arms fan out over all-port exchanges, but the
// dimension lists differ, so the partners do not pair up.
func FanDiverge(p *hypercube.Proc, payloads [][]float64) {
	if p.ID()&1 == 0 {
		p.ExchangeAll([]int{0, 1}, 2, payloads) // want `protocol deadlocks on the d=3 cube: 4/8 procs blocked`
	} else {
		p.ExchangeAll([]int{1, 2}, 2, payloads)
	}
}

// FanUniform is fine: a constant dimension list, per-element payloads.
func FanUniform(p *hypercube.Proc, payloads [][]float64) {
	p.ExchangeAll([]int{0, 1, 2}, 2, payloads)
}

// FanSymmetric is fine: the arms agree on every structural argument of
// the all-port exchange; only the payload slices differ.
func FanSymmetric(p *hypercube.Proc, payloads [][]float64) {
	if p.ID() == 0 {
		p.ExchangeAll([]int{0, 1}, 4, payloads[:1])
	} else {
		p.ExchangeAll([]int{0, 1}, 4, payloads[1:])
	}
}

// OwnerSwitch is fine: the owner-subcube idiom leads with an untainted
// "replicate everywhere" guard; the tainted tail cases perform no
// communication, so the arms cannot fall out of step. (The bool guard
// leaves the scope to the taint fallback.)
func OwnerSwitch(p *hypercube.Proc, replicate bool, data []float64) {
	switch {
	case replicate:
		collective.Bcast(p, 3, 5, 0, data)
	case p.ID() == 0:
		data[0] = 1
	}
}
