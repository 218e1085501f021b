// Cross-package fixtures for commverify's taint fallback: the identity
// source and the collective live in vmprim/internal/other/xhelp and are
// known here only through package facts. The extractor cannot
// concretize a call's return value, so both scopes fall to the taint
// tier. The test also re-runs this package with facts disabled and
// asserts zero findings — the diagnostics below exist because the
// facts flow.
package xuse

import (
	"vmprim/internal/hypercube"
	"vmprim/internal/other/xhelp"
)

// UseQuadrant feeds an imported identity-derived value into an
// exchange dimension.
func UseQuadrant(p *hypercube.Proc, data []float64) {
	p.Exchange(xhelp.Quadrant(p), 7, data) // want `argument "d" derives from processor identity`
}

// GuardedSum needs both facts at once: Quadrant to taint the guard,
// SumAll to make the skipped call a communication event.
func GuardedSum(p *hypercube.Proc, data []float64) {
	if xhelp.Quadrant(p) == 0 {
		return // want `early return under a processor-identity condition skips the collective`
	}
	xhelp.SumAll(p, data)
}
