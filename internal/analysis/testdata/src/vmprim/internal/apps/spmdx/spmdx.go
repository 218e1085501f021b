// Cross-package fixtures for commverify's taint fallback: both the
// taint source and the collective arrive from
// vmprim/internal/other/xhelp via package facts. The facts-off control
// run asserts these diagnostics disappear without them.
package spmdx

import (
	"vmprim/internal/hypercube"
	"vmprim/internal/other/xhelp"
)

// GuardedReduce runs an imported collective wrapper under an imported
// identity guard.
func GuardedReduce(p *hypercube.Proc, data []float64) {
	if xhelp.Quadrant(p) > 0 {
		xhelp.SumAll(p, data) // want `SumAll is control-dependent on processor identity`
	}
}
