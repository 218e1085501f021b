package bench

import (
	"fmt"
	"math/rand"

	"vmprim/internal/apps"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

// Extension experiments X1–X2: beyond the paper's tables, exercising
// the library's extension features (outer-product matrix multiply and
// the iterative solver) under the same cost model.

// X1MatMul times the primitive-composed outer-product matrix multiply
// against the modelled serial time, across sizes.
func X1MatMul() (*Table, error) {
	const d = 6
	params := costmodel.CM2()
	m, err := hypercube.New(d, params)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	t := &Table{
		ID:      "X1",
		Title:   fmt.Sprintf("C = A*B by outer products, p=%d (simulated us)", m.P()),
		Columns: []string{"n", "T (us)", "T/step", "pT/T1", "efficiency"},
		Notes:   "each inner-dimension step is ExtractCol + ExtractRow (+Distribute) + rank-1 update; per-step time is flat until the m/p volume term dominates",
	}
	for _, n := range []int{16, 32, 64, 128} {
		a := RandMat(1400+int64(n), n, n)
		b := RandMat(1500+int64(n), n, n)
		_, elapsed, err := apps.MatMul(m, a, b, embed.Block)
		if err != nil {
			return nil, err
		}
		t1 := params.FlopCost(2 * n * n * n)
		p := float64(m.P())
		ratio := p * float64(elapsed) / float64(t1)
		t.AddRow(n, float64(elapsed), float64(elapsed)/float64(n), ratio, 1/ratio)
	}
	return t, nil
}

// X2DirectVsIterative compares the direct elimination solve with
// conjugate gradient on SPD systems: CG's per-iteration cost is one
// matvec (O(m/p + lg p)) and its iteration count is condition-bound,
// so it overtakes O(n) elimination steps as n grows.
func X2DirectVsIterative() (*Table, error) {
	const d = 6
	m, err := hypercube.New(d, costmodel.CM2())
	if err != nil {
		return nil, err
	}
	defer m.Close()
	t := &Table{
		ID:      "X2",
		Title:   fmt.Sprintf("SPD solve: elimination vs conjugate gradient, p=%d (simulated us)", m.P()),
		Columns: []string{"n", "gauss", "cg", "cg iters", "gauss/cg"},
		Notes:   "well-conditioned SPD systems: CG converges in far fewer than n steps, each much cheaper than an elimination step, so the gap widens with n",
	}
	for _, n := range []int{32, 64, 128} {
		a, b := spdSystem(1600+int64(n), n)
		_, tGauss, err := apps.SolveGauss(m, a, b, apps.DefaultGaussOpts())
		if err != nil {
			return nil, err
		}
		res, tCG, err := apps.SolveCG(m, a, b, apps.CGOpts{Tol: 1e-8})
		if err != nil {
			return nil, err
		}
		if !res.Converged {
			return nil, fmt.Errorf("bench: X2 CG failed to converge at n=%d", n)
		}
		t.AddRow(n, float64(tGauss), float64(tCG), res.Iterations, float64(tGauss)/float64(tCG))
	}
	return t, nil
}

// spdSystem returns a well-conditioned SPD matrix and right-hand side.
func spdSystem(seed int64, n int) (*serial.Mat, []float64) {
	rng := rand.New(rand.NewSource(seed))
	raw := serial.NewMat(n, n)
	for i := range raw.A {
		raw.A[i] = rng.NormFloat64() / float64(n)
	}
	a := serial.MatMul(raw.Transpose(), raw)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+1)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return a, b
}

// X3Tridiag shows the log-depth of distributed cyclic reduction: the
// simulated solve time grows logarithmically in n once the machine is
// saturated, against the serial Thomas algorithm's linear work.
func X3Tridiag() (*Table, error) {
	const d = 6
	params := costmodel.CM2()
	m, err := hypercube.New(d, params)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	t := &Table{
		ID:      "X3",
		Title:   fmt.Sprintf("tridiagonal solve by cyclic reduction, p=%d (simulated us)", m.P()),
		Columns: []string{"n", "T (us)", "T_thomas (modelled)", "speedup"},
		Notes:   "cyclic reduction pays ~2 lg n routed rounds of start-up, so under CM2-like start-up costs it only overtakes the 8n-flop serial Thomas algorithm for large n — the same crossover the hybrid-algorithm literature (Johnsson & Ho) reports; its own time grows only logarithmically",
	}
	for _, n := range []int{256, 1024, 4096, 16384} {
		rng := rand.New(rand.NewSource(1700 + int64(n)))
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		dd := make([]float64, n)
		for i := 0; i < n; i++ {
			if i > 0 {
				a[i] = rng.NormFloat64()
			}
			if i < n-1 {
				c[i] = rng.NormFloat64()
			}
			b[i] = 4 + rng.Float64()
			dd[i] = rng.NormFloat64()
		}
		_, elapsed, err := apps.SolveTridiag(m, a, b, c, dd)
		if err != nil {
			return nil, err
		}
		thomas := params.FlopCost(8 * n)
		t.AddRow(n, float64(elapsed), float64(thomas), float64(thomas)/float64(elapsed))
	}
	return t, nil
}
