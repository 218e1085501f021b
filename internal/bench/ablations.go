package bench

import (
	"fmt"

	"vmprim/internal/apps"
	"vmprim/internal/collective"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
)

// Ablations A1–A3: design-choice experiments DESIGN.md calls out.

// A1Ports compares the one-port machine (the paper's implementation
// model) with an all-port machine on the operations that can overlap
// their links: a d-way neighbor exchange and a barrier.
func A1Ports() (*Table, error) {
	const d = 6
	t := &Table{
		ID:      "A1",
		Title:   fmt.Sprintf("one-port vs all-port, d=%d (simulated us)", d),
		Columns: []string{"words/link", "one-port", "all-port", "ratio"},
		Notes:   "a d-way neighbor exchange serializes on one port (d sends) but overlaps on all ports; the ratio approaches d for start-up-bound sizes",
	}
	for _, n := range []int{1, 16, 256, 4096} {
		var times [2]costmodel.Time
		for pi, allPorts := range []bool{false, true} {
			err := withMachine(d, costmodel.CM2().WithAllPorts(allPorts), func(m *hypercube.Machine) (err error) {
				times[pi], err = m.Run(func(p *hypercube.Proc) {
					dims := make([]int, d)
					payloads := make([][]float64, d)
					for i := range dims {
						dims[i] = i
						payloads[i] = make([]float64, n)
					}
					p.ExchangeAll(dims, 1, payloads)
				})
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		t.AddRow(n, float64(times[0]), float64(times[1]), float64(times[0])/float64(times[1]))
	}
	return t, nil
}

// A2Broadcast compares the binomial-tree broadcast with the
// scatter/all-gather broadcast across message lengths and start-up
// costs: the crossover moves with tau exactly as the cost model
// predicts.
func A2Broadcast() (*Table, error) {
	const d = 8
	t := &Table{
		ID:      "A2",
		Title:   fmt.Sprintf("broadcast algorithms, p=%d (simulated us)", 1<<d),
		Columns: []string{"tau", "n", "binomial", "scatter/allgather", "winner"},
		Notes:   "binomial wins while tau dominates (short messages, high start-up); scatter/all-gather wins once n*t_c >> tau",
	}
	mask := (1 << d) - 1
	for _, tau := range []costmodel.Time{10, 100, 1000} {
		err := withMachine(d, costmodel.CM2().WithStartup(tau), func(m *hypercube.Machine) error {
			for _, n := range []int{256, 1024, 4096, 16384} {
				data := make([]float64, n)
				var times [2]costmodel.Time
				for ai, large := range []bool{false, true} {
					elapsed, err := m.Run(func(p *hypercube.Proc) {
						var src []float64
						if p.ID() == 0 {
							src = data
						}
						if large {
							collective.BcastLarge(p, mask, 1, 0, src)
						} else {
							collective.Bcast(p, mask, 1, 0, src)
						}
					})
					if err != nil {
						return err
					}
					times[ai] = elapsed
				}
				winner := "binomial"
				if times[1] < times[0] {
					winner = "scatter/allgather"
				}
				t.AddRow(float64(tau), n, float64(times[0]), float64(times[1]), winner)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// A3Cyclic compares block (consecutive) and cyclic row/column
// embeddings in Gaussian elimination: as the active submatrix shrinks,
// the block embedding idles whole processor rows while the cyclic one
// stays balanced.
func A3Cyclic() (*Table, error) {
	const d = 6
	m, err := hypercube.New(d, costmodel.CM2())
	if err != nil {
		return nil, err
	}
	defer m.Close()
	t := &Table{
		ID:      "A3",
		Title:   fmt.Sprintf("Gaussian elimination embeddings, p=%d (simulated us)", m.P()),
		Columns: []string{"n", "block", "cyclic", "block/cyclic"},
		Notes:   "cyclic embedding keeps the shrinking active submatrix spread over all processors",
	}
	for _, n := range []int{64, 128, 256} {
		a, b := RandSystem(1300+int64(n), n)
		_, tBlock, err := apps.SolveGauss(m, a, b, apps.GaussOpts{RKind: embed.Block, CKind: embed.Block})
		if err != nil {
			return nil, err
		}
		_, tCyclic, err := apps.SolveGauss(m, a, b, apps.GaussOpts{RKind: embed.Cyclic, CKind: embed.Cyclic})
		if err != nil {
			return nil, err
		}
		t.AddRow(n, float64(tBlock), float64(tCyclic), float64(tBlock)/float64(tCyclic))
	}
	return t, nil
}

// A4AllPortBroadcast measures the rotated-tree all-port broadcast
// (Johnsson-Ho) against the one-port binomial tree on the all-port
// machine: the bandwidth term improves by up to a factor d.
func A4AllPortBroadcast() (*Table, error) {
	const d = 8
	m, err := hypercube.New(d, costmodel.CM2().WithAllPorts(true))
	if err != nil {
		return nil, err
	}
	defer m.Close()
	t := &Table{
		ID:      "A4",
		Title:   fmt.Sprintf("all-port broadcast (d rotated trees) vs binomial, p=%d, all-port machine (simulated us)", m.P()),
		Columns: []string{"n", "binomial", "rotated trees", "speedup"},
		Notes:   "the d edge-disjoint rotated binomial trees overlap their transfers on the d ports; speedup approaches d = 8 once bandwidth dominates start-up",
	}
	mask := (1 << d) - 1
	for _, n := range []int{256, 2048, 16384, 65536} {
		data := make([]float64, n)
		var times [2]costmodel.Time
		for ai, rotated := range []bool{false, true} {
			elapsed, err := m.Run(func(p *hypercube.Proc) {
				var src []float64
				if p.ID() == 0 {
					src = data
				}
				if rotated {
					collective.BcastAllPort(p, mask, 1, 0, src)
				} else {
					collective.Bcast(p, mask, 1, 0, src)
				}
			})
			if err != nil {
				return nil, err
			}
			times[ai] = elapsed
		}
		t.AddRow(n, float64(times[0]), float64(times[1]), float64(times[0])/float64(times[1]))
	}
	return t, nil
}
