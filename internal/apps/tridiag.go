package apps

import (
	"fmt"

	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/gray"
	"vmprim/internal/hypercube"
	"vmprim/internal/router"
)

// Distributed tridiagonal solve by odd-even cyclic reduction — the
// workhorse of the Alternating Direction Method literature surrounding
// the paper (Johnsson & Ho's tridiagonal-solver studies appear in the
// same TMC report series). The equations live in the load-balanced
// linear embedding; each of the 2 lg n reduction/back-substitution
// levels exchanges the O(n/2^s) active equations' neighbors through
// one batched personalized routing, so the parallel time is
// O(lg n (lg p + tau)) once n/p reaches one — and the local levels
// (stride inside a processor's block) cost no communication at all.

// SolveTridiag solves a[i]*x[i-1] + b[i]*x[i] + c[i]*x[i+1] = d[i]
// on machine mach by distributed odd-even cyclic reduction and returns
// x and the simulated elapsed time. The system must be numerically
// safe without pivoting (e.g. diagonally dominant), like the serial
// Thomas reference.
func SolveTridiag(mach *hypercube.Machine, a, b, c, d []float64) ([]float64, costmodel.Time, error) {
	n := len(b)
	if len(a) != n || len(c) != n || len(d) != n {
		return nil, 0, fmt.Errorf("apps: SolveTridiag band lengths %d/%d/%d/%d", len(a), len(c), len(c), len(d))
	}
	if n == 0 {
		return nil, 0, nil
	}
	// Pad to 2^q - 1 with identity equations x_i = 0, which decouple
	// from the real system because their off-diagonals are zero.
	q := gray.CeilLog2(n + 1)
	np := 1<<q - 1
	g := embed.SplitFor(mach.Dim(), 1, np) // layout choice irrelevant for Linear vectors
	lmap, err := embed.NewMap1D(np, g.D, embed.Block)
	if err != nil {
		return nil, 0, err
	}
	// The host-visible solution vector spans the padded length so its
	// map matches the working layout exactly; the driver slices the
	// real prefix off at the end.
	xOut, err := core.NewVector(g, np, core.Linear, embed.Block, 0, false)
	if err != nil {
		return nil, 0, err
	}

	elapsed, err := mach.Run(func(p *hypercube.Proc) {
		e := core.NewEnv(p, g)
		pid := p.ID()
		myCoord := gray.Decode(pid)
		// Local slices of the padded band vectors.
		bs := lmap.B
		la := make([]float64, bs)
		lb := make([]float64, bs)
		lc := make([]float64, bs)
		ld := make([]float64, bs)
		lx := make([]float64, bs)
		globalOf := func(l int) int { return lmap.GlobalOf(myCoord, l) }
		for l := 0; l < bs; l++ {
			gi := globalOf(l)
			switch {
			case gi < 0:
				lb[l] = 1
			case gi < n:
				la[l], lb[l], lc[l], ld[l] = a[gi], b[gi], c[gi], d[gi]
			default:
				lb[l] = 1 // padding equation
			}
		}
		ownerOf := func(gi int) int { return gray.Encode(lmap.CoordOf(gi)) }
		localOf := func(gi int) int { return lmap.LocalOf(gi) }
		// fetchEqs gathers (a,b,c,d) for a set of global indices
		// through one batched routing round trip.
		fetchEqs := func(idx []int) map[int][4]float64 {
			want := make([]router.Msg, len(idx))
			for q2, gi := range idx {
				want[q2] = router.Msg{Dst: ownerOf(gi), Key: gi}
			}
			var eq [4]float64 // Request copies each payload before the next serve
			got := router.Request(p, e.NextTag2(), want, func(key int) []float64 {
				l := localOf(key)
				eq = [4]float64{la[l], lb[l], lc[l], ld[l]}
				return eq[:]
			})
			out := make(map[int][4]float64, len(idx))
			for q2, gi := range idx {
				out[gi] = [4]float64{got[q2][0], got[q2][1], got[q2][2], got[q2][3]}
			}
			return out
		}
		fetchX := func(idx []int) map[int]float64 {
			want := make([]router.Msg, len(idx))
			for q2, gi := range idx {
				want[q2] = router.Msg{Dst: ownerOf(gi), Key: gi}
			}
			var xv [1]float64
			got := router.Request(p, e.NextTag2(), want, func(key int) []float64 {
				xv[0] = lx[localOf(key)]
				return xv[:]
			})
			out := make(map[int]float64, len(idx))
			for q2, gi := range idx {
				out[gi] = got[q2][0]
			}
			return out
		}
		activeAt := func(s int) []int {
			// Global indices i in my block with (i+1) divisible by 2^(s+1).
			step := 1 << (s + 1)
			var act []int
			for l := 0; l < bs; l++ {
				gi := globalOf(l)
				if gi >= 0 && (gi+1)%step == 0 && gi < np {
					act = append(act, gi)
				}
			}
			return act
		}

		// Reduction: after level s, the equations with (i+1) % 2^(s+1)
		// == 0 form a tridiagonal system among themselves at stride
		// 2^(s+1).
		for s := 0; s < q-1; s++ {
			h := 1 << s
			act := activeAt(s)
			var need []int
			for _, gi := range act {
				need = append(need, gi-h)
				if gi+h < np {
					need = append(need, gi+h)
				}
			}
			vals := fetchEqs(need)
			flops := 0
			for _, gi := range act {
				l := localOf(gi)
				lo := vals[gi-h]
				hi := [4]float64{0, 1, 0, 0}
				if gi+h < np {
					hi = vals[gi+h]
				}
				alpha := la[l] / lo[1]
				gamma := lc[l] / hi[1]
				la[l] = -alpha * lo[0]
				lc[l] = -gamma * hi[2]
				lb[l] = lb[l] - alpha*lo[2] - gamma*hi[0]
				ld[l] = ld[l] - alpha*lo[3] - gamma*hi[3]
				flops += 12
			}
			p.Compute(flops)
		}
		// Apex: the single equation at i = 2^(q-1) - 1.
		apex := 1<<(q-1) - 1
		if ownerOf(apex) == pid {
			l := localOf(apex)
			lx[l] = ld[l] / lb[l]
			p.Compute(1)
		}
		// Back substitution, level by level down.
		for s := q - 2; s >= 0; s-- {
			h := 1 << s
			// Solve the equations that were reduced INTO at level s:
			// indices with (i+1) % 2^(s+1) == 2^s (i.e. active at level
			// s but not above).
			step := 1 << (s + 1)
			var act []int
			for l := 0; l < bs; l++ {
				gi := globalOf(l)
				if gi >= 0 && gi < np && (gi+1)%step == h {
					act = append(act, gi)
				}
			}
			var need []int
			for _, gi := range act {
				if gi-h >= 0 {
					need = append(need, gi-h)
				}
				if gi+h < np {
					need = append(need, gi+h)
				}
			}
			xs := fetchX(need)
			flops := 0
			for _, gi := range act {
				l := localOf(gi)
				xm, xp2 := 0.0, 0.0
				if gi-h >= 0 {
					xm = xs[gi-h]
				}
				if gi+h < np {
					xp2 = xs[gi+h]
				}
				lx[l] = (ld[l] - la[l]*xm - lc[l]*xp2) / lb[l]
				flops += 5
			}
			p.Compute(flops)
		}
		// Land the solution in the host vector (same layout by
		// construction: both use the padded-length block map).
		for l := 0; l < bs; l++ {
			if gi := globalOf(l); gi >= 0 {
				xOut.L(pid)[xOut.Map.LocalOf(gi)] = lx[l]
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return xOut.ToSlice()[:n], elapsed, nil
}

// TridiagSystem is one independent tridiagonal system for the batch
// solver.
type TridiagSystem struct {
	A, B, C, D []float64
}

// SolveTridiagBatch solves many independent tridiagonal systems at
// once by partitioning whole systems over the processors — the
// "embarrassingly parallel case" that the tridiagonal-solver
// literature proves optimal when there are at least as many systems as
// processors (the Alternating Direction Method produces exactly this
// workload; see examples/adi). Systems are dealt round-robin, scattered
// through one routing operation, solved locally with the Thomas
// recurrence, and gathered back. It returns one solution per system
// and the simulated elapsed time.
func SolveTridiagBatch(mach *hypercube.Machine, systems []TridiagSystem) ([][]float64, costmodel.Time, error) {
	ns := len(systems)
	if ns == 0 {
		return nil, 0, nil
	}
	for si, sys := range systems {
		n := len(sys.B)
		if len(sys.A) != n || len(sys.C) != n || len(sys.D) != n {
			return nil, 0, fmt.Errorf("apps: system %d has ragged bands", si)
		}
	}
	p := mach.P()
	results := make([][]float64, ns)
	elapsed, err := mach.Run(func(pr *hypercube.Proc) {
		pid := pr.ID()
		// Scatter: processor 0 owns the input (host data); it routes
		// each system's bands to the system's home processor as one
		// combined message. (A real application would already have the
		// data distributed; charging the scatter keeps the comparison
		// honest.)
		var out []router.Msg
		if pid == 0 {
			for si, sys := range systems {
				n := len(sys.B)
				words := make([]float64, 0, 4*n)
				words = append(words, sys.A...)
				words = append(words, sys.B...)
				words = append(words, sys.C...)
				words = append(words, sys.D...)
				out = append(out, router.Msg{Dst: si % p, Key: si, Words: words})
			}
		}
		mine := router.Route(pr, 1, out)
		// Local Thomas solves, one per owned system.
		var back []router.Msg
		for _, msg := range mine {
			n := len(msg.Words) / 4
			a, b := msg.Words[:n], msg.Words[n:2*n]
			c, d := msg.Words[2*n:3*n], msg.Words[3*n:]
			x, err := serialThomas(a, b, c, d)
			if err != nil {
				panic(fmt.Errorf("apps: system %d: %w", msg.Key, err))
			}
			pr.Compute(8 * n)
			back = append(back, router.Msg{Dst: 0, Key: msg.Key, Words: x})
		}
		gathered := router.Route(pr, 2, back)
		if pid == 0 {
			for _, msg := range gathered {
				results[msg.Key] = msg.Words
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return results, elapsed, nil
}

// serialThomas is the local Thomas recurrence used by the batch solver
// (identical arithmetic to serial.SolveTridiag, duplicated here to
// keep the SPMD kernel self-contained and panic-based).
func serialThomas(a, b, c, d []float64) ([]float64, error) {
	n := len(b)
	if n == 0 {
		return nil, nil
	}
	cp := make([]float64, n)
	dp := make([]float64, n)
	if b[0] == 0 {
		return nil, fmt.Errorf("zero pivot at row 0")
	}
	cp[0] = c[0] / b[0]
	dp[0] = d[0] / b[0]
	for i := 1; i < n; i++ {
		den := b[i] - a[i]*cp[i-1]
		if den == 0 {
			return nil, fmt.Errorf("zero pivot at row %d", i)
		}
		cp[i] = c[i] / den
		dp[i] = (d[i] - a[i]*dp[i-1]) / den
	}
	x := make([]float64, n)
	x[n-1] = dp[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = dp[i] - cp[i]*x[i+1]
	}
	return x, nil
}
