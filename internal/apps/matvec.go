// Package apps implements the three numerical algorithms the SPAA 1989
// paper uses to illustrate the four vector-matrix primitives — a
// vector-matrix multiply, a Gaussian-elimination routine, and a
// simplex algorithm — each in a primitive-based form and in the
// "naive" form (per-element access through the general router) that
// the paper's order-of-magnitude comparison is against.
//
// SPMD kernels take a *core.Env and distributed operands and run
// inside Machine.Run; the exported Solve*/Run* drivers wrap machine
// setup, data distribution, a single timed SPMD run, and result
// collection, returning both the answer and the simulated elapsed
// time.
package apps

import (
	"fmt"

	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/router"
	"vmprim/internal/serial"
)

// MatvecVariant selects a vector-matrix multiply implementation.
type MatvecVariant int

const (
	// MatvecPrimitive is the literal primitive composition of the
	// paper: Distribute x across the rows as a matrix, elementwise
	// multiply, Reduce the rows.
	MatvecPrimitive MatvecVariant = iota
	// MatvecFused distributes x and fuses the multiply into the local
	// reduction pass (the optimized form a library would ship): one
	// Distribute, one local loop, one Reduce.
	MatvecFused
	// MatvecNaive fetches every x element through the general router,
	// element by element, and routes every partial product to the
	// owner of its output element: no message combining anywhere.
	MatvecNaive
)

// String returns the variant name.
func (v MatvecVariant) String() string {
	switch v {
	case MatvecPrimitive:
		return "primitive"
	case MatvecFused:
		return "fused"
	case MatvecNaive:
		return "naive"
	default:
		return fmt.Sprintf("MatvecVariant(%d)", int(v))
	}
}

// VecMatKernel computes y = x*A inside an SPMD body. x must be
// col-aligned (length A.Rows); the result is row-aligned (length
// A.Cols), replicated across grid rows.
func VecMatKernel(e *core.Env, a *core.Matrix, x *core.Vector, variant MatvecVariant) *core.Vector {
	if x.Layout != core.ColAligned || x.N != a.Rows || x.Map != a.RMap {
		panic("apps: VecMatKernel needs a col-aligned x matching A's rows")
	}
	switch variant {
	case MatvecPrimitive:
		return vecMatPrimitive(e, a, x)
	case MatvecFused:
		return vecMatFused(e, a, x)
	case MatvecNaive:
		return vecMatNaive(e, a, x)
	default:
		panic("apps: unknown matvec variant")
	}
}

// vecMatPrimitive is the paper's composition, written exactly as a
// user of the four primitives would: X <- Distribute(x); P <- X .* A;
// y <- Reduce(P, rows, +).
func vecMatPrimitive(e *core.Env, a *core.Matrix, x *core.Vector) *core.Vector {
	e.BeginSpan("matvec(primitive)")
	defer e.EndSpan()
	xs := e.SpreadCols(x, a.Cols, a.CMap.Kind) // Distribute
	e.ZipMatrix(xs, a, func(xi, aij float64) float64 { return xi * aij }, 1)
	return e.ReduceRows(xs, core.OpSum, true) // Reduce
}

// vecMatFused distributes x and fuses multiply into the local
// reduction: the m/p-element local pass touches A once and allocates
// nothing matrix-shaped.
func vecMatFused(e *core.Env, a *core.Matrix, x *core.Vector) *core.Vector {
	e.BeginSpan("matvec(fused)")
	defer e.EndSpan()
	xr := x
	if !x.Replicated {
		xr = e.Distribute(x)
	}
	pid := e.P.ID()
	blk := a.L(pid)
	xp := xr.L(pid)
	b := a.CMap.B
	piece := make([]float64, b)
	myRow := e.GridRow()
	count := 0
	e.BeginSpan("local-mac")
	for lr := 0; lr < a.RMap.B; lr++ {
		if a.RMap.GlobalOf(myRow, lr) < 0 {
			continue
		}
		xi := xp[lr]
		row := blk[lr*b : (lr+1)*b]
		for lc, aij := range row {
			piece[lc] += xi * aij
		}
		count += 2 * b
	}
	e.P.Compute(count)
	e.EndSpan()
	// All-reduce the partial sums down the rows; every grid row gets y.
	out := e.TempVector(a.Cols, core.RowAligned, a.CMap.Kind, 0, true)
	sum := e.AllReduceRowsPiece(piece, core.OpSum)
	copy(out.L(pid), sum)
	return out
}

// RunVecMat is the host driver: it distributes A and x on machine m,
// runs the chosen variant once, and returns y, the simulated elapsed
// time and the run statistics.
func RunVecMat(m *hypercube.Machine, a *serial.Mat, x []float64, variant MatvecVariant) ([]float64, costmodel.Time, hypercube.Stats, error) {
	if len(x) != a.R {
		return nil, 0, hypercube.Stats{}, fmt.Errorf("apps: x length %d, want %d", len(x), a.R)
	}
	g := embed.SplitFor(m.Dim(), a.R, a.C)
	da, err := core.FromDense(g, a, embed.Block, embed.Block)
	if err != nil {
		return nil, 0, hypercube.Stats{}, err
	}
	dx, err := core.VectorFromSlice(g, x, core.ColAligned, embed.Block, 0, false)
	if err != nil {
		return nil, 0, hypercube.Stats{}, err
	}
	// The naive kernel produces y in the linear embedding; the
	// structured kernels leave it row-aligned and replicated.
	layout, repl := core.RowAligned, true
	if variant == MatvecNaive {
		layout, repl = core.Linear, false
	}
	out, err := core.NewVector(g, a.C, layout, embed.Block, 0, repl)
	if err != nil {
		return nil, 0, hypercube.Stats{}, err
	}
	elapsed, err := m.Run(func(p *hypercube.Proc) {
		e := core.NewEnv(p, g)
		y := VecMatKernel(e, da, dx, variant)
		e.StoreVec(out, y)
	})
	if err != nil {
		return nil, 0, hypercube.Stats{}, err
	}
	return out.ToSlice(), elapsed, m.LastStats(), nil
}

// vecMatNaive computes y = x*A with no structured communication at
// all: every local element's x operand is fetched through the router
// as its own message, and every partial product is routed to the
// output owner as its own message. This is the straightforward
// "global address space" code the paper's order-of-magnitude
// comparison measures against.
func vecMatNaive(e *core.Env, a *core.Matrix, x *core.Vector) *core.Vector {
	e.BeginSpan("matvec(naive)")
	defer e.EndSpan()
	pid := e.P.ID()
	g := e.G
	myRow, myCol := e.GridRow(), e.GridCol()
	blk := a.L(pid)
	b := a.CMap.B

	// Fetch x_i for every distinct local row, one request per row
	// (the naive code does not even combine requests for the same i
	// across its local columns' worth of work — but one per (i) per
	// processor is already the granularity a per-element program
	// generates, since the elements of a local row share i).
	e.BeginSpan("fetch-x")
	var want []router.Msg
	var rows []int
	for lr := 0; lr < a.RMap.B; lr++ {
		gi := a.RMap.GlobalOf(myRow, lr)
		if gi < 0 {
			continue
		}
		owner := g.ProcAt(x.Map.CoordOf(gi), x.Home)
		want = append(want, router.Msg{Dst: owner, Key: gi})
		rows = append(rows, lr)
	}
	xp := x.L(pid)
	var xv [1]float64 // Request copies each payload before the next serve
	got := router.Request(e.P, e.NextTag2(), want, func(key int) []float64 {
		xv[0] = xp[x.Map.LocalOf(key)]
		return xv[:]
	})
	e.EndSpan()

	// Compute partial products and route each to the owner of y_j in
	// the vector's own linear embedding (spread over the whole
	// machine, as a naive global-address-space program would keep it),
	// one message per local element.
	out := e.TempVector(a.Cols, core.Linear, a.CMap.Kind, 0, false)
	e.BeginSpan("route-products")
	parts := make([]router.Msg, 0, len(rows)*b)
	prods := make([]float64, 0, len(rows)*b)
	flops := 0
	for wi, lr := range rows {
		xi := got[wi][0]
		row := blk[lr*b : (lr+1)*b]
		for lc, aij := range row {
			gj := a.CMap.GlobalOf(myCol, lc)
			if gj < 0 {
				continue
			}
			prods = append(prods, xi*aij)
			parts = append(parts, router.Msg{Dst: out.OwnerProcOf(gj), Key: gj, Words: oneWord(prods)})
			flops++
		}
	}
	e.P.Compute(flops)
	arrived := router.Route(e.P, e.NextTag(), parts)
	op := out.L(pid)
	for _, msg := range arrived {
		op[out.Map.LocalOf(msg.Key)] += msg.Words[0]
	}
	e.P.Compute(len(arrived))
	e.EndSpan()
	_ = myRow
	return out
}
