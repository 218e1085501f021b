package core

import (
	"math"

	"vmprim/internal/collective"
	"vmprim/internal/embed"
)

// Higher-level vector operations composed from the primitives'
// machinery: inner products, scaled additions, norms and parallel
// prefix (scan). Iterative solvers (conjugate gradient, power method)
// are built from these plus the matrix primitives.

// DotVec returns the inner product of two co-located vectors,
// replicated on every processor: local partial products on the
// canonical holders, then a one-word all-reduce over the cube.
func (e *Env) DotVec(v, w *Vector) float64 {
	e.BeginSpan("dot")
	defer e.EndSpan()
	if !v.SameShape(w) {
		panic("core: DotVec shape mismatch")
	}
	pid := e.P.ID()
	acc := 0.0
	if v.HoldsData(pid) && w.HoldsData(pid) && e.isCanonicalHolder(v) {
		pv, pw := v.L(pid), w.L(pid)
		nv := v.Map.ValidCount(v.PieceCoord(pid))
		acc = dotSlices(pv[:nv], pw[:nv])
		e.P.Compute(2 * nv)
	}
	return e.allReduceScalar(acc, collective.Sum)
}

// Norm2Vec returns the Euclidean norm of v, replicated everywhere.
func (e *Env) Norm2Vec(v *Vector) float64 {
	return math.Sqrt(e.DotVec(v, v))
}

// NormInfVec returns the maximum magnitude of v, replicated
// everywhere.
func (e *Env) NormInfVec(v *Vector) float64 {
	e.BeginSpan("norm-inf")
	defer e.EndSpan()
	pid := e.P.ID()
	acc := 0.0
	if v.HoldsData(pid) && e.isCanonicalHolder(v) {
		pv := v.L(pid)
		nv := v.Map.ValidCount(v.PieceCoord(pid))
		for _, x := range pv[:nv] {
			if a := math.Abs(x); a > acc {
				acc = a
			}
		}
		e.P.Compute(nv)
	}
	return e.allReduceScalar(acc, collective.Max)
}

// AddScaledVec applies dst[g] += alpha * src[g] on the common holders
// (the AXPY of iterative solvers; 2 flops per element), fused into a
// monomorphic loop over the valid prefix.
func (e *Env) AddScaledVec(dst *Vector, alpha float64, src *Vector) {
	dp, sp, nv, ok := e.zipSlices(dst, src)
	if !ok {
		return
	}
	axpyInto(dp[:nv], sp[:nv], alpha)
	e.P.Compute(2 * nv)
}

// ScaleAddVec applies dst[g] = beta*dst[g] + src[g] (the p-update of
// conjugate gradient), fused like AddScaledVec.
func (e *Env) ScaleAddVec(dst *Vector, beta float64, src *Vector) {
	dp, sp, nv, ok := e.zipSlices(dst, src)
	if !ok {
		return
	}
	scaleAddInto(dp[:nv], sp[:nv], beta)
	e.P.Compute(2 * nv)
}

// ScanVec returns the inclusive prefix combination of v under op,
// in the same embedding as v (replicated copies scan consistently).
// The classic two-level algorithm: a local serial scan of each piece,
// a parallel prefix of the piece totals over the distribution
// dimensions, then a local fixup. For cyclic maps the "prefix" order
// is still global index order, which the algorithm handles by scanning
// over the owning coordinate sequence — only Block maps preserve
// contiguous piece ranges, so ScanVec requires a Block map.
func (e *Env) ScanVec(v *Vector, op Op) *Vector {
	e.BeginSpan("scan-vec")
	defer e.EndSpan()
	if v.Map.Kind != embed.Block {
		panic("core: ScanVec requires a block (consecutive) element map")
	}
	out := e.CopyVec(v)
	pid := e.P.ID()
	mask := e.scanMask(v)
	// Reserve the collective's tag on every processor before any
	// early return, so holder and non-holder tag sequences stay
	// synchronized for later collectives.
	tag := e.NextTag()
	if !v.HoldsData(pid) {
		// Non-holders of a non-replicated aligned vector take no part:
		// the subcube collective below spans exactly the holder rows.
		//lint:allow commverify the AllGather below runs on the holder subcube only, which non-holders are not part of; the tag was reserved above to keep tag sequences aligned
		return out
	}
	pv := out.L(pid)
	c := v.PieceCoord(pid)
	// Local inclusive scan of the valid prefix, tracking the piece
	// total.
	nv := v.Map.ValidCount(c)
	total := scanSlice(op, pv[:nv])
	e.P.Compute(nv)
	if mask == 0 {
		return out
	}
	// Exclusive prefix of piece totals across the distribution
	// dimensions. Relative addresses within the holder subcube equal
	// the Gray encodings of the coordinates, so scan order must follow
	// coordinates, not relative addresses: run the scan keyed on the
	// coordinate by exchanging (coord, total) pairs... The collective
	// scan orders by relative address; remap by scanning over
	// Gray-decoded positions instead. AllGather the totals and fold
	// locally: for lg p pieces of one word this costs the same
	// k*(tau + small) as a scan and keeps coordinate order trivially.
	tbuf := e.P.GetBuf(1)
	tbuf[0] = total
	totals := collective.AllGather(e.P, mask, tag, tbuf)
	prefix := op.identity()
	for coord := 0; coord < c; coord++ {
		prefix = op.fold(prefix, totals[e.relOfCoord(v, coord)])
	}
	e.P.Recycle(totals)
	e.P.Recycle(tbuf)
	e.P.Compute(c)
	if c > 0 {
		foldScalarInto(op, pv[:nv], prefix)
		e.P.Compute(v.Map.B)
	}
	return out
}

// scanMask returns the cube-dimension mask over which v's pieces are
// distributed.
func (e *Env) scanMask(v *Vector) int {
	switch v.Layout {
	case Linear:
		return e.P.FullMask()
	case RowAligned:
		return e.G.ColMask()
	default:
		return e.G.RowMask()
	}
}

// relOfCoord returns the subcube-relative address of the piece with
// the given coordinate.
func (e *Env) relOfCoord(v *Vector, coord int) int {
	switch v.Layout {
	case Linear:
		return linearProcOf(coord)
	case RowAligned:
		return e.G.ColRel(coord)
	default:
		return e.G.RowRel(coord)
	}
}
