package core

import (
	"fmt"

	"vmprim/internal/collective"
	"vmprim/internal/gray"
)

// This file implements the first two of the four primitives — Extract
// and Insert — plus the scalar accessors and the row/column swap
// composed from them.

// ExtractRow pulls row i out of the matrix as a row-aligned vector.
// With replicate=false the vector lives on the grid row owning matrix
// row i (pure local data motion: zero communication). With
// replicate=true it is broadcast to every grid row — the combination
// Extract-then-Distribute fused into one call, costing a binomial
// broadcast of the m/p-sized local pieces over the dr row dimensions.
func (e *Env) ExtractRow(a *Matrix, i int, replicate bool) *Vector {
	e.BeginSpan("extract-row")
	defer e.EndSpan()
	if i < 0 || i >= a.Rows {
		panic(fmt.Sprintf("core: ExtractRow index %d out of [0,%d)", i, a.Rows))
	}
	ownerRow := a.RMap.CoordOf(i)
	lr := a.RMap.LocalOf(i)
	v := e.TempVector(a.Cols, RowAligned, a.CMap.Kind, ownerRow, replicate)
	pid := e.P.ID()
	b := a.CMap.B
	var piece []float64
	if e.GridRow() == ownerRow {
		blk := a.L(pid)
		piece = e.P.GetBuf(b)
		copy(piece, blk[lr*b:(lr+1)*b])
		e.P.Compute(b)
	}
	switch {
	case replicate:
		got := collective.Bcast(e.P, e.G.RowMask(), e.NextTag(), e.G.RowRel(ownerRow), piece)
		copy(v.L(pid), got)
		e.P.Recycle(got)
	case e.GridRow() == ownerRow:
		copy(v.L(pid), piece)
	}
	e.P.Recycle(piece)
	return v
}

// ExtractCol pulls column j out of the matrix as a col-aligned vector,
// symmetric to ExtractRow.
func (e *Env) ExtractCol(a *Matrix, j int, replicate bool) *Vector {
	e.BeginSpan("extract-col")
	defer e.EndSpan()
	if j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("core: ExtractCol index %d out of [0,%d)", j, a.Cols))
	}
	ownerCol := a.CMap.CoordOf(j)
	lc := a.CMap.LocalOf(j)
	v := e.TempVector(a.Rows, ColAligned, a.RMap.Kind, ownerCol, replicate)
	pid := e.P.ID()
	b := a.CMap.B
	var piece []float64
	if e.GridCol() == ownerCol {
		blk := a.L(pid)
		piece = e.P.GetBuf(a.RMap.B)
		for r := 0; r < a.RMap.B; r++ {
			piece[r] = blk[r*b+lc]
		}
		e.P.Compute(a.RMap.B)
	}
	switch {
	case replicate:
		got := collective.Bcast(e.P, e.G.ColMask(), e.NextTag(), e.G.ColRel(ownerCol), piece)
		copy(v.L(pid), got)
		e.P.Recycle(got)
	case e.GridCol() == ownerCol:
		copy(v.L(pid), piece)
	}
	e.P.Recycle(piece)
	return v
}

// sendAlong moves data from the subcube member at relative address
// fromRel to the member at toRel, hop by hop along the e-cube path.
// All subcube members must call it; it returns the data at toRel (and
// at fromRel if fromRel == toRel) and nil elsewhere.
func (e *Env) sendAlong(mask, fromRel, toRel int, data []float64) []float64 {
	e.BeginSpan("shift")
	defer e.EndSpan()
	myRel := gray.Compact(e.P.ID(), mask)
	if fromRel == toRel {
		if myRel == fromRel {
			return data
		}
		return nil
	}
	dims := gray.Dims(mask)
	tag := e.NextTag()
	cur := fromRel
	var buf []float64
	owned := false // buf came from Recv (pooled), not from the caller
	if myRel == fromRel {
		buf = data
	}
	for bit, d := range dims {
		if (fromRel^toRel)>>bit&1 == 0 {
			continue
		}
		next := cur ^ (1 << bit)
		switch myRel {
		case cur:
			e.P.Send(d, tag, buf)
			if owned {
				e.P.Recycle(buf)
			}
			buf = nil
		case next:
			buf = e.P.Recv(d, tag)
			owned = true
		}
		cur = next
	}
	if myRel == toRel {
		return buf
	}
	return nil
}

// InsertRow stores a row-aligned vector as row i of the matrix: the
// inverse of ExtractRow. If the vector is neither replicated nor homed
// on the owning grid row, its pieces travel the cube path from its
// home row to the owner row first (an embedding change the primitive
// performs implicitly, as the paper describes).
func (e *Env) InsertRow(a *Matrix, v *Vector, i int) {
	e.BeginSpan("insert-row")
	defer e.EndSpan()
	if i < 0 || i >= a.Rows {
		panic(fmt.Sprintf("core: InsertRow index %d out of [0,%d)", i, a.Rows))
	}
	if v.Layout != RowAligned || v.N != a.Cols || v.Map != a.CMap {
		panic("core: InsertRow vector incompatible with matrix row embedding")
	}
	ownerRow := a.RMap.CoordOf(i)
	lr := a.RMap.LocalOf(i)
	pid := e.P.ID()
	b := a.CMap.B
	var piece []float64
	moved := false
	switch {
	case v.Replicated || v.Home == ownerRow:
		if e.GridRow() == ownerRow {
			piece = v.L(pid)
		}
	default:
		var src []float64
		if e.GridRow() == v.Home {
			src = v.L(pid)
		}
		piece = e.sendAlong(e.G.RowMask(), e.G.RowRel(v.Home), e.G.RowRel(ownerRow), src)
		moved = true // a non-nil piece here is a pooled receive buffer
	}
	if e.GridRow() == ownerRow {
		copy(a.L(pid)[lr*b:(lr+1)*b], piece)
		e.P.Compute(b)
		if moved {
			e.P.Recycle(piece)
		}
	}
}

// InsertCol stores a col-aligned vector as column j of the matrix,
// symmetric to InsertRow.
func (e *Env) InsertCol(a *Matrix, v *Vector, j int) {
	e.BeginSpan("insert-col")
	defer e.EndSpan()
	if j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("core: InsertCol index %d out of [0,%d)", j, a.Cols))
	}
	if v.Layout != ColAligned || v.N != a.Rows || v.Map != a.RMap {
		panic("core: InsertCol vector incompatible with matrix column embedding")
	}
	ownerCol := a.CMap.CoordOf(j)
	lc := a.CMap.LocalOf(j)
	pid := e.P.ID()
	b := a.CMap.B
	var piece []float64
	moved := false
	switch {
	case v.Replicated || v.Home == ownerCol:
		if e.GridCol() == ownerCol {
			piece = v.L(pid)
		}
	default:
		var src []float64
		if e.GridCol() == v.Home {
			src = v.L(pid)
		}
		piece = e.sendAlong(e.G.ColMask(), e.G.ColRel(v.Home), e.G.ColRel(ownerCol), src)
		moved = true
	}
	if e.GridCol() == ownerCol {
		blk := a.L(pid)
		for r := 0; r < a.RMap.B; r++ {
			blk[r*b+lc] = piece[r]
		}
		e.P.Compute(a.RMap.B)
		if moved {
			e.P.Recycle(piece)
		}
	}
}

// SwapRows exchanges matrix rows i1 and i2, composed from Extract and
// Insert exactly as a user of the primitives would write it.
func (e *Env) SwapRows(a *Matrix, i1, i2 int) {
	e.BeginSpan("swap-rows")
	defer e.EndSpan()
	if i1 == i2 {
		return
	}
	r1 := e.ExtractRow(a, i1, false)
	r2 := e.ExtractRow(a, i2, false)
	e.InsertRow(a, r1, i2)
	e.InsertRow(a, r2, i1)
}

// ElemAt reads element (i, j) and replicates it to every processor
// (a one-word broadcast over the whole cube from the owner).
func (e *Env) ElemAt(a *Matrix, i, j int) float64 {
	e.BeginSpan("elem-at")
	defer e.EndSpan()
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("core: ElemAt (%d,%d) out of %dx%d", i, j, a.Rows, a.Cols))
	}
	owner := a.OwnerOf(i, j)
	var data []float64
	if e.P.ID() == owner {
		lr, lc := a.RMap.LocalOf(i), a.CMap.LocalOf(j)
		data = e.P.GetBuf(1)
		data[0] = a.L(owner)[lr*a.CMap.B+lc]
	}
	got := collective.Bcast(e.P, e.P.FullMask(), e.NextTag(), owner, data)
	out := got[0]
	e.P.Recycle(got)
	e.P.Recycle(data)
	return out
}

// SetElem writes element (i, j) on its owner; every processor calls
// it, only the owner acts (no communication).
func (e *Env) SetElem(a *Matrix, i, j int, val float64) {
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("core: SetElem (%d,%d) out of %dx%d", i, j, a.Rows, a.Cols))
	}
	owner := a.OwnerOf(i, j)
	if e.P.ID() == owner {
		lr, lc := a.RMap.LocalOf(i), a.CMap.LocalOf(j)
		a.L(owner)[lr*a.CMap.B+lc] = val
		e.P.Compute(1)
	}
}

// VecElemAt reads element idx of a vector and replicates it to every
// processor.
func (e *Env) VecElemAt(v *Vector, idx int) float64 {
	e.BeginSpan("vec-elem-at")
	defer e.EndSpan()
	if idx < 0 || idx >= v.N {
		panic(fmt.Sprintf("core: VecElemAt %d out of [0,%d)", idx, v.N))
	}
	c, l := v.Map.CoordOf(idx), v.Map.LocalOf(idx)
	owner := e.vecOwnerProc(v, c)
	var data []float64
	if e.P.ID() == owner {
		data = e.P.GetBuf(1)
		data[0] = v.L(owner)[l]
	}
	got := collective.Bcast(e.P, e.P.FullMask(), e.NextTag(), owner, data)
	out := got[0]
	e.P.Recycle(got)
	e.P.Recycle(data)
	return out
}

// vecOwnerProc returns the canonical owner processor of piece
// coordinate c: the unique holder, or the home/first grid row's copy
// for replicated vectors.
func (e *Env) vecOwnerProc(v *Vector, c int) int {
	switch v.Layout {
	case Linear:
		return linearProcOf(c)
	case RowAligned:
		home := v.Home
		if v.Replicated {
			home = 0
		}
		return v.G.ProcAt(home, c)
	default:
		home := v.Home
		if v.Replicated {
			home = 0
		}
		return v.G.ProcAt(c, home)
	}
}

// OwnerProcOf returns the canonical processor owning global element g
// of the vector (the unique holder, or the home/first copy for
// replicated vectors).
func (v *Vector) OwnerProcOf(g int) int {
	c := v.Map.CoordOf(g)
	switch v.Layout {
	case Linear:
		return linearProcOf(c)
	case RowAligned:
		home := v.Home
		if v.Replicated {
			home = 0
		}
		return v.G.ProcAt(home, c)
	default:
		home := v.Home
		if v.Replicated {
			home = 0
		}
		return v.G.ProcAt(c, home)
	}
}

// SetVecElem writes element idx of a vector on its holder(s); every
// processor calls it (with the same value — typically one produced by
// a broadcast or replicated reduction), only holders act, with no
// communication.
func (e *Env) SetVecElem(v *Vector, idx int, val float64) {
	if idx < 0 || idx >= v.N {
		panic(fmt.Sprintf("core: SetVecElem %d out of [0,%d)", idx, v.N))
	}
	pid := e.P.ID()
	c := v.Map.CoordOf(idx)
	if v.HoldsData(pid) && v.PieceCoord(pid) == c {
		v.L(pid)[v.Map.LocalOf(idx)] = val
		e.P.Compute(1)
	}
}
