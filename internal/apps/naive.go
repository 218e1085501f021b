package apps

import (
	"math"

	"vmprim/internal/core"
	"vmprim/internal/router"
)

// Naive-implementation building blocks. The naive applications use the
// general router for every data motion — one message per element, one
// explicit send per destination — exactly the "straightforward global
// address space" style the paper's primitives displaced. They share no
// code with the structured collectives on purpose.

// oneWord returns the last word of a call's flat payload buffer as a
// one-word message payload. The router copies payloads, so views into
// one buffer, sized up front for every payload of the call, replace
// an allocation per message.
func oneWord(buf []float64) []float64 {
	n := len(buf)
	return buf[n-1 : n : n]
}

// naiveBcast has proc src send words to every processor as P separate
// routed messages (no spanning tree, no combining); everyone returns
// the payload.
func naiveBcast(e *core.Env, src int, words []float64) []float64 {
	var out []router.Msg
	if e.P.ID() == src {
		out = make([]router.Msg, e.P.P())
		for q := range out {
			out[q] = router.Msg{Dst: q, Key: 0, Words: words}
		}
	}
	got := router.Route(e.P, e.NextTag(), out)
	return got[0].Words
}

// naiveFetchElems has proc 0 fetch the listed matrix elements through
// the router, one request per element; every processor calls, proc 0
// returns the values in order, others nil.
func naiveFetchElems(e *core.Env, a *core.Matrix, idx [][2]int) []float64 {
	var want []router.Msg
	if e.P.ID() == 0 {
		want = make([]router.Msg, len(idx))
		for q, ij := range idx {
			want[q] = router.Msg{Dst: a.OwnerOf(ij[0], ij[1]), Key: ij[0]*a.Cols + ij[1]}
		}
	}
	pid := e.P.ID()
	blk := a.L(pid)
	b := a.CMap.B
	var val [1]float64 // Request copies each payload before the next serve
	got := router.Request(e.P, e.NextTag2(), want, func(key int) []float64 {
		i, j := key/a.Cols, key%a.Cols
		val[0] = blk[a.RMap.LocalOf(i)*b+a.CMap.LocalOf(j)]
		return val[:]
	})
	if e.P.ID() != 0 {
		return nil
	}
	vals := make([]float64, len(got))
	for q := range got {
		vals[q] = got[q][0]
	}
	return vals
}

func naiveSwapRows(e *core.Env, a *core.Matrix, i1, i2 int) {
	if i1 == i2 {
		return
	}
	pid := e.P.ID()
	blk := a.L(pid)
	b := a.CMap.B
	myRow, myCol := e.GridRow(), e.GridCol()
	out := make([]router.Msg, 0, 2*b)
	vals := make([]float64, 0, 2*b)
	for _, pair := range [2][2]int{{i1, i2}, {i2, i1}} {
		from, to := pair[0], pair[1]
		if myRow != a.RMap.CoordOf(from) {
			continue
		}
		lr := a.RMap.LocalOf(from)
		for lc := 0; lc < b; lc++ {
			gj := a.CMap.GlobalOf(myCol, lc)
			if gj < 0 {
				continue
			}
			vals = append(vals, blk[lr*b+lc])
			out = append(out, router.Msg{
				Dst:   a.OwnerOf(to, gj),
				Key:   to*a.Cols + gj,
				Words: oneWord(vals),
			})
		}
	}
	got := router.Route(e.P, e.NextTag(), out)
	for _, m := range got {
		i, j := m.Key/a.Cols, m.Key%a.Cols
		blk[a.RMap.LocalOf(i)*b+a.CMap.LocalOf(j)] = m.Words[0]
	}
}

// naiveSpreadRow sends each element of matrix row i (columns [clo,
// chi)) to every processor in the element's grid column, one message
// per (element, destination). The result maps local column index ->
// value on every processor.
func naiveSpreadRow(e *core.Env, a *core.Matrix, i, clo, chi int) []float64 {
	pid := e.P.ID()
	blk := a.L(pid)
	b := a.CMap.B
	myRow, myCol := e.GridRow(), e.GridCol()
	var out []router.Msg
	var words []float64
	if myRow == a.RMap.CoordOf(i) {
		out = make([]router.Msg, 0, b*e.G.PRows())
		words = make([]float64, 0, b)
		lr := a.RMap.LocalOf(i)
		for lc := 0; lc < b; lc++ {
			gj := a.CMap.GlobalOf(myCol, lc)
			if gj < clo || gj >= chi {
				continue
			}
			words = append(words, blk[lr*b+lc])
			for gr := 0; gr < e.G.PRows(); gr++ {
				out = append(out, router.Msg{
					Dst:   e.G.ProcAt(gr, myCol),
					Key:   gj,
					Words: oneWord(words),
				})
			}
		}
	}
	got := router.Route(e.P, e.NextTag(), out)
	vals := make([]float64, b)
	for i := range vals {
		vals[i] = math.NaN()
	}
	for _, m := range got {
		vals[a.CMap.LocalOf(m.Key)] = m.Words[0]
	}
	return vals
}

// naiveSpreadCol is naiveSpreadRow transposed: each element of column
// j (rows [rlo, rhi)) goes to every processor in the element's grid
// row; the result maps local row index -> value.
func naiveSpreadCol(e *core.Env, a *core.Matrix, j, rlo, rhi int) []float64 {
	pid := e.P.ID()
	blk := a.L(pid)
	b := a.CMap.B
	myRow, myCol := e.GridRow(), e.GridCol()
	var out []router.Msg
	var words []float64
	if myCol == a.CMap.CoordOf(j) {
		out = make([]router.Msg, 0, a.RMap.B*e.G.PCols())
		words = make([]float64, 0, a.RMap.B)
		lc := a.CMap.LocalOf(j)
		for lr := 0; lr < a.RMap.B; lr++ {
			gi := a.RMap.GlobalOf(myRow, lr)
			if gi < rlo || gi >= rhi {
				continue
			}
			words = append(words, blk[lr*b+lc])
			for gc := 0; gc < e.G.PCols(); gc++ {
				out = append(out, router.Msg{
					Dst:   e.G.ProcAt(myRow, gc),
					Key:   gi,
					Words: oneWord(words),
				})
			}
		}
	}
	got := router.Route(e.P, e.NextTag(), out)
	vals := make([]float64, a.RMap.B)
	for i := range vals {
		vals[i] = math.NaN()
	}
	for _, m := range got {
		vals[a.RMap.LocalOf(m.Key)] = m.Words[0]
	}
	return vals
}
