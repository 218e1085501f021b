package core

import (
	"fmt"

	"vmprim/internal/embed"
	"vmprim/internal/router"
)

// Embedding changes. The paper notes that "the primitives may indicate
// a change from one embedding to another": converting a vector between
// its linear, row-aligned and col-aligned embeddings, and transposing
// a matrix, are arbitrary (but regular) personalized communications.
// They are implemented on the dimension-ordered router with one
// combined message per (source, destination) processor pair — the
// message combining that distinguishes a primitive from naive
// element-at-a-time access.

// remapItem is one (global index, value) pair in flight during an
// embedding change. Keys must be nonnegative.
type remapItem struct {
	key int
	val float64
}

// remapExchange routes every processor's items to dstOf(key) and
// returns the items that arrived here. All processors call it
// together.
//
// A counting sort by destination packs the items into one flat buffer,
// one (key, value) run per destination in item order, and the combined
// messages go out by ascending Dst: the order the router's e-cube
// forwarding, and so every simulated clock, depends on.
func (e *Env) remapExchange(items []remapItem, dstOf func(key int) int) []remapItem {
	np := e.P.P()
	dst := make([]int, len(items))
	// next[d+1] first counts the items bound for d; the prefix sum
	// then makes next[d] the start of d's run, a cursor for the fill.
	next := make([]int, np+1)
	for i, it := range items {
		dst[i] = dstOf(it.key)
		next[dst[i]+1]++
	}
	nmsg := 0
	for d := 0; d < np; d++ {
		if next[d+1] > 0 {
			nmsg++
		}
		next[d+1] += next[d]
	}
	flat := make([]float64, 2*len(items))
	msgs := make([]router.Msg, 0, nmsg)
	for d := 0; d < np; d++ {
		if lo, hi := 2*next[d], 2*next[d+1]; hi > lo {
			msgs = append(msgs, router.Msg{Dst: d, Key: (hi - lo) / 2, Words: flat[lo:hi:hi]})
		}
	}
	for i, it := range items {
		at := 2 * next[dst[i]]
		flat[at], flat[at+1] = float64(it.key), it.val
		next[dst[i]]++
	}
	got := router.Route(e.P, e.NextTag(), msgs)
	n := 0
	for _, m := range got {
		n += len(m.Words) / 2
	}
	recv := make([]remapItem, 0, n)
	for _, m := range got {
		for i := 0; i+1 < len(m.Words); i += 2 {
			recv = append(recv, remapItem{key: int(m.Words[i]), val: m.Words[i+1]})
		}
	}
	return recv
}

// ownedVecItems lists the (index, value) pairs of v this processor is
// the canonical contributor for.
func (e *Env) ownedVecItems(v *Vector) []remapItem {
	pid := e.P.ID()
	if !v.HoldsData(pid) || !e.isCanonicalHolder(v) {
		return nil
	}
	pv := v.L(pid)
	c := v.PieceCoord(pid)
	items := make([]remapItem, 0, len(pv))
	for l, val := range pv {
		if g := v.Map.GlobalOf(c, l); g >= 0 {
			items = append(items, remapItem{key: g, val: val})
		}
	}
	return items
}

// Realign converts a vector to another embedding: layout, map kind,
// home (grid row for RowAligned, grid column for ColAligned; ignored
// for Linear) and replication. It returns a new vector; the input is
// unchanged. One routed personalized communication moves every element
// to its new owner; replication, if requested, adds a Distribute.
func (e *Env) Realign(v *Vector, layout Layout, kind embed.MapKind, home int, replicated bool) *Vector {
	e.BeginSpan("realign")
	defer e.EndSpan()
	if e.Profiling() {
		e.P.SpanNote(v.Layout.String() + "->" + layout.String())
	}
	out := e.TempVector(v.N, layout, kind, home, false)
	items := e.ownedVecItems(v)
	dstOf := func(g int) int {
		c := out.Map.CoordOf(g)
		switch layout {
		case Linear:
			return linearProcOf(c)
		case RowAligned:
			return e.G.ProcAt(home, c)
		default:
			return e.G.ProcAt(c, home)
		}
	}
	recv := e.remapExchange(items, dstOf)
	pid := e.P.ID()
	if len(recv) > 0 {
		pv := out.L(pid)
		for _, it := range recv {
			pv[out.Map.LocalOf(it.key)] = it.val
		}
		e.P.Compute(len(recv))
	}
	if replicated && layout != Linear {
		return e.Distribute(out)
	}
	return out
}

// ToLinear converts any vector to the load-balanced linear embedding.
func (e *Env) ToLinear(v *Vector) *Vector {
	return e.Realign(v, Linear, v.Map.Kind, 0, false)
}

// TransposeInto writes a's transpose into dst, which must be a
// Cols x Rows matrix on the same grid (host-created if the host wants
// to read the result). One routed personalized communication with
// combined per-processor-pair messages carries every element to its
// transposed owner — the classic hypercube matrix transposition as an
// embedding change.
func (e *Env) TransposeInto(dst, a *Matrix) {
	e.BeginSpan("transpose")
	defer e.EndSpan()
	if dst.Rows != a.Cols || dst.Cols != a.Rows || dst.G != a.G {
		panic(fmt.Sprintf("core: TransposeInto dst %dx%d incompatible with src %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols))
	}
	pid := e.P.ID()
	blk := a.L(pid)
	b := a.CMap.B
	myRow, myCol := e.GridRow(), e.GridCol()
	items := make([]remapItem, 0, a.RMap.B*b)
	for lr := 0; lr < a.RMap.B; lr++ {
		gi := a.RMap.GlobalOf(myRow, lr)
		if gi < 0 {
			continue
		}
		for lc := 0; lc < b; lc++ {
			gj := a.CMap.GlobalOf(myCol, lc)
			if gj < 0 {
				continue
			}
			// Element (gi, gj) becomes dst element (gj, gi).
			items = append(items, remapItem{key: gj*dst.Cols + gi, val: blk[lr*b+lc]})
		}
	}
	dstOf := func(key int) int { return dst.OwnerOf(key/dst.Cols, key%dst.Cols) }
	recv := e.remapExchange(items, dstOf)
	if len(recv) > 0 {
		db := dst.L(pid)
		bc := dst.CMap.B
		for _, it := range recv {
			i, j := it.key/dst.Cols, it.key%dst.Cols
			db[dst.RMap.LocalOf(i)*bc+dst.CMap.LocalOf(j)] = it.val
		}
		e.P.Compute(len(recv))
	}
}

// Transpose returns a's transpose as an SPMD-local temporary, with row
// and column map kinds swapped along with the axes.
func (e *Env) Transpose(a *Matrix) *Matrix {
	out := e.TempMatrix(a.Cols, a.Rows, a.CMap.Kind, a.RMap.Kind)
	e.TransposeInto(out, a)
	return out
}
