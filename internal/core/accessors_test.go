package core

import (
	"math"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
)

// newCM2Machine builds a machine matching grid g with a short deadlock
// timeout for error-path tests.
func newCM2Machine(t *testing.T, g embed.Grid) *hypercube.Machine {
	t.Helper()
	m := hypercube.MustNew(g.D, costmodel.CM2())
	return m
}

func TestConstructorErrorPaths(t *testing.T) {
	g, _ := embed.NewGrid(1, 1)
	if _, err := NewMatrix(g, -1, 3, embed.Block, embed.Block); err == nil {
		t.Fatal("negative rows accepted")
	}
	if _, err := NewVector(g, -1, Linear, embed.Block, 0, false); err == nil {
		t.Fatal("negative length accepted")
	}
	if _, err := NewVector(g, 4, RowAligned, embed.Block, 5, false); err == nil {
		t.Fatal("bad home row accepted")
	}
	if _, err := NewVector(g, 4, ColAligned, embed.Block, -1, false); err == nil {
		t.Fatal("bad home column accepted")
	}
	if _, err := NewVector(g, 4, Layout(9), embed.Block, 0, false); err == nil {
		t.Fatal("unknown layout accepted")
	}
	for _, f := range []func(){
		func() { MustNewMatrix(g, -1, 1, embed.Block, embed.Block) },
		func() { MustNewVector(g, -1, Linear, embed.Block, 0, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Must constructor did not panic")
				}
			}()
			f()
		}()
	}
}

func TestMatrixAccessors(t *testing.T) {
	g, _ := embed.NewGrid(1, 2)
	a := MustNewMatrix(g, 6, 9, embed.Block, embed.Cyclic)
	if a.IsLocal() {
		t.Fatal("host matrix reports local")
	}
	if a.LocalRows() != 3 || a.LocalCols() != 3 {
		t.Fatalf("local dims %dx%d", a.LocalRows(), a.LocalCols())
	}
	if !a.SameShape(a) {
		t.Fatal("SameShape reflexivity")
	}
	b := MustNewMatrix(g, 6, 9, embed.Block, embed.Block)
	if a.SameShape(b) {
		t.Fatal("different maps report same shape")
	}
	v := MustNewVector(g, 5, Linear, embed.Block, 0, false)
	if v.IsLocal() {
		t.Fatal("host vector reports local")
	}
}

func TestOwnerProcOfConsistentWithHolders(t *testing.T) {
	for _, g := range testGrids(t) {
		for _, layout := range []Layout{Linear, RowAligned, ColAligned} {
			for _, repl := range []bool{false, true} {
				if layout == Linear && repl {
					continue
				}
				v := MustNewVector(g, 9, layout, embed.Block, 0, repl)
				for e := 0; e < v.N; e++ {
					owner := v.OwnerProcOf(e)
					if !v.HoldsData(owner) {
						t.Fatalf("%v repl=%v: owner %d of element %d does not hold data", layout, repl, owner, e)
					}
				}
			}
		}
	}
}

func TestSetVecElemAllLayouts(t *testing.T) {
	for _, g := range testGrids(t) {
		for _, layout := range []Layout{Linear, RowAligned, ColAligned} {
			for _, repl := range []bool{false, true} {
				if layout == Linear && repl {
					continue
				}
				v := MustNewVector(g, 7, layout, embed.Block, 0, repl)
				spmd(t, g, func(e *Env) {
					e.SetVecElem(v, 3, 42)
					e.SetVecElem(v, 6, -1)
				})
				got := v.ToSlice()
				want := []float64{0, 0, 0, 42, 0, 0, -1}
				vecEqual(t, got, want, 0, "SetVecElem")
				if err := v.CheckReplicas(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestZipVecWithIndices(t *testing.T) {
	g, _ := embed.NewGrid(1, 2)
	x, _ := VectorFromSlice(g, []float64{1, 2, 3, 4, 5}, RowAligned, embed.Block, 0, true)
	y, _ := VectorFromSlice(g, []float64{10, 20, 30, 40, 50}, RowAligned, embed.Block, 0, true)
	spmd(t, g, func(e *Env) {
		e.ZipVecWith(x, y, func(gi int, a, b float64) float64 {
			if gi%2 == 0 {
				return a + b
			}
			return a - b
		}, 1)
	})
	vecEqual(t, x.ToSlice(), []float64{11, -18, 33, -36, 55}, 0, "ZipVecWith")
}

func TestAllReducePieceHelpers(t *testing.T) {
	g, _ := embed.NewGrid(2, 1)
	sums := make([][]float64, g.P())
	colSums := make([][]float64, g.P())
	spmd(t, g, func(e *Env) {
		// Each proc contributes its grid row index; summing down the
		// rows gives 0+1+2+3 = 6 everywhere.
		piece := []float64{float64(e.GridRow())}
		sums[e.P.ID()] = e.AllReduceRowsPiece(piece, OpSum)
		cp := []float64{float64(e.GridCol())}
		colSums[e.P.ID()] = e.AllReduceColsPiece(cp, OpSum)
	})
	for pid := 0; pid < g.P(); pid++ {
		if sums[pid][0] != 6 {
			t.Fatalf("proc %d row-piece sum %v, want 6", pid, sums[pid][0])
		}
		if colSums[pid][0] != 1 { // grid cols 0+1 = 1
			t.Fatalf("proc %d col-piece sum %v, want 1", pid, colSums[pid][0])
		}
	}
}

func TestStoreVecMismatchPanics(t *testing.T) {
	g, _ := embed.NewGrid(1, 1)
	a := MustNewVector(g, 4, RowAligned, embed.Block, 0, true)
	b := MustNewVector(g, 4, RowAligned, embed.Block, 0, false)
	c := MustNewVector(g, 5, RowAligned, embed.Block, 0, true)
	m := newCM2Machine(t, g)
	if _, err := m.Run(func(p *hypercube.Proc) {
		e := NewEnv(p, g)
		e.StoreVec(a, b)
	}); err == nil {
		t.Fatal("holder mismatch accepted")
	}
	if _, err := m.Run(func(p *hypercube.Proc) {
		e := NewEnv(p, g)
		e.StoreVec(a, c)
	}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestDistributeRejectsLinear(t *testing.T) {
	g, _ := embed.NewGrid(1, 1)
	v := MustNewVector(g, 4, Linear, embed.Block, 0, false)
	m := newCM2Machine(t, g)
	if _, err := m.Run(func(p *hypercube.Proc) {
		NewEnv(p, g).Distribute(v)
	}); err == nil {
		t.Fatal("Distribute accepted a linear vector")
	}
}

func TestDistributeOfReplicatedIsCopy(t *testing.T) {
	g, _ := embed.NewGrid(2, 1)
	x := []float64{1, 2, 3}
	v, _ := VectorFromSlice(g, x, RowAligned, embed.Block, 0, true)
	out, _ := NewVector(g, 3, RowAligned, embed.Block, 0, true)
	spmd(t, g, func(e *Env) {
		w := e.Distribute(v)
		e.MapVec(w, func(_ int, val float64) float64 { return val * 2 }, 1)
		e.StoreVec(out, w)
	})
	vecEqual(t, v.ToSlice(), x, 0, "original unchanged")
	vecEqual(t, out.ToSlice(), []float64{2, 4, 6}, 0, "copy scaled")
}

func TestNormInfVecNegativeValues(t *testing.T) {
	g, _ := embed.NewGrid(1, 1)
	v, _ := VectorFromSlice(g, []float64{-9, 2, 3}, Linear, embed.Block, 0, false)
	var got float64
	spmd(t, g, func(e *Env) {
		n := e.NormInfVec(v)
		if e.P.ID() == 0 {
			got = n
		}
	})
	if math.Abs(got-9) > 0 {
		t.Fatalf("NormInf = %v, want 9", got)
	}
}
