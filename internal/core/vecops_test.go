package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
)

func TestDotVecAllLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, g := range testGrids(t) {
		n := 11
		x := make([]float64, n)
		y := make([]float64, n)
		want := 0.0
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
			want += x[i] * y[i]
		}
		for _, layout := range []Layout{Linear, RowAligned, ColAligned} {
			for _, repl := range []bool{false, true} {
				if layout == Linear && repl {
					continue
				}
				vx, _ := VectorFromSlice(g, x, layout, embed.Block, 0, repl)
				vy, _ := VectorFromSlice(g, y, layout, embed.Block, 0, repl)
				var got float64
				spmd(t, g, func(e *Env) {
					d := e.DotVec(vx, vy)
					if e.P.ID() == 0 {
						got = d
					}
				})
				if math.Abs(got-want) > 1e-10 {
					t.Fatalf("%v repl=%v: dot %v, want %v", layout, repl, got, want)
				}
			}
		}
	}
}

func TestNorms(t *testing.T) {
	g, _ := embed.NewGrid(2, 1)
	x := []float64{3, -4, 0, 1, -2}
	vx, _ := VectorFromSlice(g, x, Linear, embed.Block, 0, false)
	var n2, ninf float64
	spmd(t, g, func(e *Env) {
		a := e.Norm2Vec(vx)
		b := e.NormInfVec(vx)
		if e.P.ID() == 0 {
			n2, ninf = a, b
		}
	})
	if math.Abs(n2-math.Sqrt(30)) > 1e-12 {
		t.Fatalf("norm2 = %v", n2)
	}
	if ninf != 4 {
		t.Fatalf("norminf = %v", ninf)
	}
}

func TestAddScaledAndScaleAdd(t *testing.T) {
	g, _ := embed.NewGrid(1, 2)
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 20, 30, 40, 50}
	vx, _ := VectorFromSlice(g, x, RowAligned, embed.Block, 0, true)
	vy, _ := VectorFromSlice(g, y, RowAligned, embed.Block, 0, true)
	spmd(t, g, func(e *Env) {
		e.AddScaledVec(vx, 2, vy)  // x = x + 2y
		e.ScaleAddVec(vx, 0.5, vy) // x = 0.5x + y
	})
	got := vx.ToSlice()
	for i := range x {
		want := 0.5*(x[i]+2*y[i]) + y[i]
		if math.Abs(got[i]-want) > 1e-12 {
			t.Fatalf("[%d] = %v, want %v", i, got[i], want)
		}
	}
	if err := vx.CheckReplicas(); err != nil {
		t.Fatal(err)
	}
}

func TestScanVecSumAllLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, g := range testGrids(t) {
		for _, n := range []int{1, 5, 9, 16} {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			want := make([]float64, n)
			acc := 0.0
			for i, v := range x {
				acc += v
				want[i] = acc
			}
			for _, layout := range []Layout{Linear, RowAligned, ColAligned} {
				for _, repl := range []bool{false, true} {
					if layout == Linear && repl {
						continue
					}
					vx, _ := VectorFromSlice(g, x, layout, embed.Block, 0, repl)
					out, _ := NewVector(g, n, layout, embed.Block, 0, repl)
					spmd(t, g, func(e *Env) {
						e.StoreVec(out, e.ScanVec(vx, OpSum))
					})
					vecEqual(t, out.ToSlice(), want, 1e-10, "ScanVec sum")
					if err := out.CheckReplicas(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

func TestScanVecMax(t *testing.T) {
	g, _ := embed.NewGrid(2, 2)
	x := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5}
	want := []float64{3, 3, 4, 4, 5, 9, 9, 9, 9}
	vx, _ := VectorFromSlice(g, x, Linear, embed.Block, 0, false)
	out, _ := NewVector(g, len(x), Linear, embed.Block, 0, false)
	spmd(t, g, func(e *Env) {
		e.StoreVec(out, e.ScanVec(vx, OpMax))
	})
	vecEqual(t, out.ToSlice(), want, 0, "ScanVec max")
}

func TestScanVecFollowedByCollective(t *testing.T) {
	// Regression: a non-replicated aligned scan must leave the tag
	// sequences of holders and non-holders synchronized, so a later
	// full-cube collective still matches.
	g, _ := embed.NewGrid(2, 1)
	x := []float64{1, 2, 3, 4}
	vx, _ := VectorFromSlice(g, x, RowAligned, embed.Block, 1, false)
	var total float64
	spmd(t, g, func(e *Env) {
		s := e.ScanVec(vx, OpSum)
		v := e.ReduceVec(s, OpMax) // full-cube collective right after
		if e.P.ID() == 0 {
			total = v
		}
	})
	if total != 10 {
		t.Fatalf("max prefix = %v, want 10", total)
	}
}

func TestScanVecRejectsCyclic(t *testing.T) {
	g, _ := embed.NewGrid(1, 1)
	vx, _ := VectorFromSlice(g, []float64{1, 2, 3}, Linear, embed.Cyclic, 0, false)
	m := hypercube.MustNew(g.D, costmodel.CM2())
	_, err := m.Run(func(p *hypercube.Proc) {
		e := NewEnv(p, g)
		e.ScanVec(vx, OpSum)
	})
	if err == nil {
		t.Fatal("cyclic scan accepted")
	}
}

func TestDotVecQuickAgainstSerial(t *testing.T) {
	g, _ := embed.NewGrid(1, 2)
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%12 + 1
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		y := make([]float64, n)
		want := 0.0
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
			want += x[i] * y[i]
		}
		vx, err := VectorFromSlice(g, x, Linear, embed.Block, 0, false)
		if err != nil {
			return false
		}
		vy, err := VectorFromSlice(g, y, Linear, embed.Block, 0, false)
		if err != nil {
			return false
		}
		ok := true
		m := hypercube.MustNew(g.D, costmodel.CM2())
		if _, err := m.Run(func(p *hypercube.Proc) {
			e := NewEnv(p, g)
			if math.Abs(e.DotVec(vx, vy)-want) > 1e-9 {
				ok = false
			}
		}); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
