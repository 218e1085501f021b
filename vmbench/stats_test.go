package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	orig := slices.Clone(xs)
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {0.991, 100}, {1, 100},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !slices.Equal(xs, orig) {
		t.Error("quantile reordered its input")
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},    // overlaps a: concurrent children
		{Name: "c", Start: 90, End: 120, Parent: 0},   // runs past its parent: clipped
		{Name: "d", Start: 25, End: 28, Parent: 1},    // grandchild: counts only against a
		{Name: "e", Start: 200, End: 260, Parent: -1}, // second root
		{Name: "f", Start: 240, End: -1, Parent: 5},   // still open: covers the rest of e
	}
	want := []int64{100 - 40 - 10, 20 - 3, 30, 30, 3, 60 - 20, 0}
	if got := SelfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("SelfTimes = %v, want %v", got, want)
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", -1, "r")
	tr.SetReq(id, "r2")
	tr.End(id)
	if id != -1 || tr.Spans() != nil {
		t.Errorf("nil tracer recorded span %d", id)
	}
	tr = newTracer()
	root := tr.Begin("root", -1, "")
	child := tr.Begin("child", root, "")
	tr.SetReq(root, "r-000001")
	tr.End(child)
	tr.End(root)
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != 0 || s[0].Req != "r-000001" || s[0].End < s[1].End {
		t.Errorf("spans = %+v", s)
	}
}

func TestPoissonSchedule(t *testing.T) {
	const rate, secs = 200.0, 50.0
	due := poissonSchedule(rand.New(rand.NewSource(7)), rate, secs)
	if len(due) != int(rate*secs) {
		t.Fatalf("%d arrivals, want %d", len(due), int(rate*secs))
	}
	if !slices.IsSorted(due) || due[0] < 0 || due[len(due)-1] >= secs {
		t.Fatal("arrivals not sorted inside the phase")
	}
	// Exponential gaps: mean 1/rate and coefficient of variation 1.
	var gaps []float64
	for i := 1; i < len(due); i++ {
		gaps = append(gaps, due[i]-due[i-1])
	}
	mean := sum(gaps) / float64(len(gaps))
	v := 0.0
	for _, g := range gaps {
		v += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(v/float64(len(gaps))) / mean
	if math.Abs(mean*rate-1) > 0.02 || math.Abs(cv-1) > 0.05 {
		t.Errorf("gap mean %.3g s (want %.3g), CV %.3f (want 1)", mean, 1/rate, cv)
	}
	again := poissonSchedule(rand.New(rand.NewSource(7)), rate, secs)
	if !slices.Equal(due, again) {
		t.Error("same seed gave a different schedule")
	}
}

func TestHistQuantileErr(t *testing.T) {
	bounds := []float64{10, 20, 40}
	sample := make([]float64, 100)
	for i := range sample {
		sample[i] = 15
	}
	// Every observation in (10, 20]: the estimate interpolates to
	// 10 + 10·99/100 = 19.9 against an exact 15.
	got, err := histQuantileErr(sample, bounds, 0.99)
	if err != nil || math.Abs(got-(19.9-15)/15) > 1e-12 {
		t.Errorf("p99 error = %v, %v; want %v", got, err, (19.9-15)/15)
	}
	// Observations past the last bound clamp to it.
	got, err = histQuantileErr([]float64{100, 100}, bounds, 0.5)
	if err != nil || got != (40.0-100)/100 {
		t.Errorf("clamped error = %v, %v; want -0.6", got, err)
	}
	if _, err := histQuantileErr(nil, bounds, 0.5); err == nil {
		t.Error("empty sample gave no error")
	}
}

func TestLeastSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	truth := []float64{900, 0.2, 0.5} // ns per message, word and flop
	var rows []fitRow
	for i := 0; i < 20; i++ {
		x := []float64{float64(rng.Intn(500) + 1), float64(rng.Intn(1e6)), float64(rng.Intn(1e7))}
		rows = append(rows, fitRow{X: x, Ns: truth[0]*x[0] + truth[1]*x[1] + truth[2]*x[2]})
	}
	beta, resid, err := leastSquares(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(beta[i]/truth[i]-1) > 1e-9 {
			t.Errorf("beta[%d] = %v, want %v", i, beta[i], truth[i])
		}
	}
	if resid > 1e-12 {
		t.Errorf("exact data left residual %v", resid)
	}
	// A poor fit shows in the residual.
	for i := range rows {
		rows[i].Ns *= 1 + 0.5*rng.NormFloat64()
	}
	if _, resid, _ = leastSquares(rows); resid < 0.1 {
		t.Errorf("noisy data gave residual %v, want a visible one", resid)
	}
	// A column of zeros cannot be fitted.
	for i := range rows {
		rows[i].X[2] = 0
	}
	if _, _, err := leastSquares(rows); err == nil {
		t.Error("zero column gave no error")
	}
}
