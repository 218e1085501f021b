package main

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"vmprim/internal/metrics"
)

// quantile returns the exact q-quantile of xs by the nearest-rank
// rule: the ceil(q·n)-th smallest sample, so every reported
// percentile is a latency some operation actually had. q <= 0 gives
// the minimum. xs is not modified; an empty sample gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// median is the middle sample, or the mean of the two middle samples
// of an even-sized sample (the convention of Python's
// statistics.median).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// poissonSchedule returns the due offsets, in seconds from the start
// of a phase, of Poisson arrivals at rate per second over a phase of
// length secs, conditioned on their count being round(rate·secs): the
// arrival times of a Poisson process given its count are that many
// uniform draws, sorted. Fixing the count keeps the offered load of a
// phase identical across seeds while the gaps stay exponential.
func poissonSchedule(rng *rand.Rand, rate, secs float64) []float64 {
	n := int(math.Round(rate * secs))
	due := make([]float64, n)
	for i := range due {
		due[i] = rng.Float64() * secs
	}
	sort.Float64s(due)
	return due
}

// histQuantileErr bins sample with the given bucket upper bounds into a
// metrics histogram, estimates the q-quantile with Snapshot.Quantile
// (the estimate vmprimd's /metrics consumers compute), and returns its
// error relative to the exact nearest-rank quantile.
func histQuantileErr(sample, bounds []float64, q float64) (float64, error) {
	if len(sample) == 0 {
		return 0, errors.New("empty sample")
	}
	reg := metrics.NewRegistry()
	h := reg.Histogram("sample", "latency sample", bounds)
	for _, v := range sample {
		h.Observe(v)
	}
	est, ok := reg.Snapshot().Quantile("sample", q)
	if !ok {
		return 0, errors.New("histogram has no quantile")
	}
	exact := quantile(sample, q)
	if exact == 0 {
		return 0, errors.New("exact quantile is zero")
	}
	return (est - exact) / exact, nil
}

// fitRow is one observation for the host cost-model fit: the counts a
// call performed and the host nanoseconds it took.
type fitRow struct {
	X  []float64 // e.g. messages, words, flops
	Ns float64
}

// leastSquares fits Ns ≈ Σ beta_k·X_k by solving the normal equations,
// and reports the relative residual ‖y − ŷ‖ / ‖y‖ so a poor fit shows.
func leastSquares(rows []fitRow) (beta []float64, residual float64, err error) {
	if len(rows) == 0 {
		return nil, 0, errors.New("no rows")
	}
	k := len(rows[0].X)
	if len(rows) < k {
		return nil, 0, errors.New("fewer rows than unknowns")
	}
	// Counts differ by orders of magnitude (messages vs flops), so each
	// column is scaled to unit maximum before the solve.
	scale := make([]float64, k)
	for _, r := range rows {
		for i, x := range r.X {
			scale[i] = math.Max(scale[i], math.Abs(x))
		}
	}
	for _, s := range scale {
		if s == 0 {
			return nil, 0, errors.New("singular fit: a column of counts is all zero")
		}
	}
	// Augmented normal-equation matrix [XᵀX | Xᵀy] over scaled columns.
	a := make([][]float64, k)
	for i := range a {
		a[i] = make([]float64, k+1)
	}
	for _, r := range rows {
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				a[i][j] += r.X[i] / scale[i] * r.X[j] / scale[j]
			}
			a[i][k] += r.X[i] / scale[i] * r.Ns
		}
	}
	for c := 0; c < k; c++ {
		p := c
		for r := c + 1; r < k; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[p][c]) {
				p = r
			}
		}
		if a[p][c] == 0 {
			return nil, 0, errors.New("singular fit: columns of counts are linearly dependent")
		}
		a[c], a[p] = a[p], a[c]
		for r := 0; r < k; r++ {
			if r == c {
				continue
			}
			f := a[r][c] / a[c][c]
			for j := c; j <= k; j++ {
				a[r][j] -= f * a[c][j]
			}
		}
	}
	beta = make([]float64, k)
	for i := range beta {
		beta[i] = a[i][k] / a[i][i] / scale[i]
	}
	var ss, yy float64
	for _, r := range rows {
		pred := 0.0
		for i, x := range r.X {
			pred += beta[i] * x
		}
		ss += (r.Ns - pred) * (r.Ns - pred)
		yy += r.Ns * r.Ns
	}
	if yy == 0 {
		return nil, 0, errors.New("all observations are zero")
	}
	return beta, math.Sqrt(ss / yy), nil
}
