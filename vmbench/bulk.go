package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"vmprim/internal/bench"
	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/serial"
)

// The bulk workload calls the paper's four primitives plus the
// pivot-search reduction on one warm machine holding a large seeded
// matrix (the m > p lg p regime). Every call is one operation; its
// result is checked against the dense serial copy of the matrix and
// its simulated time against golden/bulk.json. One closed-loop client.

//go:embed golden/bulk.json
var bulkGoldenJSON []byte

// bulkGolden holds the simulated time of every call shape at the bulk
// size. InsertRow's time depends on how many cube hops separate the
// vector's home grid row from the target row, so it is keyed by hops.
type bulkGolden struct {
	D     int                `json:"d"`
	N     int                `json:"n"`
	Model string             `json:"model"`
	SimUs map[string]float64 `json:"sim_us"`
}

type bulkRunner struct {
	m      *hypercube.Machine
	g      embed.Grid
	a      *core.Matrix
	dm     *serial.Mat // dense mirror of a, updated on every insert
	colSum []float64   // column sums of dm, updated on every insert
	rng    *rand.Rand
	golden bulkGolden
	n      int
	// outs holds the host-visible result vectors, one per home grid
	// row, reused from pass to pass so that the benchmark's own garbage
	// does not drive the collector.
	outs map[int]*core.Vector
}

// out returns the replicated row-aligned result vector homed on grid
// row home, zeroed so that no earlier pass's result can pass a check.
func (r *bulkRunner) out(home int) *core.Vector {
	v := r.outs[home]
	if v == nil {
		v = core.MustNewVector(r.g, r.n, core.RowAligned, embed.Block, home, true)
		r.outs[home] = v
	}
	for pid := 0; pid < r.g.P(); pid++ {
		clear(v.L(pid))
	}
	return v
}

func newBulk(d, n int, seed int64) (*bulkRunner, error) {
	m, err := hypercube.New(d, costmodel.CM2())
	if err != nil {
		return nil, err
	}
	r := &bulkRunner{m: m, g: embed.SplitFor(d, n, n), n: n, rng: rand.New(rand.NewSource(seed)), outs: map[int]*core.Vector{}}
	r.dm = bench.RandMat(seed, n, n)
	if r.a, err = core.FromDense(r.g, r.dm, embed.Block, embed.Block); err != nil {
		m.Close()
		return nil, err
	}
	r.colSum = make([]float64, n)
	for i := 0; i < n; i++ {
		for j, v := range r.dm.Row(i) {
			r.colSum[j] += v
		}
	}
	return r, nil
}

func setupBulk(e *env) (runner, error) {
	r, err := newBulk(e.cfg.Bulk.D, e.cfg.Bulk.N, e.seed)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(bulkGoldenJSON, &r.golden); err != nil {
		r.m.Close()
		return nil, fmt.Errorf("golden/bulk.json: %w", err)
	}
	if r.golden.D != e.cfg.Bulk.D || r.golden.N != e.cfg.Bulk.N {
		r.m.Close()
		return nil, fmt.Errorf("golden/bulk.json is for d=%d n=%d, config wants d=%d n=%d",
			r.golden.D, r.golden.N, e.cfg.Bulk.D, e.cfg.Bulk.N)
	}
	// Warm-up: one pass, so buffer pools and the heap reach their
	// steady size before timing.
	if _, err := r.pass(nil, "warm-up"); err != nil {
		r.m.Close()
		return nil, err
	}
	return r, nil
}

// call is one timed primitive call and its verdict.
type call struct {
	name  string  // primitive, as in core.<name>
	key   string  // golden sim-time key
	host  float64 // host seconds inside Machine.Run
	sim   costmodel.Time
	right bool // the result matched the serial reference
}

// run times one SPMD program on the bulk machine.
func (r *bulkRunner) run(tr *Tracer, parent int, req, name string, body func(e *core.Env)) (call, error) {
	sp := tr.Begin("core."+name, parent, req)
	t0 := time.Now()
	sim, err := r.m.Run(func(p *hypercube.Proc) { body(core.NewEnv(p, r.g)) })
	host := time.Since(t0).Seconds()
	tr.End(sp)
	return call{name: name, key: name, host: host, sim: sim}, err
}

// pass makes the five calls once, with seeded rows, columns and
// inserted values, and checks each.
func (r *bulkRunner) pass(tr *Tracer, req string) ([]call, error) {
	n, g := r.n, r.g
	ps := tr.Begin("bulk.pass", -1, req)
	defer tr.End(ps)
	var calls []call

	// ExtractRow, replicated: Extract fused with Distribute.
	i := r.rng.Intn(n)
	ext := r.out(r.a.RMap.CoordOf(i))
	c, err := r.run(tr, ps, req, "ExtractRow", func(e *core.Env) { e.StoreVec(ext, e.ExtractRow(r.a, i, true)) })
	if err != nil {
		return nil, err
	}
	c.right = ext.CheckReplicas() == nil && slices.Equal(ext.ToSlice(), r.dm.Row(i))
	calls = append(calls, c)

	// InsertRow of a fresh seeded vector homed on a seeded grid row:
	// the pieces travel the cube path to the target row first.
	k := r.rng.Intn(n)
	x := make([]float64, n)
	for j := range x {
		x[j] = r.rng.NormFloat64()
	}
	home := r.rng.Intn(g.PRows())
	xv, err := core.VectorFromSlice(g, x, core.RowAligned, embed.Block, home, false)
	if err != nil {
		return nil, err
	}
	owner := r.a.RMap.CoordOf(k)
	c, err = r.run(tr, ps, req, "InsertRow", func(e *core.Env) { e.InsertRow(r.a, xv, k) })
	if err != nil {
		return nil, err
	}
	c.key = fmt.Sprintf("InsertRow/hops=%d", bits.OnesCount(uint(g.RowRel(home)^g.RowRel(owner))))
	c.right = r.rowIs(k, x)
	for j, v := range r.dm.Row(k) {
		r.colSum[j] += x[j] - v
	}
	r.dm.SetRow(k, x)
	calls = append(calls, c)

	// Distribute the same vector across the grid rows.
	dist := r.out(home)
	c, err = r.run(tr, ps, req, "Distribute", func(e *core.Env) { e.StoreVec(dist, e.Distribute(xv)) })
	if err != nil {
		return nil, err
	}
	c.right = dist.CheckReplicas() == nil && slices.Equal(dist.ToSlice(), x)
	calls = append(calls, c)

	// ReduceRows: column sums, replicated.
	red := r.out(0)
	c, err = r.run(tr, ps, req, "ReduceRows", func(e *core.Env) { e.StoreVec(red, e.ReduceRows(r.a, core.OpSum, true)) })
	if err != nil {
		return nil, err
	}
	c.right = red.CheckReplicas() == nil && approxEqual(red.ToSlice(), r.colSum)
	calls = append(calls, c)

	// ReduceColLoc: the pivot search over a seeded column.
	j := r.rng.Intn(n)
	var val float64
	idx := -2
	c, err = r.run(tr, ps, req, "ReduceColLoc", func(e *core.Env) {
		v, at := e.ReduceColLoc(r.a, j, 0, n, core.LocMaxAbs)
		if e.P.ID() == 0 {
			val, idx = v, at
		}
	})
	if err != nil {
		return nil, err
	}
	wantVal, wantIdx := math.Inf(-1), -1
	for row, v := range r.dm.Col(j) {
		if math.Abs(v) > wantVal {
			wantVal, wantIdx = math.Abs(v), row
		}
	}
	c.right = val == wantVal && idx == wantIdx
	calls = append(calls, c)
	return calls, nil
}

// rowIs reports whether matrix row k holds x, read from the owning
// processors' local blocks.
func (r *bulkRunner) rowIs(k int, x []float64) bool {
	gr, lr, b := r.a.RMap.CoordOf(k), r.a.RMap.LocalOf(k), r.a.CMap.B
	for j, want := range x {
		blk := r.a.L(r.g.ProcAt(gr, r.a.CMap.CoordOf(j)))
		if blk[lr*b+r.a.CMap.LocalOf(j)] != want {
			return false
		}
	}
	return true
}

// approxEqual reports whether two sums agree up to rounding: the cube adds
// in a different order than the serial reference.
func approxEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
			return false
		}
	}
	return true
}

func (r *bulkRunner) loop(secs float64, tr *Tracer) (loopStats, error) {
	var st loopStats
	var lat []float64
	byPrim := map[string][]float64{}
	start := time.Now()
	for p := 0; p == 0 || time.Since(start).Seconds() < secs; p++ {
		calls, err := r.pass(tr, fmt.Sprintf("pass-%d", p))
		if err != nil {
			return st, err
		}
		for _, c := range calls {
			st.attempted++
			want, ok := r.golden.SimUs[c.key]
			if !c.right || !ok || float64(c.sim) != want {
				st.failed++
				fmt.Fprintf(os.Stderr, "vmbench: bulk %s: result ok=%v, sim %v us, golden %v (known %v)\n",
					c.key, c.right, float64(c.sim), want, ok)
			}
			lat = append(lat, c.host)
			byPrim[c.name] = append(byPrim[c.name], c.host)
		}
	}
	st.p50Ms = median(lat) * 1e3
	st.p99Ms = quantile(lat, 0.99) * 1e3
	// Throughput at each primitive's median call time: a pass makes
	// one call of each, so passes per second is 1 over the sum of the
	// medians. Medians keep a garbage-collection pause in one call from
	// moving the figure.
	passS := 0.0
	for _, hs := range byPrim {
		passS += median(hs)
	}
	st.opsPerS = float64(len(byPrim)) / passS
	return st, nil
}

func (r *bulkRunner) layers([]Span, metricSet) {}

func (r *bulkRunner) close() (float64, error) {
	r.m.Close()
	return selfRSSMB(), nil
}

// recordBulk writes golden/bulk.json: the simulated time of every call
// shape, checking along the way that nothing but the hop count moves
// it (every home row for InsertRow and Distribute, several rows and
// columns for the others).
func recordBulk(dir string) error {
	var cfg config
	if err := json.Unmarshal(configJSON, &cfg); err != nil {
		return err
	}
	r, err := newBulk(cfg.Bulk.D, cfg.Bulk.N, 1)
	if err != nil {
		return err
	}
	defer r.m.Close()
	gold := bulkGolden{D: cfg.Bulk.D, N: cfg.Bulk.N, Model: "cm2", SimUs: map[string]float64{}}
	for rep := 0; rep < 16*r.g.PRows(); rep++ {
		calls, err := r.pass(nil, "record")
		if err != nil {
			return err
		}
		for _, c := range calls {
			if !c.right {
				return fmt.Errorf("%s returned a wrong result while recording", c.key)
			}
			if old, ok := gold.SimUs[c.key]; ok && old != float64(c.sim) {
				return fmt.Errorf("%s sim time varies with its inputs: %v vs %v us", c.key, old, float64(c.sim))
			}
			gold.SimUs[c.key] = float64(c.sim)
		}
	}
	return writeJSON(filepath.Join(dir, "bulk.json"), gold)
}
