package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"vmprim/internal/bench"
	"vmprim/internal/collective"
	"vmprim/internal/core"
	"vmprim/internal/costmodel"
	"vmprim/internal/embed"
	"vmprim/internal/hypercube"
	"vmprim/internal/obs"
	"vmprim/internal/router"
)

// Layer probes: each times calls into one layer's public functions
// from outside, at the shape of the workload that reports them. Probe
// inputs are fixed (seed 1), so the counters they read repeat exactly
// from run to run.

// probeShape is a workload's machine dimension, matrix order and
// collective payload length in words.
type probeShape struct {
	D, N, Payload int
}

// Fixed probe shapes: the router probes run where the naive baselines
// and F3 route (d=8), the transpose at F3's largest matrix.
const (
	routeDim      = 8
	transposeDim  = 8
	transposeN    = 1024
	probeBudget   = 300 * time.Millisecond
	probeMinReps  = 5
	obsProbeRound = 3
)

// timeReps runs f at least minReps times and until budget has passed,
// returning each run's wall nanoseconds.
func timeReps(minReps int, budget time.Duration, f func() error) ([]float64, error) {
	var ns []float64
	start := time.Now()
	for len(ns) < minReps || time.Since(start) < budget {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
	}
	return ns, nil
}

// counts are the machine counters one call moved.
type counts struct {
	msgs, words, flops, parks, stalls, wakeups, poolGets, poolHits float64
}

func readCounts(m *hypercube.Machine) counts {
	s := m.Metrics().Snapshot()
	v := func(name string) float64 { x, _ := s.Value(name); return x }
	return counts{
		msgs: v("vmprim_messages_total"), words: v("vmprim_words_total"), flops: v("vmprim_flops_total"),
		parks: v("vmprim_sched_recv_parks_total"), stalls: v("vmprim_sched_send_stalls_total"),
		wakeups:  v("vmprim_sched_wakeups_total"),
		poolGets: v("vmprim_pool_gets_total"), poolHits: v("vmprim_pool_hits_total"),
	}
}

func (a counts) plus(b counts) counts {
	return counts{a.msgs + b.msgs, a.words + b.words, a.flops + b.flops, a.parks + b.parks,
		a.stalls + b.stalls, a.wakeups + b.wakeups, a.poolGets + b.poolGets, a.poolHits + b.poolHits}
}

func (a counts) minus(b counts) counts {
	return counts{a.msgs - b.msgs, a.words - b.words, a.flops - b.flops, a.parks - b.parks,
		a.stalls - b.stalls, a.wakeups - b.wakeups, a.poolGets - b.poolGets, a.poolHits - b.poolHits}
}

// probe is one timed SPMD program: its median wall time and the
// counters its first run moved.
type probe struct {
	medianNs float64
	c        counts
}

func runProbe(m *hypercube.Machine, body func(p *hypercube.Proc)) (probe, error) {
	before := readCounts(m)
	if _, err := m.Run(body); err != nil {
		return probe{}, err
	}
	c := readCounts(m).minus(before)
	ns, err := timeReps(probeMinReps, probeBudget, func() error {
		_, err := m.Run(body)
		return err
	})
	return probe{median(ns), c}, err
}

// runProbes fills every per-layer metric that does not come from a
// workload's own spans.
func runProbes(e *env, sh probeShape, lm metricSet) error {
	var fit []fitRow
	overheadNs, err := probeHypercube(sh, lm, &fit)
	if err != nil {
		return fmt.Errorf("hypercube probe: %w", err)
	}
	if err := probeCollective(sh, lm, &fit); err != nil {
		return fmt.Errorf("collective probe: %w", err)
	}
	if err := probeCore(sh, lm, &fit); err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	if err := probeRouter(lm); err != nil {
		return fmt.Errorf("router probe: %w", err)
	}
	if err := probeObs(e, lm); err != nil {
		return fmt.Errorf("obs probe: %w", err)
	}
	// Host cost model: ns ≈ tau·msgs + t_c·words + t_f·flops over the
	// probe calls, each net of the empty-Run overhead.
	for i := range fit {
		fit[i].Ns -= overheadNs
	}
	beta, resid, err := leastSquares(fit)
	if err != nil {
		return fmt.Errorf("cost-model fit: %w", err)
	}
	lm.set("costmodel.host_tau_ns", beta[0], "ns")
	lm.set("costmodel.host_tc_ns", beta[1], "ns")
	lm.set("costmodel.host_tf_ns", beta[2], "ns")
	lm.set("costmodel.host_fit_residual", resid, "ratio")
	return nil
}

func fitRowOf(p probe) fitRow {
	return fitRow{X: []float64{p.c.msgs, p.c.words, p.c.flops}, Ns: p.medianNs}
}

// probeHypercube times an empty Run and one exchange on every
// dimension with a 1-word and a 4096-word payload, and returns the
// empty-Run overhead in ns.
func probeHypercube(sh probeShape, lm metricSet, fit *[]fitRow) (float64, error) {
	m, err := hypercube.New(sh.D, costmodel.CM2())
	if err != nil {
		return 0, err
	}
	defer m.Close()
	empty, err := runProbe(m, func(*hypercube.Proc) {})
	if err != nil {
		return 0, err
	}
	exchange := func(words int) func(p *hypercube.Proc) {
		return func(p *hypercube.Proc) {
			buf := p.GetBuf(words)
			for d := 0; d < p.Dim(); d++ {
				p.Recycle(p.Exchange(d, d, buf))
			}
			p.Recycle(buf)
		}
	}
	small, err := runProbe(m, exchange(1))
	if err != nil {
		return 0, err
	}
	large, err := runProbe(m, exchange(4096))
	if err != nil {
		return 0, err
	}
	msgs := float64(m.P() * sh.D)
	lm.set("hypercube.run_overhead_us", empty.medianNs/1e3, "us")
	lm.set("hypercube.ns_per_msg", (small.medianNs-empty.medianNs)/msgs, "ns")
	lm.set("hypercube.ns_per_word", (large.medianNs-small.medianNs)/(msgs*4095), "ns")
	*fit = append(*fit, fitRowOf(small), fitRowOf(large))
	return empty.medianNs, nil
}

// probeCollective times a broadcast, a reduction and an all-gather
// over the whole cube with the workload's payload.
func probeCollective(sh probeShape, lm metricSet, fit *[]fitRow) error {
	m, err := hypercube.New(sh.D, costmodel.CM2())
	if err != nil {
		return err
	}
	defer m.Close()
	data := bench.RandVec(1, sh.Payload)
	piece := max(1, sh.Payload/m.P())
	bodies := []struct {
		name string
		body func(p *hypercube.Proc)
	}{
		{"bcast", func(p *hypercube.Proc) {
			var src []float64
			if p.ID() == 0 {
				src = data
			}
			p.Recycle(collective.Bcast(p, p.FullMask(), 1, 0, src))
		}},
		{"reduce", func(p *hypercube.Proc) {
			buf := p.GetBuf(len(data))
			copy(buf, data)
			if got := collective.Reduce(p, p.FullMask(), 1, 0, buf, collective.Sum); got != nil && &got[0] != &buf[0] {
				p.Recycle(got)
			}
			p.Recycle(buf)
		}},
		{"allgather", func(p *hypercube.Proc) {
			p.Recycle(collective.AllGather(p, p.FullMask(), 1, data[:piece]))
		}},
	}
	for _, b := range bodies {
		pr, err := runProbe(m, b.body)
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		lm.set("collective."+b.name+"_us", pr.medianNs/1e3, "us")
		*fit = append(*fit, fitRowOf(pr))
	}
	return nil
}

// probeCore times the five bulk primitives on an n×n matrix at the
// workload's shape, with the allocations and machine counters per
// call.
func probeCore(sh probeShape, lm metricSet, fit *[]fitRow) error {
	m, err := hypercube.New(sh.D, costmodel.CM2())
	if err != nil {
		return err
	}
	defer m.Close()
	g := embed.SplitFor(sh.D, sh.N, sh.N)
	a, err := core.FromDense(g, bench.RandMat(1, sh.N, sh.N), embed.Block, embed.Block)
	if err != nil {
		return err
	}
	xv, err := core.VectorFromSlice(g, bench.RandVec(2, sh.N), core.RowAligned, embed.Block, 0, false)
	if err != nil {
		return err
	}
	mid := sh.N / 2
	calls := []struct {
		name string
		body func(e *core.Env)
	}{
		{"extract_row", func(e *core.Env) { e.ExtractRow(a, mid, true) }},
		{"insert_row", func(e *core.Env) { e.InsertRow(a, xv, mid) }},
		{"distribute", func(e *core.Env) { e.Distribute(xv) }},
		{"reduce_rows", func(e *core.Env) { e.ReduceRows(a, core.OpSum, true) }},
		{"reduce_col_loc", func(e *core.Env) { e.ReduceColLoc(a, mid, 0, sh.N, core.LocMaxAbs) }},
	}
	var total counts
	var ms0, ms1 runtime.MemStats
	var allocs, bytes uint64
	for _, c := range calls {
		body := func(p *hypercube.Proc) { c.body(core.NewEnv(p, g)) }
		pr, err := runProbe(m, body)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		lm.set("core."+c.name+"_us", pr.medianNs/1e3, "us")
		*fit = append(*fit, fitRowOf(pr))
		total = total.plus(pr.c)
		// Allocations over a fixed number of further calls.
		runtime.ReadMemStats(&ms0)
		for i := 0; i < probeMinReps; i++ {
			if _, err := m.Run(body); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	nCalls := float64(len(calls) * probeMinReps)
	lm.set("core.allocs_per_op", float64(allocs)/nCalls, "count")
	lm.set("core.alloc_bytes_per_op", float64(bytes)/nCalls, "B")
	per := float64(len(calls))
	lm.set("hypercube.msgs_per_op", total.msgs/per, "count")
	lm.set("hypercube.words_per_op", total.words/per, "count")
	lm.set("hypercube.flops_per_op", total.flops/per, "count")
	lm.set("hypercube.recv_parks_per_op", total.parks/per, "count")
	lm.set("hypercube.send_stalls_per_op", total.stalls/per, "count")
	lm.set("hypercube.wakeups_per_op", total.wakeups/per, "count")
	lm.set("hypercube.buf_pool_hit_ratio", total.poolHits/total.poolGets, "ratio")
	return nil
}

// probeRouter times a seeded all-to-all of 1-word messages through
// router.Route at d=8, and Env.Transpose at F3's largest shape with
// its allocation volume.
func probeRouter(lm metricSet) error {
	m, err := hypercube.New(routeDim, costmodel.CM2())
	if err != nil {
		return err
	}
	defer m.Close()
	rng := rand.New(rand.NewSource(1))
	payload := make([]float64, m.P())
	for i := range payload {
		payload[i] = rng.NormFloat64()
	}
	route, err := runProbe(m, func(p *hypercube.Proc) {
		out := make([]router.Msg, 0, p.P()-1)
		for dst := 0; dst < p.P(); dst++ {
			if dst != p.ID() {
				out = append(out, router.Msg{Dst: dst, Key: p.ID(), Words: payload[p.ID() : p.ID()+1]})
			}
		}
		if got := router.Route(p, 1, out); len(got) != p.P()-1 {
			panic(fmt.Sprintf("router probe: proc %d received %d messages, want %d", p.ID(), len(got), p.P()-1))
		}
	})
	if err != nil {
		return err
	}
	lm.set("router.route_us", route.medianNs/1e3, "us")

	tm, err := hypercube.New(transposeDim, costmodel.CM2())
	if err != nil {
		return err
	}
	defer tm.Close()
	g := embed.SplitFor(transposeDim, transposeN, transposeN)
	a, err := core.FromDense(g, bench.RandMat(1, transposeN, transposeN), embed.Block, embed.Block)
	if err != nil {
		return err
	}
	transpose := func() error {
		_, err := tm.Run(func(p *hypercube.Proc) { core.NewEnv(p, g).Transpose(a) })
		return err
	}
	if err := transpose(); err != nil { // warm the buffer pools
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ns, err := timeReps(3, 0, transpose)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	lm.set("router.transpose_ms", median(ns)/1e6, "ms")
	lm.set("router.transpose_alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(len(ns))/(1<<20), "MB")
	return nil
}

// probeObs runs the serve spec mix on warm machines with every
// recorder off, then with the profiler, the critical-path tracer and
// the event stream each on alone, and times the obs writers.
func probeObs(e *env, lm metricSet) error {
	specs := serveSpecs(e.cfg)
	machines := map[string]*hypercube.Machine{}
	defer func() {
		for _, m := range machines {
			m.Close()
		}
	}()
	ms := make([]*hypercube.Machine, len(specs))
	for i, s := range specs {
		key := fmt.Sprintf("%d/%s", s.D, s.Model)
		if machines[key] == nil {
			m, err := hypercube.New(s.D, s.CostParams())
			if err != nil {
				return err
			}
			machines[key] = m
		}
		ms[i] = machines[key]
	}
	var sink obs.StreamSink = func(obs.StreamEvent) {}
	configs := []struct {
		name   string
		opts   bench.ProfileOpts
		stream bool
	}{
		{"base", bench.ProfileOpts{}, false},
		{"profile", bench.ProfileOpts{Profile: true}, false},
		{"critpath", bench.ProfileOpts{CritPath: true}, false},
		{"stream", bench.ProfileOpts{}, true},
	}
	mix := func(opts bench.ProfileOpts, stream bool) error {
		for i, s := range specs {
			if stream {
				ms[i].EnableStream(sink)
			}
			_, err := s.RunOn(ms[i], opts)
			ms[i].EnableStream(nil)
			if err != nil {
				return fmt.Errorf("%+v: %w", s, err)
			}
		}
		return nil
	}
	if err := mix(bench.ProfileOpts{Profile: true, CritPath: true}, true); err != nil { // warm-up
		return err
	}
	rounds := map[string][]float64{}
	for r := 0; r < obsProbeRound; r++ {
		for _, c := range configs {
			t0 := time.Now()
			if err := mix(c.opts, c.stream); err != nil {
				return err
			}
			rounds[c.name] = append(rounds[c.name], float64(time.Since(t0).Nanoseconds()))
		}
	}
	base := median(rounds["base"])
	lm.set("obs.base_ms", base/float64(len(specs))/1e6, "ms")
	for _, c := range configs[1:] {
		lm.set("obs."+c.name+"_tax", median(rounds[c.name])/base, "ratio")
	}

	results := make([]*bench.ProfileResult, len(specs))
	for i, s := range specs {
		res, err := s.RunOn(ms[i], bench.ProfileOpts{Profile: true, CritPath: true})
		if err != nil {
			return err
		}
		results[i] = res
	}
	docs := e.cfg.Serve.Docs
	ns, err := timeReps(obsProbeRound, 0, func() error {
		for _, res := range results {
			for _, doc := range docs {
				if err := renderDoc(io.Discard, res, doc); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lm.set("obs.render_ms", median(ns)/float64(len(results))/1e6, "ms")
	return nil
}
