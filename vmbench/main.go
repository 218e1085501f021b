// Command vmbench is the repository benchmark: it measures how fast the
// simulator reproduces the paper, end to end and layer by layer, and
// checks every output it measures. Run it through run.sh, which builds
// it and vmprimd from the tree:
//
//	bash vmbench/run.sh --workload tables|bulk|serve --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones of BENCHMARK.json; with --trace 1 they are
// the per-layer ones, measured by a separate traced run (see
// README.md in this directory).
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

//go:embed config.json
var configJSON []byte

// config is the benchmark's fixed settings; config.json also records
// why each workload exists and how the older BENCH files map onto
// these metrics.
type config struct {
	SetupReps int `json:"setup_reps"`
	Bulk      struct {
		D int `json:"d"`
		N int `json:"n"`
	} `json:"bulk"`
	Serve struct {
		Conns          int       `json:"connections"`
		BaseRPS        float64   `json:"base_rps"`
		BaseShare      float64   `json:"base_share"`
		LadderRPS      []float64 `json:"ladder_rps"`
		LatencyLimitMs float64   `json:"latency_limit_ms"`
		Exps           []string  `json:"exps"`
		N              []int     `json:"n"`
		Dims           []int     `json:"dims"`
		Models         []string  `json:"models"`
		Docs           []string  `json:"docs"`
	} `json:"serve"`
}

// env is what every workload is given.
type env struct {
	cfg     config
	seed    int64
	seconds float64
	out     string // build and trace output directory
	vmprimd string // path of the vmprimd binary
}

// loopStats is what one measured loop of a workload yields.
type loopStats struct {
	p50Ms, p99Ms float64 // per-operation latency
	opsPerS      float64 // sustained operations per host second
	attempted    int64
	failed       int64
}

// runner is a set-up workload: loop measures it for secs seconds,
// recording spans into tr when tr is non-nil.
type runner interface {
	loop(secs float64, tr *Tracer) (loopStats, error)
	// layers derives the per-layer metrics this workload's own spans
	// carry.
	layers(spans []Span, lm metricSet)
	// close releases everything set-up made and reports the peak RSS,
	// in MB, of the process that simulated.
	close() (peakRSSMB float64, err error)
}

type workload struct {
	setup func(e *env) (runner, error)
	// shape is where the layer probes run for this workload.
	shape probeShape
}

func workloads(cfg config) map[string]workload {
	return map[string]workload{
		"tables": {setup: setupTables, shape: probeShape{D: 8, N: 512, Payload: 8}},
		"bulk":   {setup: setupBulk, shape: probeShape{D: cfg.Bulk.D, N: cfg.Bulk.N, Payload: 2048}},
		"serve":  {setup: setupServe, shape: probeShape{D: 6, N: 64, Payload: 8}},
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: tables, bulk or serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	out := flag.String("out", ".bench_build", "directory for span files")
	vmprimd := flag.String("vmprimd", "", "path of the vmprimd binary")
	record := flag.String("record", "", "write golden files for the workload into this directory and exit")
	flag.Parse()

	var cfg config
	if err := json.Unmarshal(configJSON, &cfg); err != nil {
		fatal(fmt.Errorf("config.json: %w", err))
	}
	w, ok := workloads(cfg)[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want tables, bulk or serve)", *name))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds > 0 and --trace 0|1"))
	}
	e := &env{cfg: cfg, seed: *seed, seconds: *seconds, out: *out, vmprimd: *vmprimd}
	if *record != "" {
		if err := recordGolden(*name, *record); err != nil {
			fatal(err)
		}
		return
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(e, *name, w)
	} else {
		res, err = measuredRun(e, w)
	}
	if err != nil {
		fatal(err)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(buf))
}

// measuredRun is the untraced run: set up SetupReps times (keeping the
// last set-up), measure, and report the end-to-end metrics.
func measuredRun(e *env, w workload) (*result, error) {
	r, setupS, err := setupMedian(e, w)
	if err != nil {
		return nil, err
	}
	st, err := r.loop(e.seconds, nil)
	rss, cerr := r.close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	m := metricSet{}
	m.set("setup_s", setupS, "s")
	m.set("op_p50_ms", st.p50Ms, "ms")
	m.set("op_p99_ms", st.p99Ms, "ms")
	m.set("max_ops_per_s", st.opsPerS, "1/s")
	m.set("ok_ratio", 1-float64(st.failed)/float64(st.attempted), "ratio")
	m.set("peak_rss_mb", rss, "MB")
	return newResult(st, m), nil
}

func newResult(st loopStats, m metricSet) *result {
	return &result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: m}
}

// setupMedian sets the workload up SetupReps times, closing all but
// the last, and returns the median set-up time.
func setupMedian(e *env, w workload) (runner, float64, error) {
	var times []float64
	var r runner
	for i := 0; i < max(e.cfg.SetupReps, 1); i++ {
		if r != nil {
			if _, err := r.close(); err != nil {
				return nil, 0, err
			}
			// Free the discarded set-up's heap, so it does not inflate
			// the peak RSS the kept one reports.
			r = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if r, err = w.setup(e); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return r, median(times), nil
}

// tracedRun measures the workload untraced and traced for half the
// time each (the ratio of their median latencies is the tracing
// overhead). Then it runs every other workload's loop traced for a
// short while, for the layers only that workload's spans show, and
// the layer probes at this workload's shape, so each traced run
// reports every per-layer metric. All spans go to one tracer and one
// file.
func tracedRun(e *env, name string, w workload) (*result, error) {
	r, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	// Untraced and traced quarters in ABBA order, so drift over the
	// run cancels out of the overhead ratio.
	tr := newTracer()
	var plain, traced []float64
	var total loopStats
	for _, t := range []*Tracer{nil, tr, tr, nil} {
		var last loopStats
		if last, err = r.loop(e.seconds/4, t); err != nil {
			break
		}
		total.attempted += last.attempted
		total.failed += last.failed
		if t == nil {
			plain = append(plain, last.p50Ms)
		} else {
			traced = append(traced, last.p50Ms)
		}
	}
	lm := metricSet{}
	if err == nil {
		lm.set("trace.overhead_ratio", sum(traced)/sum(plain), "ratio")
		r.layers(tr.Spans(), lm)
	}
	if _, cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	r = nil
	runtime.GC() // drop this workload's heap before the next one runs

	// The other workloads' own layers, from a short traced loop each,
	// recorded into the same tracer.
	names := make([]string, 0, 3)
	for other := range workloads(e.cfg) {
		names = append(names, other)
	}
	sort.Strings(names)
	for _, other := range names {
		if other == name {
			continue
		}
		or, err := workloads(e.cfg)[other].setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s probe setup: %w", other, err)
		}
		st, err := or.loop(probeLoopSeconds, tr)
		if err == nil {
			total.attempted += st.attempted
			total.failed += st.failed
			or.layers(tr.Spans(), lm)
		}
		if _, cerr := or.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", other, err)
		}
		runtime.GC()
	}
	if err := runProbes(e, w.shape, lm); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.out, 0o755); err == nil {
		path := filepath.Join(e.out, fmt.Sprintf("spans-%s-%d.json", name, e.seed))
		if err := tr.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "vmbench: writing spans:", err)
		}
	}
	for k, v := range lm {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("per-layer metric %s is %v", k, v.Value)
		}
	}
	return newResult(total, lm), nil
}

// probeLoopSeconds is how long a traced run measures each other
// workload's loop; every loop completes at least one operation.
const probeLoopSeconds = 3

// selfRSSMB is this process's peak resident set in MB.
func selfRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vmbench:", err)
	os.Exit(1)
}
