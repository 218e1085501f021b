package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmprim/internal/bench"
	"vmprim/internal/hypercube"
	"vmprim/internal/metrics"
)

// Package serve is vmprimd's engine: a long-lived HTTP+JSON server
// owning a pool of persistent simulated machines and a durable
// in-memory run registry. Submitting a workload spec yields a run ID;
// the run executes on a pooled machine with the full recorder set
// armed, and its artifacts — profile, Chrome trace, critical path,
// per-run metrics, post-mortem — stay addressable under /runs/{id}/*
// until retention evicts them. /runs/{id}/events streams the
// simulator's live span and progress events over SSE, and /metrics
// folds every run's simulated counters with the serving counters into
// one Prometheus exposition.
//
// The simulated artifacts are deterministic server-side documents:
// the same spec served here and run through `vmprim -profile` renders
// byte-identical profile, trace and critical-path JSON (per-run
// metrics match modulo the host-nondeterministic scheduler counters),
// which scripts/check.sh asserts end to end.

// Options configures a Server.
type Options struct {
	// Workers is the executor pool size (default 2).
	Workers int
	// QueueDepth bounds queued-but-not-running submissions; a full
	// queue rejects with 503 (default 1024).
	QueueDepth int
	// RetainRuns bounds the finished-run backlog; beyond it the oldest
	// finished runs are evicted and answer 404 (default 256).
	RetainRuns int
	// PoolMachines bounds the idle machine pool (default 4).
	PoolMachines int
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 2
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 1024
	}
	if o.RetainRuns < 1 {
		o.RetainRuns = 256
	}
	if o.PoolMachines < 1 {
		o.PoolMachines = 4
	}
	return o
}

// Server owns the machine pool, run registry and executor workers.
type Server struct {
	opts  Options
	reg   *registry
	pool  *hypercube.MachinePool
	queue chan *Run
	wg    sync.WaitGroup

	closedMu sync.Mutex
	closed   bool

	met *serveMetrics
	// simAgg folds every finished run's per-run metric delta; /metrics
	// merges it with the serving registry.
	aggMu  sync.Mutex
	simAgg *metrics.Snapshot

	mux *http.ServeMux
}

// serveMetrics is the serving-plane registry: request and run
// counters, scrape-time gauges and per-endpoint latency histograms.
type serveMetrics struct {
	reg *metrics.Registry

	requests      *metrics.Counter
	runsSubmitted *metrics.Counter
	runsStarted   *metrics.Counter
	runsDone      *metrics.Counter
	runsFailed    *metrics.Counter
	runsEvicted   *metrics.Counter
	poolHits      *metrics.Counter
	poolMisses    *metrics.Counter
	eventsDropped *metrics.Counter

	inflight    atomic.Int64
	inflightG   *metrics.Gauge
	queueDepth  *metrics.Gauge
	poolIdle    *metrics.Gauge
	retained    *metrics.Gauge
	perEndpoint map[string]*metrics.Histogram
}

// latencyBounds are the per-endpoint request-duration buckets, in
// microseconds: 100µs up to 10s, roughly quarter-decade spaced.
var latencyBounds = []float64{
	100, 250, 500, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4,
	1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7,
}

func newServeMetrics() *serveMetrics {
	r := metrics.NewRegistry()
	return &serveMetrics{
		reg:           r,
		requests:      r.Counter("vmprimd_http_requests_total", "HTTP requests served"),
		runsSubmitted: r.Counter("vmprimd_runs_submitted_total", "workload submissions accepted"),
		runsStarted:   r.Counter("vmprimd_runs_started_total", "runs handed to an executor worker"),
		runsDone:      r.Counter("vmprimd_runs_done_total", "runs finished successfully"),
		runsFailed:    r.Counter("vmprimd_run_failures_total", "runs that ended in an error"),
		runsEvicted:   r.Counter("vmprimd_runs_evicted_total", "finished runs dropped by retention"),
		poolHits:      r.Counter("vmprimd_pool_hits_total", "machine acquisitions served from the pool"),
		poolMisses:    r.Counter("vmprimd_pool_misses_total", "machine acquisitions that built a new machine"),
		eventsDropped: r.Counter("vmprimd_events_dropped_total", "stream events lost to slow subscribers or replay bounds"),
		inflightG:     r.Gauge("vmprimd_runs_inflight", "runs currently executing"),
		queueDepth:    r.Gauge("vmprimd_queue_depth", "submitted runs waiting for a worker"),
		poolIdle:      r.Gauge("vmprimd_pool_idle_machines", "idle machines in the pool"),
		retained:      r.Gauge("vmprimd_runs_retained", "runs currently addressable in the registry"),
		perEndpoint:   make(map[string]*metrics.Histogram),
	}
}

// endpointHist registers the latency histogram for one route pattern,
// e.g. "POST /runs" -> vmprimd_http_post_runs_duration_us.
func (sm *serveMetrics) endpointHist(pattern string) *metrics.Histogram {
	name := "vmprimd_http_" + sanitizeMetricPart(pattern) + "_duration_us"
	h := sm.reg.Histogram(name, "request latency for "+pattern+" in microseconds", latencyBounds)
	sm.perEndpoint[pattern] = h
	return h
}

// sanitizeMetricPart folds a route pattern into a metric-name segment:
// lowercased, with every illegal run collapsed to one underscore.
func sanitizeMetricPart(pattern string) string {
	var b strings.Builder
	us := false
	for _, c := range strings.ToLower(pattern) {
		ok := c >= 'a' && c <= 'z' || c >= '0' && c <= '9'
		switch {
		case ok:
			b.WriteRune(c)
			us = false
		case !us && b.Len() > 0:
			b.WriteByte('_')
			us = true
		}
	}
	return strings.TrimSuffix(b.String(), "_")
}

// New builds a server and starts its executor workers.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:  opts,
		reg:   newRegistry(opts.RetainRuns),
		pool:  hypercube.NewMachinePool(opts.PoolMachines),
		queue: make(chan *Run, opts.QueueDepth),
		met:   newServeMetrics(),
	}
	s.routes()
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Close stops accepting submissions, drains the queue, waits for
// in-flight runs and retires the pooled machines. Safe to call once.
func (s *Server) Close() {
	s.closedMu.Lock()
	already := s.closed
	s.closed = true
	s.closedMu.Unlock()
	if already {
		return
	}
	close(s.queue)
	s.wg.Wait()
	s.pool.Close()
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// routes wires the mux, wrapping every route in the request counter
// and its per-endpoint latency histogram.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		hist := s.met.endpointHist(pattern)
		s.mux.HandleFunc(pattern, func(w http.ResponseWriter, req *http.Request) {
			s.met.requests.Add(1)
			start := time.Now()
			h(w, req)
			hist.Observe(float64(time.Since(start).Microseconds()))
		})
	}
	route("POST /runs", s.handleSubmit)
	route("GET /runs", s.handleList)
	route("GET /runs/{id}", s.withRun(s.handleStatus))
	route("GET /runs/{id}/wait", s.withRun(s.handleWait))
	route("GET /runs/{id}/events", s.withRun(s.handleEvents))
	route("GET /runs/{id}/profile", s.withRun(s.handleProfile))
	route("GET /runs/{id}/trace", s.withRun(s.handleTrace))
	route("GET /runs/{id}/critpath", s.withRun(s.handleCritPath))
	route("GET /runs/{id}/metrics", s.withRun(s.handleRunMetrics))
	route("GET /runs/{id}/postmortem", s.withRun(s.handlePostmortem))
	route("GET /metrics", s.handleMetrics)
	route("GET /healthz", s.handleHealthz)
}

// apiError is the structured error body every non-2xx response
// carries.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(struct {
		Error apiError `json:"error"`
	}{apiError{Code: code, Message: msg}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// withRun resolves {id} and answers the structured 404s itself: the
// "gone" code marks runs that existed but aged out of retention.
func (s *Server) withRun(h func(http.ResponseWriter, *http.Request, *Run)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		id := req.PathValue("id")
		run, evicted := s.reg.get(id)
		if run == nil {
			if evicted {
				writeError(w, http.StatusNotFound, "gone",
					fmt.Sprintf("run %s was evicted by retention (server keeps the last %d finished runs)", id, s.opts.RetainRuns))
			} else {
				writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no run %s", id))
			}
			return
		}
		h(w, req, run)
	}
}

// runStatusJSON is the run's API representation.
type runStatusJSON struct {
	ID        string        `json:"id"`
	State     RunState      `json:"state"`
	Spec      bench.RunSpec `json:"spec"`
	Submitted string        `json:"submitted"`
	PoolHit   bool          `json:"pool_hit,omitempty"`
	Error     string        `json:"error,omitempty"`
	// Desc and TimesUs carry the workload's identity and simulated
	// elapsed times (execution order) once the run is done.
	Desc    string    `json:"desc,omitempty"`
	TimesUs []float64 `json:"times_us,omitempty"`
}

func (s *Server) runStatus(run *Run) runStatusJSON {
	run.mu.Lock()
	defer run.mu.Unlock()
	st := runStatusJSON{
		ID:        run.ID,
		State:     run.state,
		Spec:      run.Spec,
		Submitted: run.Submitted.UTC().Format(time.RFC3339Nano),
		PoolHit:   run.poolHit,
		Error:     run.err,
	}
	if run.result != nil {
		st.Desc = run.result.Desc
		st.TimesUs = make([]float64, len(run.result.Times))
		for i, t := range run.result.Times {
			st.TimesUs[i] = float64(t)
		}
	}
	return st
}

// handleSubmit accepts a bench.RunSpec JSON body, validates it,
// registers a run and queues it, answering 202 with the run status.
func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var spec bench.RunSpec
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad_body", "request body is not a workload spec: "+err.Error())
		return
	}
	norm, err := spec.Normalized()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_spec", err.Error())
		return
	}
	s.closedMu.Lock()
	if s.closed {
		s.closedMu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "shutting_down", "server is shutting down")
		return
	}
	run := s.reg.add(norm, time.Now())
	select {
	case s.queue <- run:
		s.closedMu.Unlock()
	default:
		s.closedMu.Unlock()
		if n := s.reg.markFinished(run.ID); n > 0 {
			s.met.runsEvicted.Add(int64(n))
		}
		run.complete(nil, nil, nil, errors.New("submission queue full"))
		writeError(w, http.StatusServiceUnavailable, "queue_full",
			fmt.Sprintf("submission queue is full (%d pending)", s.opts.QueueDepth))
		return
	}
	s.met.runsSubmitted.Add(1)
	writeJSON(w, http.StatusAccepted, s.runStatus(run))
}

// handleList serves every retained run's status, submission order.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	runs := s.reg.list()
	out := struct {
		Runs []runStatusJSON `json:"runs"`
	}{Runs: make([]runStatusJSON, 0, len(runs))}
	for _, r := range runs {
		out.Runs = append(out.Runs, s.runStatus(r))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request, run *Run) {
	writeJSON(w, http.StatusOK, s.runStatus(run))
}

// handleWait blocks until the run finishes (or ?timeout= elapses,
// default 60s) and serves the terminal status; on timeout it serves
// the current status with 202 so pollers can retry.
func (s *Server) handleWait(w http.ResponseWriter, req *http.Request, run *Run) {
	timeout := 60 * time.Second
	if v := req.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "bad_timeout", "timeout must be a positive duration")
			return
		}
		timeout = d
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-run.done:
		writeJSON(w, http.StatusOK, s.runStatus(run))
	case <-t.C:
		writeJSON(w, http.StatusAccepted, s.runStatus(run))
	case <-req.Context().Done():
	}
}

// requireDone gates artifact endpoints: only terminal runs have
// artifacts, and failed runs have only metrics and a post-mortem.
func requireDone(w http.ResponseWriter, run *Run) bool {
	switch run.State() {
	case StateDone, StateFailed:
		return true
	default:
		writeError(w, http.StatusConflict, "not_finished",
			fmt.Sprintf("run %s is %s; wait for it to finish", run.ID, run.State()))
		return false
	}
}

// The artifact endpoints render with the same obs/metrics writers the
// CLI uses, so a served document is byte-identical to the file
// `vmprim -profile`/`-critpath` writes for the same spec.

func (s *Server) handleProfile(w http.ResponseWriter, _ *http.Request, run *Run) {
	if !requireDone(w, run) {
		return
	}
	res, _, _ := run.artifacts()
	if res == nil || res.Profile == nil {
		writeError(w, http.StatusNotFound, "no_artifact", "run has no profile (it failed before producing one)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = res.Profile.WriteJSON(w)
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request, run *Run) {
	if !requireDone(w, run) {
		return
	}
	res, _, _ := run.artifacts()
	if res == nil || res.Profile == nil {
		writeError(w, http.StatusNotFound, "no_artifact", "run has no trace (it failed before producing one)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = res.Profile.ChromeTrace(w, 0)
}

func (s *Server) handleCritPath(w http.ResponseWriter, _ *http.Request, run *Run) {
	if !requireDone(w, run) {
		return
	}
	res, _, _ := run.artifacts()
	if res == nil || res.CritPath == nil {
		writeError(w, http.StatusNotFound, "no_artifact", "run has no critical path (it failed before producing one)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = res.CritPath.WriteJSON(w)
}

// handleRunMetrics serves the run's own metrics — the machine
// registry delta around the run — as JSON, or Prometheus text with
// ?format=prom.
func (s *Server) handleRunMetrics(w http.ResponseWriter, req *http.Request, run *Run) {
	if !requireDone(w, run) {
		return
	}
	_, snap, _ := run.artifacts()
	if snap == nil {
		writeError(w, http.StatusNotFound, "no_artifact", "run recorded no metrics")
		return
	}
	if req.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", promContentType)
		_ = snap.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = snap.WriteJSON(w)
}

func (s *Server) handlePostmortem(w http.ResponseWriter, _ *http.Request, run *Run) {
	if !requireDone(w, run) {
		return
	}
	_, _, pm := run.artifacts()
	if pm == nil {
		writeError(w, http.StatusNotFound, "no_artifact", "run has no post-mortem (it did not fail)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = pm.WriteJSON(w)
}

// promContentType is the Prometheus text exposition content type.
const promContentType = "text/plain; version=0.0.4"

// handleMetrics serves the server-wide exposition: the serving
// registry (with the scrape-time gauges refreshed) merged with the
// fold of every finished run's simulated metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.met.inflightG.Set(float64(s.met.inflight.Load()))
	s.met.queueDepth.Set(float64(len(s.queue)))
	s.met.poolIdle.Set(float64(s.pool.Stats().Idle))
	retained, _ := s.reg.counts()
	s.met.retained.Set(float64(retained))

	s.aggMu.Lock()
	sim := s.simAgg
	s.aggMu.Unlock()
	snap := metrics.Merge(s.met.reg.Snapshot(), sim)
	w.Header().Set("Content-Type", promContentType)
	_ = snap.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}{"ok", s.opts.Workers})
}
