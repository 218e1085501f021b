package serve

import (
	"errors"

	"vmprim/internal/bench"
	"vmprim/internal/flightrec"
	"vmprim/internal/hypercube"
	"vmprim/internal/metrics"
)

// The executor: a fixed pool of worker goroutines drains the submit
// queue, each run borrowing a persistent Machine from the LRU pool
// keyed by the spec's (dimension, cost parameters). Recorders are
// armed exactly as `vmprim -profile` arms them — profiler, message
// trace, critical-path tracer — so the artifacts a run serves are the
// same documents the CLI writes for the same spec. Machine metric
// registries are cumulative across tenants, so each run's own metrics
// are the snapshot delta taken around it; the deltas also fold into
// the server-wide aggregate that /metrics exposes.

// worker drains the queue until the server closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for run := range s.queue {
		s.execute(run)
	}
}

// execute runs one submitted workload to its terminal state.
func (s *Server) execute(run *Run) {
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	s.met.runsStarted.Add(1)

	key := hypercube.PoolKey{Dim: run.Spec.D, Params: run.Spec.CostParams()}
	m, hit, err := s.pool.Acquire(key)
	if err != nil {
		s.finishRun(run, nil, nil, nil, err)
		return
	}
	if hit {
		s.met.poolHits.Add(1)
	} else {
		s.met.poolMisses.Add(1)
	}
	run.setRunning(hit)

	before := m.Metrics().Snapshot()
	m.EnableStream(run.bcast.publish)
	res, err := run.Spec.RunOn(m, bench.ProfileOpts{Profile: true, CritPath: true})
	m.EnableStream(nil)

	// Per-run metrics: the machine registry delta around this tenant.
	// On failures RunOn returns no result, so snapshot the machine
	// directly — the failed run's counters are already folded in.
	after := m.Metrics().Snapshot()
	if res != nil {
		after = res.Metrics
	}
	runMetrics := metrics.Delta(after, before)

	// A failed run tears down cleanly (the abort or deadlock detector
	// unwinds every processor and the workers quiesce), so the machine goes back to the pool either way.
	s.pool.Release(key, m)

	var pm *flightrec.Report
	if err != nil {
		var re *hypercube.RunError
		if errors.As(err, &re) {
			pm = re.Report
		}
	}
	s.finishRun(run, res, runMetrics, pm, err)
}

// finishRun folds the run's metrics into the server-wide aggregate,
// applies retention to the backlog and only then publishes the
// terminal state: complete wakes /wait, and a client that sees the run
// done must already find it counted and the backlog already trimmed.
func (s *Server) finishRun(run *Run, res *bench.ProfileResult, runMetrics *metrics.Snapshot, pm *flightrec.Report, err error) {
	if err != nil {
		s.met.runsFailed.Add(1)
	} else {
		s.met.runsDone.Add(1)
	}
	if d := run.bcast.droppedEvents(); d > 0 {
		s.met.eventsDropped.Add(d)
	}
	if runMetrics != nil {
		s.aggMu.Lock()
		s.simAgg = metrics.Merge(s.simAgg, runMetrics)
		s.aggMu.Unlock()
	}
	if n := s.reg.markFinished(run.ID); n > 0 {
		s.met.runsEvicted.Add(int64(n))
	}
	run.complete(res, runMetrics, pm, err)
}
