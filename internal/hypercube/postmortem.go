package hypercube

import (
	"fmt"

	"vmprim/internal/costmodel"
	"vmprim/internal/flightrec"
	"vmprim/internal/metrics"
	"vmprim/internal/obs"
)

// Post-mortem assembly and the machine's metrics registry.
//
// Both follow the observability discipline of profile.go: the hot
// paths only bump plain per-processor int64 counters and write into
// preallocated rings; everything here runs once per Run, after the
// worker goroutines have quiesced (rc.wg.Wait establishes the
// happens-before edge that makes reading their state safe).

// RunError is the error Run returns when a processor fails. It wraps
// the underlying failure ("hypercube: processor N: ...") so existing
// error-string matching keeps working, and carries the structured
// post-mortem assembled at death. Retrieve it with errors.As from any
// error that wraps a Run failure, or via (*Machine).PostMortem.
type RunError struct {
	// Err is the underlying first failure.
	Err error
	// Report is the post-mortem report of the failed run.
	Report *flightrec.Report
}

// Error includes the underlying failure verbatim and a pointer at the
// report.
func (e *RunError) Error() string {
	return fmt.Sprintf("%v [%d/%d procs blocked; post-mortem attached]",
		e.Err, e.Report.Blocked, e.Report.P)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// PostMortem returns the post-mortem report of the most recent Run,
// or nil if it succeeded. The report is a snapshot; it stays valid
// across later runs.
func (m *Machine) PostMortem() *flightrec.Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.postmortem
}

// buildPostMortem assembles the report of a failed run from the
// quiescent per-processor state and the messages still queued on the
// links (which it census-drains; Run's drain afterwards is then a
// no-op). Caller must not hold m.mu.
func (m *Machine) buildPostMortem(cause string, failedPid int) *flightrec.Report {
	rep := &flightrec.Report{
		Cause:      cause,
		FailedProc: failedPid,
		Dim:        m.dim,
		P:          m.p,
	}
	var maxClock costmodel.Time
	for _, pr := range m.procs {
		if pr.clock > maxClock {
			maxClock = pr.clock
		}
	}
	rep.MaxClockUs = float64(maxClock)

	rep.Procs = make([]flightrec.ProcState, m.p)
	for pid, pr := range m.procs {
		ps := &rep.Procs[pid]
		ps.ID = pid
		ps.ClockUs = float64(pr.clock)
		ps.BehindUs = float64(maxClock - pr.clock)
		ps.Buckets = obs.Buckets{
			Compute:  pr.tComp,
			Startup:  pr.tStart,
			Transfer: pr.tXfer,
			Idle:     pr.clock - pr.tComp - pr.tStart - pr.tXfer,
		}
		if pr.waitKind != flightrec.WaitNone {
			ps.Wait = pr.waitKind.String()
			ps.WaitDim = pr.waitDim
			ps.WaitTag = pr.waitTag
			ps.WaitSinceUs = float64(pr.waitSince)
			rep.Blocked++
		}
		for _, f := range pr.ps.stack {
			ps.OpenSpans = append(ps.OpenSpans, pr.ps.nodes[f.node].name)
		}
		for _, buf := range pr.captured {
			head := buf
			if len(head) > capturedHeadWords {
				head = head[:capturedHeadWords]
			}
			ps.Captured = append(ps.Captured, flightrec.CapturedBuf{
				Len: len(buf), Head: append([]float64(nil), head...),
			})
		}
		ps.Events = pr.rec.Snapshot(nil)
		ps.EventsTotal = pr.rec.Total()
		for i := range ps.Events {
			if n := ps.Events[i].Span; n >= 0 && n < len(pr.ps.nodes) {
				ps.Events[i].SpanName = pr.ps.nodes[n].name
			}
		}
	}

	// Census-drain the links: every undelivered message becomes link
	// occupancy in the report — the queue a blocked receiver never
	// consumed, or the mate of a mismatched exchange.
	var msg message
	for pid := 0; pid < m.p; pid++ {
		for d := 0; d < m.dim; d++ {
			l := &m.links[pid*m.dim+d]
			queued, words, headTag := 0, 0, 0
			var headVT costmodel.Time
			for l.tryPop(&msg) {
				if queued == 0 {
					headTag, headVT = msg.tag, msg.arrive
				}
				queued++
				words += len(msg.words)
			}
			if queued > 0 {
				rep.Links = append(rep.Links, flightrec.LinkState{
					Src: pid ^ (1 << d), Dim: d, Dst: pid,
					Queued: queued, QueuedWords: words,
					HeadTag: headTag, HeadVT: float64(headVT),
				})
			}
		}
	}
	return rep
}

// capturedHeadWords bounds the payload prefix shown per captured
// buffer in the report.
const capturedHeadWords = 4

// msgWordBounds are the finite upper bounds of the message-size
// histogram (words per link message); msgWordBins mirrors them as ints
// for the hot-path binning and msgHistBins counts the bins including
// the implicit +Inf bucket.
var (
	msgWordBounds = []float64{0, 1, 4, 16, 64, 256, 1024, 4096}
	msgWordBins   = [...]int{0, 1, 4, 16, 64, 256, 1024, 4096}
)

const msgHistBins = len(msgWordBins) + 1

// msgBin returns the non-cumulative histogram bin for an n-word
// message.
func msgBin(n int) int {
	i := 0
	for i < len(msgWordBins) && n > msgWordBins[i] {
		i++
	}
	return i
}

// machMetrics is the machine's metrics registry and its handles.
// Counters are cumulative over the machine's lifetime; gauges describe
// the most recent run.
type machMetrics struct {
	reg *metrics.Registry

	runs, failures           *metrics.Counter
	msgs, words, flops       *metrics.Counter
	colls                    *metrics.Counter
	poolGets, poolHits       *metrics.Counter
	wdArms, wdRearms         *metrics.Counter
	recvParks, sendStalls    *metrics.Counter
	wakeups                  *metrics.Counter
	lastElapsed, poolHitRate *metrics.Gauge
	maxParked                *metrics.Gauge
	msgWords                 *metrics.Histogram

	// Critical-path gauges, describing the most recent run recorded
	// under EnableCritPath (zero otherwise). Pure virtual-time values:
	// deterministic, and included in determinism comparisons.
	cpCompute, cpStartup    *metrics.Gauge
	cpTransfer, cpIdle      *metrics.Gauge
	cpHops, cpEndProc       *metrics.Gauge
	cpWorstRatio, cpFlagged *metrics.Gauge
}

// schedMetricNames lists the registry entries fed by the host
// scheduler (plus the watchdog counters, which share its host-timing
// dependence). They describe host execution, not the simulated
// machine, so they are exempt from the bit-identical-across-GOMAXPROCS
// guarantee; the determinism stress tests exclude exactly this set.
var schedMetricNames = map[string]bool{
	"vmprim_sched_recv_parks_total":  true,
	"vmprim_sched_send_stalls_total": true,
	"vmprim_sched_wakeups_total":     true,
	"vmprim_sched_max_parked_procs":  true,
	"vmprim_watchdog_arms_total":     true,
	"vmprim_watchdog_rearms_total":   true,
}

// HostSchedMetricNames reports whether name is one of the
// host-scheduling metrics exempt from determinism comparisons.
func HostSchedMetricNames(name string) bool { return schedMetricNames[name] }

func newMachMetrics() machMetrics {
	reg := metrics.NewRegistry()
	return machMetrics{
		reg:         reg,
		runs:        reg.Counter("vmprim_runs_total", "SPMD programs executed on this machine"),
		failures:    reg.Counter("vmprim_run_failures_total", "runs that ended in a panic or deadlock"),
		msgs:        reg.Counter("vmprim_messages_total", "link messages sent"),
		words:       reg.Counter("vmprim_words_total", "64-bit words moved over links"),
		flops:       reg.Counter("vmprim_flops_total", "local floating-point operations"),
		colls:       reg.Counter("vmprim_collectives_total", "collective protocol invocations"),
		poolGets:    reg.Counter("vmprim_pool_gets_total", "buffer-pool get requests"),
		poolHits:    reg.Counter("vmprim_pool_hits_total", "buffer-pool gets served from a free list"),
		wdArms:      reg.Counter("vmprim_watchdog_arms_total", "deadlock-watchdog timer arms"),
		wdRearms:    reg.Counter("vmprim_watchdog_rearms_total", "watchdog fires that found progress and re-armed"),
		recvParks:   reg.Counter("vmprim_sched_recv_parks_total", "host goroutine parks waiting at the virtual-time frontier for a message (host-nondeterministic)"),
		sendStalls:  reg.Counter("vmprim_sched_send_stalls_total", "host goroutine parks on a full link buffer, run-ahead backpressure (host-nondeterministic)"),
		wakeups:     reg.Counter("vmprim_sched_wakeups_total", "frontier parks resumed by link traffic (host-nondeterministic)"),
		lastElapsed: reg.Gauge("vmprim_last_elapsed_us", "simulated time of the most recent run"),
		poolHitRate: reg.Gauge("vmprim_pool_hit_rate", "fraction of pool gets served from a free list in the most recent run"),
		maxParked:   reg.Gauge("vmprim_sched_max_parked_procs", "high-water mark of concurrently parked processor goroutines in the most recent run (host-nondeterministic)"),
		msgWords:    reg.Histogram("vmprim_message_words", "payload size of link messages in 64-bit words", msgWordBounds),

		cpCompute:    reg.Gauge("vmprim_critpath_compute_us", "compute time on the most recent run's critical path"),
		cpStartup:    reg.Gauge("vmprim_critpath_startup_us", "start-up time on the most recent run's critical path"),
		cpTransfer:   reg.Gauge("vmprim_critpath_transfer_us", "transfer time on the most recent run's critical path"),
		cpIdle:       reg.Gauge("vmprim_critpath_idle_us", "idle time on the most recent run's critical path"),
		cpHops:       reg.Gauge("vmprim_critpath_hops", "cross-processor hops on the most recent run's critical path"),
		cpEndProc:    reg.Gauge("vmprim_critpath_end_proc", "processor the most recent run's critical path ends on"),
		cpWorstRatio: reg.Gauge("vmprim_critpath_conformance_worst_ratio", "largest measured/predicted ratio in the most recent conformance report"),
		cpFlagged:    reg.Gauge("vmprim_critpath_conformance_flagged", "conformance entries exceeding the flagging threshold in the most recent run"),
	}
}

// Metrics returns the machine's metrics registry; snapshot it after
// runs to export JSON or Prometheus text (see internal/metrics).
func (m *Machine) Metrics() *metrics.Registry { return m.met.reg }

// updateMetrics folds the per-processor counters of the run that just
// ended into the registry. Called once per Run, after the workers have
// quiesced; crit is the run's critical path, or nil when recording was
// off (the critpath gauges then read zero).
func (m *Machine) updateMetrics(elapsed costmodel.Time, sch SchedStats, failed bool, crit *obs.CritPath) {
	mm := &m.met
	mm.runs.Add(1)
	if failed {
		mm.failures.Add(1)
	}
	mm.recvParks.Add(sch.RecvParks)
	mm.sendStalls.Add(sch.SendStalls)
	mm.wakeups.Add(sch.Wakeups)
	mm.maxParked.Set(float64(sch.MaxParked))
	var msgs, words, flops, colls, gets, hits, arms, rearms int64
	var hist [msgHistBins]int64
	for _, pr := range m.procs {
		msgs += pr.nMsgs
		words += pr.nWords
		flops += pr.nFlops
		colls += pr.nColl
		gets += pr.pool.gets
		hits += pr.pool.hits
		arms += pr.nArms
		rearms += pr.nRearms
		for i, c := range pr.msgHist {
			hist[i] += c
		}
	}
	mm.msgs.Add(msgs)
	mm.words.Add(words)
	mm.flops.Add(flops)
	mm.colls.Add(colls)
	mm.poolGets.Add(gets)
	mm.poolHits.Add(hits)
	mm.wdArms.Add(arms)
	mm.wdRearms.Add(rearms)
	mm.lastElapsed.Set(float64(elapsed))
	rate := 1.0
	if gets > 0 {
		rate = float64(hits) / float64(gets)
	}
	mm.poolHitRate.Set(rate)
	mm.msgWords.AddBuckets(hist[:], float64(words))
	if crit != nil {
		mm.cpCompute.Set(float64(crit.Buckets.Compute))
		mm.cpStartup.Set(float64(crit.Buckets.Startup))
		mm.cpTransfer.Set(float64(crit.Buckets.Transfer))
		mm.cpIdle.Set(float64(crit.Buckets.Idle))
		mm.cpHops.Set(float64(crit.Hops))
		mm.cpEndProc.Set(float64(crit.EndProc))
		ratio, flagged := crit.WorstConformance()
		mm.cpWorstRatio.Set(ratio)
		mm.cpFlagged.Set(float64(flagged))
	} else {
		for _, g := range []*metrics.Gauge{
			mm.cpCompute, mm.cpStartup, mm.cpTransfer, mm.cpIdle,
			mm.cpHops, mm.cpEndProc, mm.cpWorstRatio, mm.cpFlagged,
		} {
			g.Set(0)
		}
	}
}
