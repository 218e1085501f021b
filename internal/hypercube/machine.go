// Package hypercube simulates a Boolean-cube (hypercube) distributed-
// memory multiprocessor, the machine model of the SPAA 1989 paper.
//
// A Machine with dimension d has p = 2^d processors, one goroutine
// each, connected by bidirectional links along the d cube dimensions:
// processors a and a XOR 2^i are neighbors along dimension i. All
// inter-processor data moves through these links as messages of 64-bit
// words. Each processor carries a virtual clock driven by the cost
// model in internal/costmodel: a send advances the sender's clock by
// tau + n*t_c, a receive advances the receiver's clock to at least the
// message's arrival time, and local arithmetic advances the clock by
// n*t_f. The run time of an SPMD program is the maximum clock over all
// processors when every goroutine has returned, which is how the
// Connection Machine timings of the paper are reproduced as simulated
// microseconds independent of the host.
//
// The port model follows the paper's implementation section: by
// default a processor drives one port at a time, so sends on distinct
// dimensions serialize. The all-port machine (every processor can use
// all d links concurrently) is available through the cost model for
// the A1 ablation; ExchangeAll charges the maximum rather than the sum
// of the per-dimension costs under that model.
//
// # Host parallelism
//
// The 2^d processor goroutines execute host-parallel: between
// communication points a processor's body runs freely on whatever
// host core the Go scheduler gives it, and it parks only at the
// virtual-time frontier — a Recv whose message has not been posted
// yet, or a Send against a full link buffer (run-ahead backpressure,
// see linkCap). Simulated results are bit-identical at every
// GOMAXPROCS value because nothing in the simulation depends on host
// interleaving: every directed link is a single-producer
// single-consumer FIFO (the only sender along (dst, d) is dst's
// dimension-d neighbor), receives are addressed by (link, program
// order) rather than by time, virtual arrival times travel inside the
// messages, and all remaining hot-path state (clock, counters, trace,
// span recorder, flight ring, buffer pool) is owned by exactly one
// goroutine. Cross-goroutine handoffs — payload buffers inside
// messages, per-run setup and the post-run fold — synchronize through
// the links' atomic ring counters, the work channels and rc.wg, which
// provide the happens-before edges.
//
// Each link is a lock-free single-producer single-consumer ring (see
// link.go). A processor that finds its link empty (Recv) or full
// (Send) parks on its own wake channel, and the neighbor that next
// pops or pushes that link wakes it. Aborts and the deadlock watchdog
// stay off the message path: a processor observes a sibling's failure
// or a watchdog expiry only when it is about to park, so one that
// never blocks runs its body to the end. Apart from the rings and the
// park/wake words, the only concurrency-shaped machine state is the
// host-scheduler instrumentation (SchedStats), which uses atomics on
// the park slow paths and is explicitly excluded from every
// determinism guarantee.
package hypercube

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vmprim/internal/costmodel"
	"vmprim/internal/flightrec"
	"vmprim/internal/gray"
	"vmprim/internal/obs"
)

// DefaultRecvTimeout bounds how long a processor waits for a message
// before declaring the program deadlocked. Collective protocols in
// this library complete in well under a second of host time; a stuck
// Recv means a protocol bug, and failing fast beats hanging a test
// run.
const DefaultRecvTimeout = 30 * time.Second

// defaultRecvTimeoutNs, when nonzero, overrides DefaultRecvTimeout for
// machines constructed afterwards (set from cmd/vmprim's -recv-timeout
// flag before any machine exists; atomic so tests may race it safely).
var defaultRecvTimeoutNs atomic.Int64

// SetDefaultRecvTimeout changes the deadlock-watchdog timeout applied
// to machines constructed from now on; existing machines keep theirs
// (use SetRecvTimeout for a per-machine override). d <= 0 restores
// DefaultRecvTimeout.
func SetDefaultRecvTimeout(d time.Duration) {
	if d <= 0 {
		defaultRecvTimeoutNs.Store(0)
		return
	}
	defaultRecvTimeoutNs.Store(int64(d))
}

// currentDefaultRecvTimeout resolves the timeout New applies.
func currentDefaultRecvTimeout() time.Duration {
	if ns := defaultRecvTimeoutNs.Load(); ns > 0 {
		return time.Duration(ns)
	}
	return DefaultRecvTimeout
}

// defaultFlightDepth is the per-processor flight-recorder capacity
// (events retained) unless overridden with SetFlightRecorderDepth.
const defaultFlightDepth = 32

// message is one inter-processor transfer: a payload of words, a
// protocol tag for error detection, and the virtual arrival time.
// Under critical-path recording cp carries a snapshot of the sender's
// chain-attribution vector (see critpath.go), pooled like the payload.
type message struct {
	words  []float64
	tag    int
	arrive costmodel.Time
	cp     []float64
}

// Machine is a simulated hypercube multiprocessor. Construct it with
// New, then execute SPMD programs with Run. A Machine is reusable: Run
// may be called any number of times, sequentially.
//
// The machine keeps one worker goroutine per processor alive across
// Run calls (spawned lazily on the first Run), so benchmark loops and
// multi-phase applications that Run once per step do not pay goroutine
// spawn and teardown for every call. The workers exit when Close is
// called or, failing that, when the Machine is garbage collected.
type Machine struct {
	dim    int
	p      int
	params costmodel.Params

	// links[pid*dim+d] carries messages addressed to pid along
	// dimension d.
	links []link

	recvTimeout time.Duration

	// procs are the persistent per-processor handles, reset and reused
	// by every Run.
	procs []*Proc
	eng   *engine

	mu         sync.Mutex
	elapsed    costmodel.Time
	stats      Stats
	sched      SchedStats
	clocks     []costmodel.Time
	traceLimit int
	trace      []TraceEvent

	// Host-scheduler gauges, touched only on the park slow paths:
	// parked counts processor goroutines currently blocked at the
	// virtual-time frontier, maxParked its per-run high-water mark.
	// These are the one piece of machine state written concurrently by
	// the workers; they feed SchedStats and never the simulation.
	parked    atomic.Int32
	maxParked atomic.Int32

	// Profiling state (see profile.go): profEnabled gates the span
	// machinery for the next Run, profile holds the last profiled
	// run's result. vols caches LinkVolumes' per-link word map, built
	// lazily from the always-on counters and invalidated by Run.
	profEnabled bool
	profile     *obs.Profile
	vols        map[int]map[int]int

	// stream is the live event sink armed with EnableStream (see
	// stream.go), nil when streaming is off.
	stream obs.StreamSink

	// Critical-path state (see critpath.go): critEnabled gates chain
	// recording for the next Run, crit holds the last recorded path,
	// confThreshold the conformance flagging ratio (0 means
	// obs.DefaultConformanceThreshold).
	critEnabled   bool
	crit          *obs.CritPath
	confThreshold float64

	// postmortem is the report of the most recent failed Run (see
	// postmortem.go); nil after a successful one. met is the machine's
	// metrics registry, folded from the per-processor counters once per
	// Run.
	postmortem *flightrec.Report
	met        machMetrics
}

// engine is the persistent worker pool. It is a separate object so the
// worker goroutines hold no reference to the Machine, and it carries
// the garbage-collection backstop: when the Machine becomes
// unreachable, so does the engine, whose finalizer closes stop and
// lets the workers exit. The finalizer cannot sit on the Machine
// itself: every Proc points back at its Machine, and the collector
// never finalizes an object reachable from its own referents.
type engine struct {
	work []chan *runCtx // one slot per worker, buffered 1
	stop chan struct{}
}

// runCtx carries one Run invocation to the workers, including the
// per-run configuration each worker needs to reset its own Proc
// (resetForRun executes on the worker goroutine, so the reset work
// parallelizes across host cores and every Proc field stays
// single-writer).
type runCtx struct {
	body   func(*Proc)
	procs  []*Proc
	abort  chan struct{}
	errs   chan procError
	prof   bool
	crit   bool
	stream obs.StreamSink

	wg        sync.WaitGroup
	abortOnce sync.Once
}

// linkCap returns the ring capacity of each link for a cube
// of dimension dim. The invariant that sizes it: collectives are built
// from matched exchange phases in which each directed link carries at
// most one message before the partner receives, so capacity 1 already
// guarantees deadlock freedom. Capacity above that only controls how
// far a fast processor may pipeline ahead of a slow neighbor on one
// link without parking its goroutine; a full-cube collective issues at
// most one message per link per step and has O(dim) steps, so a small
// multiple of dim absorbs a whole collective of run-ahead. Beyond the
// buffer the sender blocks, which throttles host-side pipelining but
// never affects simulated time.
func linkCap(dim int) int { return 4 * (dim + 1) }

// Stats aggregates communication and arithmetic counters over one Run.
type Stats struct {
	// Messages is the total number of link messages sent.
	Messages int64
	// Words is the total number of 64-bit words transferred over links.
	Words int64
	// Flops is the total number of local floating-point operations.
	Flops int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Messages += other.Messages
	s.Words += other.Words
	s.Flops += other.Flops
}

// SchedStats describes the host-side scheduling of one Run: how often
// processor goroutines parked at the virtual-time frontier and how
// far host parallelism was throttled. Unlike every simulated quantity
// these counters are NOT deterministic — they depend on GOMAXPROCS,
// host load and goroutine interleaving — so they are diagnostics
// only, excluded from profiles' JSON/Chrome exports and from the
// bit-identity guarantees. A high RecvParks/Messages ratio means the
// workload synchronizes at nearly every message (little run-ahead to
// overlap); SendStalls > 0 means linkCap backpressure bounded a fast
// processor's run-ahead.
type SchedStats struct {
	// RecvParks counts receives that found the link empty and parked
	// the goroutine until the message was posted (frontier waits).
	RecvParks int64
	// SendStalls counts sends that found the link buffer full and
	// parked until the receiver drained it (run-ahead backpressure).
	SendStalls int64
	// Wakeups counts parks resumed by link traffic (as opposed to
	// aborts); RecvParks + SendStalls - Wakeups parks died with the run.
	Wakeups int64
	// MaxParked is the high-water mark of concurrently parked
	// processor goroutines over the run.
	MaxParked int
}

// Add accumulates other into s.
func (s *SchedStats) Add(other SchedStats) {
	s.RecvParks += other.RecvParks
	s.SendStalls += other.SendStalls
	s.Wakeups += other.Wakeups
	if other.MaxParked > s.MaxParked {
		s.MaxParked = other.MaxParked
	}
}

// parkEnter registers a processor goroutine blocking at the frontier;
// parkExit undoes it. Both run only on the slow (already-blocking)
// paths, so the atomics never tax a run that keeps its links warm.
func (m *Machine) parkEnter() {
	n := m.parked.Add(1)
	for {
		max := m.maxParked.Load()
		if n <= max || m.maxParked.CompareAndSwap(max, n) {
			return
		}
	}
}

func (m *Machine) parkExit() { m.parked.Add(-1) }

// New returns a machine of dimension dim (2^dim processors) governed
// by the given cost parameters. It returns an error if dim is negative
// or unreasonably large, or if the parameters are invalid.
func New(dim int, params costmodel.Params) (*Machine, error) {
	if dim < 0 || dim > 20 {
		return nil, fmt.Errorf("hypercube: dimension %d out of range [0,20]", dim)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	p := 1 << dim
	m := &Machine{
		dim:         dim,
		p:           p,
		params:      params,
		links:       make([]link, p*dim),
		recvTimeout: currentDefaultRecvTimeout(),
		procs:       make([]*Proc, p),
		clocks:      make([]costmodel.Time, p),
		met:         newMachMetrics(),
	}
	for pid := 0; pid < p; pid++ {
		m.procs[pid] = &Proc{m: m, id: pid, linkWords: make([]int64, dim), pk: newParker()}
		m.procs[pid].rec.Init(defaultFlightDepth)
	}
	// One slab backs every ring. Matched exchange phases (both sides
	// send, then both receive) never block on the send; see linkCap for
	// how the capacity is derived.
	c := linkCap(dim)
	slab := make([]message, p*dim*c)
	for pid := 0; pid < p; pid++ {
		for d := 0; d < dim; d++ {
			i := pid*dim + d
			l := &m.links[i]
			l.slots = slab[i*c : (i+1)*c : (i+1)*c]
			l.rx, l.tx = m.procs[pid].pk, m.procs[pid^(1<<d)].pk
			l.rxWait, l.txWait = recvWait(d), sendWait(d)
		}
	}
	return m, nil
}

// SetFlightRecorderDepth resizes every processor's flight-recorder
// ring to hold k events (rounded up to a power of two; k <= 0 disables
// recording). It must be called between runs, not during one.
func (m *Machine) SetFlightRecorderDepth(k int) {
	for _, pr := range m.procs {
		pr.rec.Init(k)
	}
}

// MustNew is New for callers with static arguments; it panics on error.
func MustNew(dim int, params costmodel.Params) *Machine {
	m, err := New(dim, params)
	if err != nil {
		panic(err)
	}
	return m
}

// Dim returns the cube dimension d.
func (m *Machine) Dim() int { return m.dim }

// P returns the number of processors, 2^d.
func (m *Machine) P() int { return m.p }

// Params returns the machine's cost parameters.
func (m *Machine) Params() costmodel.Params { return m.params }

// SetRecvTimeout overrides the deadlock-detection timeout. It must be
// called between runs, not during one.
func (m *Machine) SetRecvTimeout(d time.Duration) { m.recvTimeout = d }

// RecvTimeout reports the machine's current deadlock-detection
// timeout.
func (m *Machine) RecvTimeout() time.Duration { return m.recvTimeout }

// Elapsed returns the simulated time of the most recent Run: the
// maximum virtual clock over all processors.
func (m *Machine) Elapsed() costmodel.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.elapsed
}

// LastStats returns the communication/arithmetic counters of the most
// recent Run.
func (m *Machine) LastStats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// SchedStats returns the host-scheduler instrumentation of the most
// recent Run: frontier parks, backpressure stalls, wakeups and the
// parked-goroutine high-water mark. These describe the host
// execution, vary with GOMAXPROCS, and are NOT covered by the
// simulator's determinism guarantees.
func (m *Machine) SchedStats() SchedStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sched
}

// Clocks returns every processor's final virtual clock from the most
// recent Run, indexed by processor address. The spread between the
// minimum and maximum is the run's load imbalance.
func (m *Machine) Clocks() []costmodel.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]costmodel.Time, len(m.clocks))
	copy(out, m.clocks)
	return out
}

// procError carries a panic out of a processor goroutine.
type procError struct {
	pid int
	val any
}

// Run executes body as an SPMD program: one invocation per processor,
// concurrently, each receiving its own *Proc. Run returns the
// simulated elapsed time (maximum clock over processors) and the first
// error; a panic in any processor aborts the run and is reported as an
// error with the processor id. Run drains all links afterwards so the
// machine is clean for the next program.
func (m *Machine) Run(body func(*Proc)) (costmodel.Time, error) {
	m.ensureEngine()
	rc := &runCtx{
		body:  body,
		procs: m.procs,
		abort: make(chan struct{}),
		errs:  make(chan procError, m.p),
	}
	rc.prof = m.profEnabled
	rc.crit = m.critEnabled
	rc.stream = m.stream
	rc.wg.Add(m.p)
	for pid := 0; pid < m.p; pid++ {
		// The per-run Proc reset happens on the worker goroutine
		// (resetForRun, called from runBody): the O(p*dim) reset work
		// parallelizes across host cores, and every Proc field is
		// written only by its owning goroutine. From here until
		// rc.wg.Wait returns, this goroutine must not touch any Proc.
		m.eng.work[pid] <- rc
	}
	rc.wg.Wait()
	close(rc.errs)

	var firstErr error
	failedPid := -1
	perrs := make([]procError, 0)
	for pe := range rc.errs {
		perrs = append(perrs, pe)
	}
	sort.Slice(perrs, func(i, j int) bool { return perrs[i].pid < perrs[j].pid })
	for _, pe := range perrs {
		if _, aborted := pe.val.(abortedError); aborted {
			continue // secondary casualty of the first panic
		}
		firstErr = fmt.Errorf("hypercube: processor %d: %v", pe.pid, pe.val)
		failedPid = pe.pid
		break
	}
	if firstErr == nil && len(perrs) > 0 {
		firstErr = fmt.Errorf("hypercube: processor %d aborted", perrs[0].pid)
		failedPid = perrs[0].pid
	}

	var elapsed costmodel.Time
	var st Stats
	var sch SchedStats
	for _, pr := range m.procs {
		sch.RecvParks += pr.nRecvParks
		sch.SendStalls += pr.nSendStalls
		sch.Wakeups += pr.nWakeups
	}
	sch.MaxParked = int(m.maxParked.Load())
	m.parked.Store(0)
	m.maxParked.Store(0)
	m.mu.Lock()
	for i, pr := range m.procs {
		m.clocks[i] = pr.clock
		if pr.clock > elapsed {
			elapsed = pr.clock
		}
		st.Messages += pr.nMsgs
		st.Words += pr.nWords
		st.Flops += pr.nFlops
	}
	m.elapsed = elapsed
	m.stats = st
	m.sched = sch
	m.vols = nil // link counters changed; LinkVolumes rebuilds lazily
	m.mu.Unlock()
	m.collectTrace(m.procs)
	if rc.stream != nil {
		m.emitRunSummary(rc.stream, float64(elapsed))
	}

	// The critical path is built on success and on failure alike: a
	// failed run's chain up to the death rides along in the
	// post-mortem.
	var crit *obs.CritPath
	if m.critEnabled {
		crit = m.buildCritPath(elapsed)
	}
	var prof *obs.Profile
	if m.profEnabled && firstErr == nil {
		prof = m.buildProfile()
		prof.Crit = crit
	}

	// On failure, assemble the post-mortem while the links still hold
	// their undelivered messages (buildPostMortem census-drains them);
	// the report rides along on the returned error.
	var pm *flightrec.Report
	if firstErr != nil {
		pm = m.buildPostMortem(firstErr.Error(), failedPid)
		pm.Crit = crit
		firstErr = &RunError{Err: firstErr, Report: pm}
	}
	m.mu.Lock()
	m.profile = prof
	m.postmortem = pm
	m.crit = crit
	m.mu.Unlock()

	m.updateMetrics(elapsed, sch, firstErr != nil, crit)
	m.drain()
	return elapsed, firstErr
}

// ensureEngine lazily starts the persistent worker pool and arms the
// garbage-collection backstop that shuts it down.
func (m *Machine) ensureEngine() {
	if m.eng != nil {
		return
	}
	eng := &engine{
		work: make([]chan *runCtx, m.p),
		stop: make(chan struct{}),
	}
	for pid := 0; pid < m.p; pid++ {
		eng.work[pid] = make(chan *runCtx, 1)
		go worker(pid, eng.work[pid], eng.stop)
	}
	m.eng = eng
	runtime.SetFinalizer(eng, (*engine).shutdown)
}

// shutdown stops the worker goroutines.
func (e *engine) shutdown() { close(e.stop) }

// worker is the persistent goroutine of one processor. It deliberately
// closes over only its channels, never the Machine (see engine).
func worker(pid int, work chan *runCtx, stop chan struct{}) {
	for {
		select {
		case rc := <-work:
			runBody(pid, rc)
		case <-stop:
			return
		}
	}
}

// runBody executes one processor's share of a Run with the same panic
// containment the seed's per-run goroutines had. The first panic
// closes abort and drops a wake token on every processor, so each
// parked sibling wakes, sees the closed channel and unwinds too.
func runBody(pid int, rc *runCtx) {
	pr := rc.procs[pid]
	defer rc.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			rc.errs <- procError{pid: pid, val: r}
			rc.abortOnce.Do(func() {
				close(rc.abort)
				for _, q := range rc.procs {
					q.pk.wakeUp()
				}
			})
		}
	}()
	pr.resetForRun(rc)
	rc.body(pr)
	pr.checkSpansClosed()
}

// resetForRun clears the processor's per-run state. It runs on the
// processor's own worker goroutine, never the Run caller's, so every
// hot-path Proc field keeps a single writer; the work-channel handoff
// orders it after Run's bookkeeping and before the SPMD body, and
// rc.wg orders the previous run's reads before it.
func (p *Proc) resetForRun(rc *runCtx) {
	p.clock = 0
	p.nMsgs, p.nWords, p.nFlops = 0, 0, 0
	p.tComp, p.tStart, p.tXfer = 0, 0, 0
	for d := range p.linkWords {
		p.linkWords[d] = 0
	}
	// Chain recording attributes the path to spans, so it activates
	// the span machinery even when no Profile will be built.
	p.prof = rc.prof || rc.crit
	if p.prof || len(p.ps.nodes) > 0 {
		p.ps.reset()
	}
	p.stream = nil
	if rc.stream != nil && p.prof && p.id == 0 {
		p.stream = rc.stream
	}
	p.streamClosed = 0
	p.crit = rc.crit
	if p.crit {
		p.cpReset()
	} else if len(p.cp) > 0 {
		p.cp = p.cp[:0]
	}
	p.nColl, p.nArms, p.nRearms = 0, 0, 0
	p.nRecvParks, p.nSendStalls, p.nWakeups = 0, 0, 0
	p.pool.gets, p.pool.hits = 0, 0
	p.msgHist = [msgHistBins]int64{}
	p.rec.Reset()
	p.waitKind = flightrec.WaitNone
	for i := range p.captured {
		p.captured[i] = nil
	}
	p.captured = p.captured[:0]
	p.abort = rc.abort
	p.trace = p.trace[:0]
	p.disarmWatchdog()
}

// Close shuts down the persistent worker goroutines. It is optional —
// an unreachable Machine is cleaned up by the garbage collector — and
// idempotent, but Run must not be called after Close.
func (m *Machine) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.eng != nil {
		runtime.SetFinalizer(m.eng, nil)
		m.eng.shutdown()
		m.eng = nil
	}
	for _, pr := range m.procs {
		pr.disarmWatchdog()
	}
}

// drain empties every link ring (messages left behind by an aborted
// or buggy program). The run has quiesced, so any goroutine may pop.
func (m *Machine) drain() {
	var msg message
	for i := range m.links {
		for m.links[i].tryPop(&msg) {
		}
	}
}

// linksEmpty reports whether every link ring is empty; tests use it to
// assert that drain left the machine clean.
func (m *Machine) linksEmpty() bool {
	for i := range m.links {
		if m.links[i].canPop() {
			return false
		}
	}
	return true
}

// abortedError is the panic value used when a processor is cancelled
// because a sibling failed first.
type abortedError struct{}

func (abortedError) Error() string { return "aborted by sibling failure" }

// Proc is one simulated processor's handle, valid only inside the body
// passed to Run and only on that processor's goroutine. Procs are
// persistent: the machine reuses them (and their buffer pools) across
// runs.
type Proc struct {
	m     *Machine
	id    int
	clock costmodel.Time
	abort chan struct{}

	nMsgs  int64
	nWords int64
	nFlops int64
	trace  []TraceEvent

	// Always-on attribution counters: the clock split into compute /
	// start-up / transfer (idle is derived as clock minus their sum),
	// and the words posted per outgoing link. A few adds per
	// operation; never allocated on the hot path.
	tComp, tStart, tXfer costmodel.Time
	linkWords            []int64

	// Span recorder, active only when the machine's EnableProfile is
	// set (see profile.go).
	prof bool
	ps   profState

	// Live event sink (see stream.go), non-nil only on processor 0 of
	// a streamed profiled run; streamClosed counts closed spans for
	// the periodic progress events.
	stream       obs.StreamSink
	streamClosed int64

	// Critical-path chain state, active only under EnableCritPath:
	// crit gates the hot-path hooks, cp is the encoded
	// chain-attribution vector (see critpath.go).
	crit bool
	cp   []float64

	pool bufPool

	// Flight recorder and post-mortem state (see postmortem.go). rec is
	// the bounded event ring; the wait registers say what the processor
	// is blocked on right now (written by this goroutine on the slow
	// paths, read by the machine only after the run has ended); captured
	// holds payloads handed over with Capture. All feed the post-mortem
	// report of a failed run.
	rec       flightrec.Ring
	waitKind  flightrec.WaitKind
	waitDim   int
	waitTag   int
	waitSince costmodel.Time
	captured  [][]float64

	// Per-run metric counters, folded into the machine's registry once
	// per Run: collective entries, watchdog arms/re-arms, and the
	// message-size histogram bins (bounds in msgWordBounds).
	nColl   int64
	nArms   int64
	nRearms int64
	msgHist [msgHistBins]int64

	// Host-scheduler counters (see SchedStats): parks taken at the
	// virtual-time frontier and their resumptions. Bumped only on the
	// blocking slow paths; host-nondeterministic by nature.
	nRecvParks  int64
	nSendStalls int64
	nWakeups    int64

	// pk is this processor's park/wake handle (see link.go).
	pk *parker

	// Deadlock watchdog state (see watch). The timer is armed at most
	// once per timeout window (not per blocking Recv): recvSeq counts
	// delivered messages and wdSeq records its value at arming, so a
	// fire with progress in between just re-arms. Busy steady-state
	// runs touch the timer heap only once per window. wdGen counts the
	// armings whose fire has happened or is still due; pk.fires
	// reaching it means the current arming expired.
	wdTimer *time.Timer
	wdArmed bool
	wdGen   uint64
	recvSeq uint64
	wdSeq   uint64
}

// GetBuf returns a scratch buffer of length n from this processor's
// pool, with arbitrary contents: the caller must fully overwrite it
// before reading. Pair with Recycle for allocation-free steady state.
func (p *Proc) GetBuf(n int) []float64 { return p.pool.get(n) }

// Recycle returns a buffer to this processor's pool. The caller must
// own buf and must not touch it afterwards; recycling a payload that is
// still referenced elsewhere (still in flight, or retained by another
// holder) corrupts later messages. Collectives recycle the payloads
// they consume; payloads returned to application code are the
// application's to keep or recycle.
func (p *Proc) Recycle(buf []float64) { p.pool.put(buf) }

// ID returns this processor's cube address in [0, P).
func (p *Proc) ID() int { return p.id }

// Dim returns the cube dimension.
func (p *Proc) Dim() int { return p.m.dim }

// P returns the number of processors.
func (p *Proc) P() int { return p.m.p }

// Params returns the machine cost parameters.
func (p *Proc) Params() costmodel.Params { return p.m.params }

// Clock returns this processor's current virtual time.
func (p *Proc) Clock() costmodel.Time { return p.clock }

// AdvanceTo moves the virtual clock forward to at least t. It never
// moves the clock backwards. Under critical-path recording the
// advance counts as idle time on the chain (Recv accounts its own
// advances causally and does not go through here).
func (p *Proc) AdvanceTo(t costmodel.Time) {
	if t > p.clock {
		if p.crit {
			p.cpIdle(p.clock, t)
		}
		p.clock = t
	}
}

// Neighbor returns the cube address of the neighbor along dimension d.
func (p *Proc) Neighbor(d int) int {
	p.checkDim(d)
	return p.id ^ (1 << d)
}

// Compute charges flops local floating-point operations to the clock.
func (p *Proc) Compute(flops int) {
	if flops < 0 {
		panic("hypercube: negative flop count")
	}
	p.nFlops += int64(flops)
	c := p.m.params.FlopCost(flops)
	p.clock += c
	p.tComp += c
	if p.crit {
		p.cpCompute(c)
	}
}

// Send transmits words to the neighbor along dimension d with the
// given protocol tag. The payload is copied, so the caller may reuse
// the slice. The sender's clock advances by the send cost and the
// message arrives at that time.
func (p *Proc) Send(d, tag int, words []float64) {
	p.chargeSend(d, len(words))
	p.post(d, tag, words, p.clock)
}

// chargeSend advances the clock by the cost of sending n words along
// dimension d.
func (p *Proc) chargeSend(d, n int) {
	p.checkDim(d)
	p.clock += p.m.params.SendCost(n)
	p.tStart += p.m.params.CommStartup
	p.tXfer += costmodel.Time(n) * p.m.params.CommPerWord
	if p.crit {
		p.cpChargeSend(d, n)
	}
}

// post enqueues a copy of words on the neighbor's inbound link with
// the given arrival time. The copy comes from the sender's buffer pool
// and is recycled into the receiver's pool once the receiver consumes
// it.
func (p *Proc) post(d, tag int, words []float64, arrive costmodel.Time) {
	cp := p.pool.get(len(words))
	copy(cp, words)
	p.enqueue(d, tag, cp, arrive)
}

// enqueue puts words itself on the neighbor's inbound link with the
// given arrival time; the receiver owns it from then on.
func (p *Proc) enqueue(d, tag int, words []float64, arrive costmodel.Time) {
	p.nMsgs++
	p.nWords += int64(len(words))
	p.linkWords[d] += int64(len(words))
	dst := p.id ^ (1 << d)
	if lim := p.m.traceLimit; lim > 0 && len(p.trace) < lim {
		p.trace = append(p.trace, TraceEvent{
			Time: arrive, Src: p.id, Dst: dst, Dim: d, Words: len(words), Tag: tag,
		})
	}
	p.msgHist[msgBin(len(words))]++
	p.record(flightrec.KindSend, "", d, tag, len(words), arrive)
	msg := message{words: words, tag: tag, arrive: arrive}
	if p.crit {
		msg.cp = p.cpSnapshot()
	}
	l := &p.m.links[dst*p.m.dim+d]
	if !l.tryPush(&msg) {
		// Ring full: run-ahead backpressure. Note the blocked send in
		// the wait registers so a post-mortem can name it, count the
		// stall for SchedStats, then park until the receiver pops.
		p.waitKind = flightrec.WaitSend
		p.waitDim, p.waitTag = d, tag
		p.waitSince = arrive
		p.nSendStalls++
		p.park(l, false, d, tag)
		l.tryPush(&msg) // cannot fail: only this goroutine pushes
	}
}

// record appends one event to this processor's flight recorder,
// stamping the current open profiler span (if any). One struct store
// per call; labels must be static strings so recording never
// allocates.
func (p *Proc) record(kind flightrec.Kind, label string, dim, tag, words int, vt costmodel.Time) {
	span := -1
	depth := len(p.ps.stack)
	if depth > 0 {
		span = p.ps.stack[depth-1].node
	}
	p.rec.Record(flightrec.Event{
		VT: vt, Kind: kind, Label: label,
		Dim: dim, Tag: tag, Words: words,
		Span: span, Depth: depth,
	})
}

// NoteCollective records the entry into a named collective protocol
// (or router phase) on this processor's flight recorder and counts it
// toward the machine's collective-invocation metric. mask is the
// subcube dimension mask and tag the protocol tag; name must be a
// static string so recording never allocates.
func (p *Proc) NoteCollective(name string, mask, tag int) {
	p.nColl++
	p.record(flightrec.KindCollective, name, mask, tag, 0, p.clock)
}

// maxCaptured bounds the payloads the recorder retains per processor.
const maxCaptured = 4

// Capture hands buf to the flight recorder for post-mortem inspection:
// ownership transfers to the recorder, so the caller must not use or
// Recycle buf afterwards. The recorder keeps the newest maxCaptured
// payloads; they appear in the post-mortem report of a failed run and
// are dropped at the next Run. Recv uses it to preserve the offending
// payload of a tag mismatch; application code may capture its own
// evidence before panicking.
func (p *Proc) Capture(buf []float64) {
	if len(p.captured) < maxCaptured {
		p.captured = append(p.captured, buf)
	} else {
		copy(p.captured, p.captured[1:])
		p.captured[maxCaptured-1] = buf
	}
	p.record(flightrec.KindCapture, "", -1, 0, len(buf), p.clock)
}

// Recv receives the next message on dimension d, checks that its tag
// matches wantTag (a mismatch is a protocol bug and panics), advances
// the clock to the arrival time, and returns the payload. The returned
// slice is owned by the caller.
func (p *Proc) Recv(d, wantTag int) []float64 {
	p.checkDim(d)
	var msg message
	l := &p.m.links[p.id*p.m.dim+d]
	if !l.tryPop(&msg) {
		// Slow path: park under the deadlock watchdog. The wait
		// registers make the blocked state visible to the post-mortem
		// assembler.
		p.waitKind = flightrec.WaitRecv
		p.waitDim, p.waitTag = d, wantTag
		p.waitSince = p.clock
		p.nRecvParks++
		p.park(l, true, d, wantTag)
		l.tryPop(&msg) // cannot fail: only this goroutine pops
	}
	p.recvSeq++
	if msg.tag != wantTag {
		// Preserve the offending payload for the post-mortem before
		// dying: the report shows its length and leading words.
		p.Capture(msg.words)
		panic(fmt.Sprintf("tag mismatch on dim %d: got %d, want %d", d, msg.tag, wantTag))
	}
	if p.crit {
		p.cpRecv(&msg, d)
	}
	if msg.arrive > p.clock {
		p.clock = msg.arrive
	}
	p.record(flightrec.KindRecv, "", d, wantTag, len(msg.words), p.clock)
	return msg.words
}

// park blocks until l is ready for this processor: a message to pop
// when recv, room to push otherwise. Each pass publishes the wait
// code, re-checks the ring (a partner that pushed or popped before
// seeing the code would not wake us), then looks at the two conditions
// that end a wait without link traffic — a sibling's failure (a
// non-blocking receive on an open channel takes no lock) and, for
// receives, the deadlock watchdog — and only then sleeps.
func (p *Proc) park(l *link, recv bool, d, tag int) {
	k, code := p.pk, l.txWait
	if recv {
		code = l.rxWait
	}
	p.m.parkEnter()
	for {
		k.state.Store(code)
		if recv && l.canPop() || !recv && l.canPush() {
			break
		}
		select {
		case <-p.abort:
			k.state.Store(0)
			p.m.parkExit()
			panic(abortedError{})
		default:
		}
		if recv && p.watch() {
			k.state.Store(0)
			p.m.parkExit()
			panic(fmt.Sprintf("recv timeout on dim %d (tag %d): deadlock", d, tag))
		}
		<-k.wake
	}
	k.state.Store(0)
	p.m.parkExit()
	p.nWakeups++
	p.waitKind = flightrec.WaitNone
}

// watch runs the deadlock watchdog from a parked receive and reports
// whether the program is deadlocked: the armed window expired without
// a single message delivered to this processor. A window that expired
// after progress re-arms, so a genuine deadlock is reported within two
// timeout windows, while the steady state pays no per-Recv timer
// traffic: the timer stays armed across successful receives.
//
// The timer is a time.AfterFunc that bumps pk.fires and drops a wake
// token; it captures only the parker, never the Proc or the Machine,
// so an armed timer cannot keep a finished or dropped Machine alive.
// A fire left over from an earlier arming — one that was already
// running when disarmWatchdog's Stop came too late — must not read as
// the current window's: wdGen counts every arming that has fired or
// still will, fires can never exceed it, and fires == wdGen holds only
// once all of them, the current one included, have fired.
func (p *Proc) watch() bool {
	if p.wdArmed && p.pk.fires.Load() == p.wdGen {
		p.wdArmed = false
		if p.recvSeq == p.wdSeq {
			return true
		}
		p.nRearms++
	}
	if !p.wdArmed {
		if p.wdTimer == nil {
			p.wdTimer = time.AfterFunc(p.m.recvTimeout, p.pk.fire)
		} else {
			p.wdTimer.Reset(p.m.recvTimeout)
		}
		p.wdGen++
		p.wdArmed = true
		p.wdSeq = p.recvSeq
		p.nArms++
	}
	return false
}

// disarmWatchdog stops an armed watchdog. The next run does it first
// thing, so a timeout changed via SetRecvTimeout takes effect at the
// next arming, and Close does it so a closed Machine leaves no timer
// queued. Between runs the timer stays armed on purpose: on a 2-vCPU
// host, stopping it at the end of every body instead measured
// ReduceRows (d=6, n=1024, back-to-back runs) at a 1.02–1.10 ms median
// against 0.85–0.91 ms, and about as slow with no timer at all. A
// Stop that comes too late leaves its fire counted in wdGen.
func (p *Proc) disarmWatchdog() {
	if p.wdArmed {
		if p.wdTimer.Stop() {
			p.wdGen--
		}
		p.wdArmed = false
	}
}

// Exchange performs the paired send/receive with the neighbor along
// dimension d that underlies every recursive-halving and -doubling
// collective: both sides send words, both receive the partner's words.
func (p *Proc) Exchange(d, tag int, words []float64) []float64 {
	p.Send(d, tag, words)
	return p.Recv(d, tag)
}

// ExchangeOwned is Exchange for a payload the caller gives up: words
// itself travels to the neighbor instead of a copy from the sender's
// pool, and the caller must not touch it afterwards. Simulated costs,
// statistics and recorder events are Exchange's. The router hands over
// its per-phase wires this way, so no router buffer passes through a
// pool and each routed word is copied once per hop instead of twice.
func (p *Proc) ExchangeOwned(d, tag int, words []float64) []float64 {
	p.chargeSend(d, len(words))
	p.enqueue(d, tag, words, p.clock)
	return p.Recv(d, tag)
}

// ExchangeAll performs one exchange phase on several distinct
// dimensions at once: payloads[i] goes to the neighbor along dims[i],
// and the returned slice holds the corresponding received payloads.
// Under the one-port model the sends serialize (costs add); under the
// all-port model (Params.AllPorts) the phase is charged the maximum
// single-dimension cost, which is ablation A1's machine.
func (p *Proc) ExchangeAll(dims []int, tag int, payloads [][]float64) [][]float64 {
	if len(dims) != len(payloads) {
		panic("hypercube: ExchangeAll dims/payloads length mismatch")
	}
	seen := 0
	for _, d := range dims {
		p.checkDim(d)
		bit := 1 << d
		if seen&bit != 0 {
			panic(fmt.Sprintf("hypercube: ExchangeAll duplicate dimension %d", d))
		}
		seen |= bit
	}
	start := p.clock
	if p.m.params.AllPorts {
		// Under chain recording every posted message must carry the
		// chain as of the phase start plus its own send charge (the
		// ports run concurrently, so the per-message chains branch from
		// the same snapshot rather than accumulating).
		var pre []float64
		if p.crit {
			pre = p.cpSnapshot()
		}
		var maxCost costmodel.Time
		maxWords, maxDim := 0, -1
		for i, d := range dims {
			c := p.m.params.SendCost(len(payloads[i]))
			if c > maxCost {
				maxCost = c
			}
			if maxDim < 0 || len(payloads[i]) > maxWords {
				maxWords, maxDim = len(payloads[i]), d
			}
			p.clock = start + c
			if p.crit {
				p.cpRestore(pre)
				p.cpChargeSend(d, len(payloads[i]))
			}
			p.post(d, tag, payloads[i], p.clock)
		}
		p.clock = start + maxCost
		// The phase charges the largest single send; attribute one
		// start-up and the largest payload's transfer time.
		if len(dims) > 0 {
			p.tStart += p.m.params.CommStartup
			p.tXfer += costmodel.Time(maxWords) * p.m.params.CommPerWord
			if p.crit {
				p.cpRestore(pre)
				p.cpChargeSend(maxDim, maxWords)
			}
		}
		if pre != nil {
			p.pool.put(pre)
		}
	} else {
		for i, d := range dims {
			p.Send(d, tag, payloads[i])
		}
	}
	out := make([][]float64, len(dims))
	for i, d := range dims {
		out[i] = p.Recv(d, tag)
	}
	return out
}

// Barrier synchronizes all processors in the subcube spanned by the
// dimension mask (use FullMask for the whole machine) and equalizes
// their virtual clocks to the maximum participant clock plus the
// synchronization cost. It is implemented as a zero-payload dimension
// exchange, which is also how a real cube synchronizes.
func (p *Proc) Barrier(mask, tag int) {
	for _, d := range gray.Dims(mask) {
		p.Exchange(d, tag, nil)
	}
}

// FullMask returns the dimension mask covering the whole cube.
func (p *Proc) FullMask() int { return (1 << p.m.dim) - 1 }

// RouteCharge charges the clock for forwarding n words one hop through
// the general router. The router package uses it so that routed and
// structured traffic share one clock.
func (p *Proc) RouteCharge(n int) {
	p.clock += p.m.params.RouteHopCost(n)
	p.tStart += p.m.params.RouteStartup
	p.tXfer += costmodel.Time(n) * p.m.params.RoutePerWord
	if p.crit {
		p.cpRoute(p.m.params.RouteStartup, costmodel.Time(n)*p.m.params.RoutePerWord)
	}
}

// RoutePhaseCharge charges the clock for one dimension-ordered routing
// phase in which this processor forwards msgs messages totalling n
// words: router start-up, per-word transfer, and per-message handling
// overhead (the cost of not combining messages).
func (p *Proc) RoutePhaseCharge(msgs, n int) {
	p.clock += p.m.params.RoutePhaseCost(msgs, n)
	p.tStart += p.m.params.RouteStartup + costmodel.Time(msgs)*p.m.params.RoutePerMsg
	p.tXfer += costmodel.Time(n) * p.m.params.RoutePerWord
	if p.crit {
		p.cpRoute(p.m.params.RouteStartup+costmodel.Time(msgs)*p.m.params.RoutePerMsg,
			costmodel.Time(n)*p.m.params.RoutePerWord)
	}
}

func (p *Proc) checkDim(d int) {
	if d < 0 || d >= p.m.dim {
		panic(fmt.Sprintf("hypercube: dimension %d out of range [0,%d)", d, p.m.dim))
	}
}
