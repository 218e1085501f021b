// Package hypercube simulates a Boolean-cube (hypercube) distributed-
// memory multiprocessor, the machine model of the SPAA 1989 paper.
//
// A Machine with dimension d has p = 2^d processors, each a coroutine
// (see Host parallelism below), connected by bidirectional links along
// the d cube dimensions: processors a and a XOR 2^i are neighbors
// along dimension i. All
// inter-processor data moves through these links as messages of 64-bit
// words. Each processor carries a virtual clock driven by the cost
// model in internal/costmodel: a send advances the sender's clock by
// tau + n*t_c, a receive advances the receiver's clock to at least the
// message's arrival time, and local arithmetic advances the clock by
// n*t_f. The run time of an SPMD program is the maximum clock over all
// processors when every processor body has returned, which is how the
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
// The 2^d processors run as persistent coroutines on W worker
// goroutines, W the largest power of two no larger than GOMAXPROCS or
// p — the CM-2's virtual-processor mechanism, many virtual processors
// serialized on one physical one, applied to the simulator's own
// processors (see engine.go). Each worker owns a subcube and runs one
// of its processors at a time; between communication points a
// processor's body runs freely, and it yields to its worker only at
// the virtual-time frontier — a Recv whose message has not been
// posted yet, or a Send against a full link buffer (run-ahead
// backpressure, see linkCap). Simulated results are bit-identical at
// every GOMAXPROCS value because nothing in the simulation depends on
// host interleaving: every directed link is a single-producer
// single-consumer FIFO (the only sender along (dst, d) is dst's
// dimension-d neighbor), receives are addressed by (link, program
// order) rather than by time, virtual arrival times travel inside the
// messages, and all remaining hot-path state (clock, counters, trace,
// span recorder, flight ring, buffer pool) is owned by exactly one
// processor. Links inside a worker's subcube are plain FIFOs; links
// between workers are lock-free rings (see link.go), whose atomic
// counters, together with the workers' inboxes, the work channels and
// rc.wg, provide the happens-before edges of every cross-worker
// handoff.
//
// Aborts and deadlock detection stay off the message path. A processor
// observes a sibling's failure only when it is about to block, so one
// that never blocks runs its body to the end. A deadlock is detected
// exactly, the moment every worker is asleep or finished with some
// processor still parked, and every parked processor then unwinds with
// a panic naming its wait. Apart from the rings and the wake words,
// the only concurrency-shaped machine state is the host-scheduler
// instrumentation (SchedStats), kept per worker and explicitly
// excluded from every determinism guarantee.
package hypercube

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"vmprim/internal/costmodel"
	"vmprim/internal/flightrec"
	"vmprim/internal/gray"
	"vmprim/internal/obs"
)

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
// The machine keeps its workers and one coroutine per processor alive
// across Run calls (started lazily on the first Run, and again when
// GOMAXPROCS changes the worker count), so benchmark loops and
// multi-phase applications that Run once per step do not pay for
// starting them on every call. The workers exit when Close is called
// or, failing that, when the Machine is garbage collected.
type Machine struct {
	dim    int
	p      int
	params costmodel.Params

	// links[pid*dim+d] carries messages addressed to pid along
	// dimension d.
	links []link

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

// linkCap returns the capacity of each link for a cube of dimension
// dim. The invariant that sizes it: collectives are built
// from matched exchange phases in which each directed link carries at
// most one message before the partner receives, so capacity 1 already
// guarantees deadlock freedom. Capacity above that only controls how
// far a fast processor may pipeline ahead of a slow neighbor on one
// link without parking; a full-cube collective issues at most one
// message per link per step and has O(dim) steps, so a small
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
// processors parked at the virtual-time frontier and how far host
// parallelism was throttled. Unlike every simulated quantity these
// counters are NOT deterministic — they depend on GOMAXPROCS, host
// load and worker interleaving — so they are diagnostics
// only, excluded from profiles' JSON/Chrome exports and from the
// bit-identity guarantees. A high RecvParks/Messages ratio means the
// workload synchronizes at nearly every message (little run-ahead to
// overlap); SendStalls > 0 means linkCap backpressure bounded a fast
// processor's run-ahead.
type SchedStats struct {
	// RecvParks counts receives that found the link empty and parked
	// the processor until the message was posted (frontier waits).
	RecvParks int64
	// SendStalls counts sends that found the link buffer full and
	// parked until the receiver drained it (run-ahead backpressure).
	SendStalls int64
	// Wakeups counts parks resumed by link traffic (as opposed to
	// aborts); RecvParks + SendStalls - Wakeups parks died with the run.
	Wakeups int64
	// MaxParked sums, over the engine's workers, each worker's
	// high-water mark of its processors parked at once during the run.
	// With one worker that is the machine-wide high-water mark; with
	// several it bounds it from above, since the workers' peaks need
	// not coincide.
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
		dim:    dim,
		p:      p,
		params: params,
		links:  make([]link, p*dim),
		procs:  make([]*Proc, p),
		clocks: make([]costmodel.Time, p),
		met:    newMachMetrics(),
	}
	for pid := 0; pid < p; pid++ {
		m.procs[pid] = &Proc{m: m, id: pid, linkWords: make([]int64, dim), co: &coro{}}
		m.procs[pid].rec.Init(defaultFlightDepth)
	}
	// One slab backs every link. Matched exchange phases (both sides
	// send, then both receive) never block on the send; see linkCap for
	// how the capacity is derived. Links start as plain FIFOs; the
	// engine turns those between its workers into rings.
	c := linkCap(dim)
	slab := make([]message, p*dim*c)
	for pid := 0; pid < p; pid++ {
		for d := 0; d < dim; d++ {
			i := pid*dim + d
			l := &m.links[i]
			l.slots = slab[i*c : (i+1)*c : (i+1)*c]
			l.rx, l.tx = m.procs[pid].co, m.procs[pid^(1<<d)].co
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
// parked-processor high-water marks. These describe the host
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

// procError carries a panic out of a processor coroutine.
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
	eng := m.ensureEngine()
	rc := &runCtx{
		body:    body,
		procs:   m.procs,
		workers: eng.workers,
		errs:    make(chan procError, m.p),
		prof:    m.profEnabled,
		crit:    m.critEnabled,
		stream:  m.stream,
	}
	rc.wg.Add(len(eng.workers))
	for _, w := range eng.workers {
		// The per-run Proc reset happens in each processor's coroutine
		// (resetForRun, called from runOnce): the O(p*dim) reset work
		// parallelizes across the workers, and every Proc field is
		// written only by its owning processor. From here until
		// rc.wg.Wait returns, this goroutine must not touch any Proc.
		w.work <- rc
	}
	rc.wg.Wait()
	close(rc.errs)
	// Clear the wait words a run that unwound may leave behind, so the
	// post-run census and drain pop links without waking anyone.
	for _, pr := range m.procs {
		pr.co.wait = 0
		pr.co.state.Store(0)
	}

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
	for _, w := range eng.workers {
		sch.RecvParks += w.nRecvParks
		sch.SendStalls += w.nSendStalls
		sch.Wakeups += w.nWakeups
		sch.MaxParked += w.maxParked
	}
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

// ensureEngine returns the engine for the current GOMAXPROCS,
// starting it on the first Run and replacing it when the worker count
// has changed since the last one. Between runs the links are empty, so
// the new engine may re-partition them.
func (m *Machine) ensureEngine() *engine {
	nw := workerCount(m.p)
	if m.eng != nil && len(m.eng.workers) != nw {
		m.stopEngine()
	}
	if m.eng == nil {
		m.eng = m.newEngine(nw)
	}
	return m.eng
}

// stopEngine shuts the workers down and waits until they and their
// coroutines have exited.
func (m *Machine) stopEngine() {
	runtime.SetFinalizer(m.eng, nil)
	m.eng.shutdown()
	m.eng.exited.Wait()
	m.eng = nil
}

// resetForRun clears the processor's per-run state. It runs in the
// processor's own coroutine, never on the Run caller's goroutine, so
// every hot-path Proc field keeps a single writer; the work-channel
// handoff orders it after Run's bookkeeping and before the SPMD body,
// and rc.wg orders the previous run's reads before it.
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
	p.nColl = 0
	p.pool.gets, p.pool.hits = 0, 0
	p.msgHist = [msgHistBins]int64{}
	p.rec.Reset()
	p.waitKind = flightrec.WaitNone
	for i := range p.captured {
		p.captured[i] = nil
	}
	p.captured = p.captured[:0]
	p.trace = p.trace[:0]
}

// Close shuts down the persistent workers and returns once they have
// exited. It is optional — an unreachable Machine is cleaned up by the
// garbage collector — and idempotent, but Run must not be called after
// Close.
func (m *Machine) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.eng != nil {
		m.stopEngine()
	}
}

// drain empties every link (messages left behind by an aborted or
// buggy program). The run has quiesced, so any goroutine may pop.
func (m *Machine) drain() {
	var msg message
	for i := range m.links {
		for m.links[i].tryPop(&msg) {
		}
	}
}

// linksEmpty reports whether every link is empty; tests use it to
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
// passed to Run and only in that processor's coroutine. Procs are
// persistent: the machine reuses them (and their buffer pools) across
// runs.
type Proc struct {
	m     *Machine
	id    int
	clock costmodel.Time

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
	// is blocked on right now (written by this processor on the slow
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
	// per Run: collective entries and the message-size histogram bins
	// (bounds in msgWordBounds).
	nColl   int64
	msgHist [msgHistBins]int64

	// co is this processor's scheduling handle (see engine.go).
	co *coro
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
		// Link full: run-ahead backpressure. Note the blocked send in
		// the wait registers so a post-mortem can name it, count the
		// stall for SchedStats, then park until the receiver pops.
		p.waitKind = flightrec.WaitSend
		p.waitDim, p.waitTag = d, tag
		p.waitSince = arrive
		p.co.w.nSendStalls++
		p.park(l, false, d, tag)
		l.tryPush(&msg) // cannot fail: only this processor pushes
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
		// Slow path: park until the message is posted. The wait
		// registers make the blocked state visible to the post-mortem
		// assembler.
		p.waitKind = flightrec.WaitRecv
		p.waitDim, p.waitTag = d, wantTag
		p.waitSince = p.clock
		p.co.w.nRecvParks++
		p.park(l, true, d, wantTag)
		l.tryPop(&msg) // cannot fail: only this processor pops
	}
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
