package hypercube

import (
	"fmt"
	"iter"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"vmprim/internal/flightrec"
	"vmprim/internal/obs"
)

// The M:N engine: the machine's 2^d processors run as persistent
// coroutines on W worker goroutines, W the largest power of two no
// larger than GOMAXPROCS or p. Worker k owns the subcube of 2^(d-w)
// processors whose top w = log2 W address bits equal k, so a link on a
// dimension below d-w never leaves a worker and is a plain FIFO (see
// link.go); only the p*w links on the top w dimensions are rings.
//
// A worker resumes the processors on its run queue one at a time. A
// processor that blocks on a link yields back to it, and the partner
// that makes the link ready puts it back on a run queue: its own
// worker's queue directly when both ends share a worker, the owning
// worker's inbox otherwise. A worker sleeps only when its queue and
// inbox are both empty. That makes deadlock decidable: a run is
// deadlocked exactly when every worker is asleep or finished and at
// least one is asleep, because only a running processor can wake a
// parked one. The worker whose sleep or finish completes that state
// aborts the run, and every parked processor unwinds with a deadlock
// panic naming what it waited for.

// coro is one processor's scheduling handle. It is allocated apart
// from the Proc and refers to it only during a run, so the coroutine
// that captures it cannot keep a dropped Machine alive.
type coro struct {
	// state is the wait code while the processor waits on a ring, 0
	// otherwise. Written by the owner on the park path and cleared by
	// the compare-and-swap that claims the wake; read by the partners
	// after every ring push and pop, hence its own cache line.
	_     [cacheLine]byte
	state atomic.Int32
	_     [cacheLine - 4]byte

	// wait is the wait code while the processor waits on a same-worker
	// link; only coroutines of its own worker touch it.
	wait int32
	w    *worker
	slot int // index among w's coroutines
	// yield suspends the processor back to its worker; set by the
	// coroutine when it first runs.
	yield func(struct{}) bool
	// proc is the processor being run, nil between runs.
	proc *Proc
	// done reports that proc's body has returned (or unwound) this run.
	done bool
}

// wakeLocal schedules c if it waits with code on a same-worker link.
func (c *coro) wakeLocal(code int32) {
	if c.wait == code {
		c.wait = 0
		c.w.push(c)
	}
}

// wakeRemote schedules c, whose partner from runs on another worker,
// if it waits with code on their ring; the compare-and-swap makes the
// wake exactly-once against c's own re-check in park.
func (c *coro) wakeRemote(code int32, from *coro) {
	if c.state.Load() == code && c.state.CompareAndSwap(code, 0) {
		c.w.post(c, from.w.rc)
	}
}

// loop is the coroutine body: one processor body per resume after a
// yield, for as long as the engine lives. It keeps no processor or run
// state on its stack across the yield.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.runOnce()
		if !yield(struct{}{}) {
			return
		}
	}
}

// runOnce executes this processor's share of the current run with the
// panic containment a goroutine-per-processor engine would have: the
// first panic aborts the run, and every other processor unwinds when
// it next blocks.
func (c *coro) runOnce() {
	rc, pr := c.w.rc, c.proc
	defer func() {
		if r := recover(); r != nil {
			rc.errs <- procError{pid: pr.id, val: r}
			rc.abortOnce.Do(rc.abortAll)
		}
		c.done = true
	}()
	pr.resetForRun(rc)
	rc.body(pr)
	pr.checkSpansClosed()
}

// worker runs one subcube's coroutines. The first group of fields
// belongs to the worker's own goroutine and its coroutines; the second
// is shared with the other workers under mu.
type worker struct {
	base  int // address of the subcube's first processor
	coros []*coro
	next  []func() (struct{}, bool)
	// q is the run queue, a ring of len(coros) entries: wakes are
	// exactly-once, so a processor is queued at most once.
	q      []*coro
	qh, qn int
	rc     *runCtx
	// abort mirrors rc.aborted for the coroutines; deadlock says why.
	abort, deadlock bool
	// Host-scheduler counters of the current run (see SchedStats).
	parked, maxParked                 int
	nRecvParks, nSendStalls, nWakeups int64

	work chan *runCtx
	wake chan struct{}

	_        [cacheLine]byte
	mu       sync.Mutex
	inbox    []*coro
	sleeping bool
	nIn      atomic.Int32 // len(inbox), read without mu
	_        [cacheLine]byte
}

// engine owns the workers. It is a separate object so the worker
// goroutines hold no reference to it or to the Machine, and it carries
// the garbage-collection backstop: when the Machine becomes
// unreachable, so does the engine, whose finalizer closes stop and
// lets the workers exit. The finalizer cannot sit on the Machine
// itself: every Proc points back at its Machine, and the collector
// never finalizes an object reachable from its own referents.
type engine struct {
	workers []*worker
	stop    chan struct{}
	exited  *sync.WaitGroup
}

// runCtx carries one Run invocation to the workers.
type runCtx struct {
	body    func(*Proc)
	procs   []*Proc
	workers []*worker
	errs    chan procError
	prof    bool
	crit    bool
	stream  obs.StreamSink

	wg        sync.WaitGroup
	abortOnce sync.Once
	aborted   atomic.Bool
	deadlock  bool // set before aborted, by the detecting worker
	// idle counts asleep workers in its low 32 bits and finished ones
	// in both halves (see workerIdle). It changes on every worker sleep
	// and wake, so it sits apart from aborted, which every worker reads
	// between resumes.
	_    [cacheLine]byte
	idle atomic.Int64
}

// workerIdle and workerDone are the increments of runCtx.idle when a
// worker goes to sleep and when it finishes its run.
const (
	workerIdle = 1
	workerDone = 1<<32 | 1
)

// workerCount returns W for a cube of p processors at the current
// GOMAXPROCS.
func workerCount(p int) int {
	n := min(runtime.GOMAXPROCS(0), p)
	w := 1
	for 2*w <= n {
		w *= 2
	}
	return w
}

// newEngine partitions the processors among nw workers, turns the
// links between workers into rings and the rest into plain FIFOs, and
// starts the workers. The links must be empty.
func (m *Machine) newEngine(nw int) *engine {
	eng := &engine{
		workers: make([]*worker, nw),
		stop:    make(chan struct{}),
		exited:  new(sync.WaitGroup),
	}
	per := m.p / nw
	local := m.dim - bits.TrailingZeros(uint(nw))
	rings := make([]ring, m.p*(m.dim-local))
	for pid := 0; pid < m.p; pid++ {
		for d := 0; d < m.dim; d++ {
			var x *ring
			if d >= local {
				x = &rings[pid*(m.dim-local)+d-local]
			}
			m.links[pid*m.dim+d].reset(x)
		}
	}
	for k := range eng.workers {
		w := &worker{
			base:  k * per,
			coros: make([]*coro, per),
			next:  make([]func() (struct{}, bool), per),
			q:     make([]*coro, per),
			work:  make(chan *runCtx, 1),
			wake:  make(chan struct{}, 1),
		}
		for i := range w.coros {
			c := m.procs[k*per+i].co
			c.w, c.slot = w, i
			w.coros[i] = c
		}
		eng.workers[k] = w
		eng.exited.Add(1)
		go w.main(eng.stop, eng.exited)
	}
	runtime.SetFinalizer(eng, (*engine).shutdown)
	return eng
}

// shutdown stops the worker goroutines without waiting for them.
func (e *engine) shutdown() { close(e.stop) }

// main is a worker's goroutine. It deliberately refers to nothing but
// its worker and the engine's stop channel and wait group, never the
// Machine or the engine (see engine).
func (w *worker) main(stop chan struct{}, exited *sync.WaitGroup) {
	defer exited.Done()
	stops := make([]func(), len(w.coros))
	for i, c := range w.coros {
		w.next[i], stops[i] = iter.Pull(c.loop)
	}
	for {
		select {
		case rc := <-w.work:
			w.run(rc)
		case <-stop:
			for _, s := range stops {
				s()
			}
			return
		}
	}
}

// run executes one Run on this worker's subcube.
func (w *worker) run(rc *runCtx) {
	w.rc = rc
	w.abort, w.deadlock = false, false
	w.qh, w.qn = 0, 0
	w.parked, w.maxParked = 0, 0
	w.nRecvParks, w.nSendStalls, w.nWakeups = 0, 0, 0
	// Inbox entries left by an aborted run's wakes are stale.
	w.mu.Lock()
	w.inbox = w.inbox[:0]
	w.nIn.Store(0)
	w.mu.Unlock()
	for i, c := range w.coros {
		c.proc = rc.procs[w.base+i]
		c.done = false
		w.push(c)
	}

	live := len(w.coros)
	for live > 0 {
		if rc.aborted.Load() {
			// Resume every unfinished processor once more: at its next
			// block it sees w.abort and unwinds.
			w.abort, w.deadlock = true, rc.deadlock
			for i, c := range w.coros {
				for !c.done {
					w.next[i]()
				}
			}
			break
		}
		if w.nIn.Load() != 0 {
			w.takeInbox()
		}
		if w.qn == 0 {
			w.sleep(rc)
			continue
		}
		c := w.q[w.qh]
		w.qh = (w.qh + 1) & (len(w.q) - 1)
		w.qn--
		if c.done {
			continue // never resume a finished processor
		}
		w.next[c.slot]()
		if c.done {
			live--
		}
	}

	for _, c := range w.coros {
		c.proc = nil
	}
	w.rc = nil
	if n := rc.idle.Add(workerDone); deadlocked(n, len(rc.workers)) {
		rc.abortOnce.Do(rc.abortDeadlock)
	}
	rc.wg.Done()
}

// push appends c to the run queue. Worker goroutine and its
// coroutines only.
func (w *worker) push(c *coro) {
	w.q[(w.qh+w.qn)&(len(w.q)-1)] = c
	w.qn++
}

// post hands c to its worker from another worker's coroutine, waking
// the worker if it sleeps; rc is the waker's run.
func (w *worker) post(c *coro, rc *runCtx) {
	w.mu.Lock()
	w.inbox = append(w.inbox, c)
	w.nIn.Store(int32(len(w.inbox)))
	wake := w.sleeping
	if wake {
		w.sleeping = false
		rc.idle.Add(-workerIdle)
	}
	w.mu.Unlock()
	if wake {
		w.wake <- struct{}{}
	}
}

// takeInbox moves the cross-worker wakes onto the run queue.
func (w *worker) takeInbox() {
	w.mu.Lock()
	for _, c := range w.inbox {
		w.push(c)
	}
	w.inbox = w.inbox[:0]
	w.nIn.Store(0)
	w.mu.Unlock()
}

// sleep blocks the worker until another worker posts to its inbox or
// the run aborts. A worker whose sleep leaves every worker asleep or
// finished has found a deadlock and aborts the run.
func (w *worker) sleep(rc *runCtx) {
	w.mu.Lock()
	if len(w.inbox) > 0 || rc.aborted.Load() {
		w.mu.Unlock()
		return
	}
	w.sleeping = true
	n := rc.idle.Add(workerIdle)
	w.mu.Unlock()
	if deadlocked(n, len(rc.workers)) {
		rc.abortOnce.Do(rc.abortDeadlock)
	}
	<-w.wake
}

// deadlocked reports whether an idle count of n over nw workers means
// deadlock: every worker asleep or finished, and not all finished.
func deadlocked(n int64, nw int) bool {
	return n&(1<<32-1) == int64(nw) && n>>32 < int64(nw)
}

// abortAll marks the run aborted and wakes every sleeping worker, which
// then unwinds its parked processors. Run through abortOnce.
func (rc *runCtx) abortAll() {
	rc.aborted.Store(true)
	for _, w := range rc.workers {
		w.mu.Lock()
		wake := w.sleeping
		if wake {
			w.sleeping = false
			rc.idle.Add(-workerIdle)
		}
		w.mu.Unlock()
		if wake {
			w.wake <- struct{}{}
		}
	}
}

// abortDeadlock is abortAll for a detected deadlock: the parked
// processors unwind with a deadlock panic instead of abortedError.
func (rc *runCtx) abortDeadlock() {
	rc.deadlock = true
	rc.abortAll()
}

// park suspends the processor until l is ready for it: a message to pop
// when recv, room to push otherwise. On a ring it publishes its wait
// code, then re-checks the ring (a partner that pushed or popped
// before seeing the code would not wake it); whichever side clears the
// code owns the wake. A processor resumed by an abort instead unwinds,
// keeping its wait registers for the post-mortem.
func (p *Proc) park(l *link, recv bool, d, tag int) {
	c := p.co
	w := c.w
	code := l.txWait
	if recv {
		code = l.rxWait
	}
	if w.parked++; w.parked > w.maxParked {
		w.maxParked = w.parked
	}
	for recv && !l.canPop() || !recv && !l.canPush() {
		if w.abort {
			w.parked--
			c.wait = 0
			c.state.Store(0)
			if !w.deadlock {
				panic(abortedError{})
			}
			op := "send"
			if recv {
				op = "recv"
			}
			panic(fmt.Sprintf("%s on dim %d (tag %d): deadlock", op, d, tag))
		}
		if l.x == nil {
			c.wait = code
		} else {
			c.state.Store(code)
			if (recv && l.canPop() || !recv && l.canPush()) && c.state.CompareAndSwap(code, 0) {
				break
			}
		}
		c.yield(struct{}{})
	}
	w.parked--
	w.nWakeups++
	p.waitKind = flightrec.WaitNone
}
