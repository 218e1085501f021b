package hypercube

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"vmprim/internal/costmodel"
	"vmprim/internal/flightrec"
	"vmprim/internal/testutil"
)

// Tests for the links, the park/wake protocol and the M:N engine.

// pause puts the calling processor behind the other runnable
// processors of its worker and yields to them. A test waits for a
// sibling's state by pausing in a loop: spinning on the host scheduler
// would never let a sibling on the same worker run.
func (p *Proc) pause() {
	c := p.co
	if c.w.abort {
		panic(abortedError{})
	}
	c.w.push(c)
	c.yield(struct{}{})
}

// waitCode reports q's wait code as p may read it: the plain wait word
// of a processor on p's own worker, the atomic one otherwise.
func (p *Proc) waitCode(q *Proc) int32 {
	if q.co.w == p.co.w {
		return q.co.wait
	}
	return q.co.state.Load()
}

// withGOMAXPROCS runs f at GOMAXPROCS n, which fixes the worker count
// of the machines f runs.
func withGOMAXPROCS(n int, f func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	f()
}

func TestRingEmptyFullAndWrap(t *testing.T) {
	const dim = 3
	m := MustNew(dim, costmodel.Ideal())
	l := &m.links[0]
	// The same FIFO contract as a plain same-worker link and as a
	// cross-worker ring.
	for _, x := range []*ring{nil, new(ring)} {
		l.reset(x)
		var msg message
		if l.tryPop(&msg) || l.canPop() || !l.canPush() {
			t.Fatal("fresh link not empty")
		}

		// Full exactly at linkCap, FIFO on the way out.
		c := linkCap(dim)
		for i := 0; i < c; i++ {
			if !l.tryPush(&message{tag: i}) {
				t.Fatalf("ring %v: push %d refused below capacity %d", x != nil, i, c)
			}
		}
		if l.tryPush(&message{tag: c}) || l.canPush() {
			t.Fatalf("ring %v: link accepted a message beyond capacity %d", x != nil, c)
		}
		for i := 0; i < c; i++ {
			if !l.tryPop(&msg) || msg.tag != i {
				t.Fatalf("ring %v: pop %d: got tag %d", x != nil, i, msg.tag)
			}
		}
		if l.tryPop(&msg) {
			t.Fatal("pop from a drained link succeeded")
		}

		// Wrap around many times the capacity at every fill level: each
		// round pushes fill messages and pops them, so the slot indices
		// cross the end of the ring at every offset.
		next, want := 0, 0
		for round := 0; round < 50*c; round++ {
			fill := 1 + round%c
			for i := 0; i < fill; i++ {
				if !l.tryPush(&message{tag: next, words: []float64{float64(next)}}) {
					t.Fatalf("round %d: push refused at fill %d", round, i)
				}
				next++
			}
			for i := 0; i < fill; i++ {
				if !l.tryPop(&msg) || msg.tag != want || msg.words[0] != float64(want) {
					t.Fatalf("round %d: popped tag %d, want %d", round, msg.tag, want)
				}
				want++
			}
		}
		if !m.linksEmpty() {
			t.Fatal("links not empty after balanced traffic")
		}
		for i, s := range l.slots {
			if s.words != nil {
				t.Fatalf("slot %d still references a consumed payload", i)
			}
		}
	}
}

func TestAbortUnblocksParkedSender(t *testing.T) {
	// Processor 1 overfills its link to processor 0 and parks on the
	// full link; processor 0 never receives and fails instead. The
	// abort must wake the parked sender, on a plain link (one worker)
	// and on a ring (two).
	for _, procs := range []int{1, 2} {
		withGOMAXPROCS(procs, func() {
			m := MustNew(1, costmodel.Ideal())
			defer m.Close()
			start := time.Now()
			_, err := m.Run(func(p *Proc) {
				if p.ID() == 0 {
					for p.waitCode(m.procs[1]) != sendWait(0) {
						p.pause() // until the sender has filled the link and parked
					}
					panic("receiver failed")
				}
				for i := 0; i <= linkCap(p.Dim()); i++ {
					p.Send(0, i, []float64{float64(i)})
				}
			})
			if err == nil || !strings.Contains(err.Error(), "receiver failed") {
				t.Fatalf("GOMAXPROCS %d: err = %v", procs, err)
			}
			if time.Since(start) > 10*time.Second {
				t.Fatalf("GOMAXPROCS %d: abort did not unblock the parked sender promptly", procs)
			}
			if s := m.SchedStats(); s.SendStalls != 1 {
				t.Fatalf("GOMAXPROCS %d: send stalls = %d, want 1 (the sender must have parked)", procs, s.SendStalls)
			}
			if ps := m.PostMortem().Procs[1]; ps.Wait != "send" {
				t.Fatalf("GOMAXPROCS %d: sender's post-mortem wait = %q, want send", procs, ps.Wait)
			}
			if !m.linksEmpty() {
				t.Fatalf("GOMAXPROCS %d: links not empty after the aborted run", procs)
			}
		})
	}
}

func TestDroppedMachineIsCollected(t *testing.T) {
	// A Machine dropped without Close after a run whose processors
	// parked must still be finalized, and its workers and their
	// coroutines must exit: nothing the engine keeps between runs may
	// refer back to the Machine.
	defer testutil.CheckLeaks(t, testutil.Snapshot())
	withGOMAXPROCS(2, func() {
		m := MustNew(2, costmodel.Ideal())
		if _, err := m.Run(func(p *Proc) {
			for d := 0; d < p.Dim(); d++ {
				if p.ID()&(1<<d) == 0 {
					for p.waitCode(m.procs[p.Neighbor(d)]) != recvWait(d) {
						p.pause() // until the neighbor has parked in Recv
					}
					p.Send(d, d, nil)
				} else {
					p.Recv(d, d)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if s := m.SchedStats(); s.RecvParks == 0 {
			t.Fatal("no processor parked")
		}
	})
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
}

func TestPingPongStress(t *testing.T) {
	// Strict ping-pong parks on nearly every message; bursts beyond the
	// link's capacity park the sender. Run under -race at GOMAXPROCS 1
	// and 2, the payload sequence must arrive intact and in order.
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		m := MustNew(1, costmodel.Ideal())
		_, err := m.Run(func(p *Proc) {
			burst := linkCap(p.Dim()) + 3
			for r := 0; r < rounds; r++ {
				if p.ID() == 0 {
					p.Send(0, r, []float64{float64(r)})
					if got := p.Recv(0, r); got[0] != float64(-r) {
						panic("ping-pong payload corrupted")
					}
				} else {
					got := p.Recv(0, r)
					got[0] = -got[0]
					p.Send(0, r, got)
				}
				if r%100 != 0 {
					continue
				}
				for i := 0; i < burst; i++ {
					if p.ID() == 0 {
						p.Send(0, i, []float64{float64(i)})
					} else if got := p.Recv(0, i); got[0] != float64(i) {
						panic("burst payload out of order")
					}
				}
			}
		})
		runtime.GOMAXPROCS(prev)
		m.Close()
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if s := m.SchedStats(); s.Wakeups != s.RecvParks+s.SendStalls {
			t.Fatalf("GOMAXPROCS %d: %d wakeups for %d parks and %d stalls", procs, s.Wakeups, s.RecvParks, s.SendStalls)
		}
	}
}

// partitionBody exercises every dimension with per-processor payload
// sizes and compute, then overfills the top dimension's links so the
// senders stall on backpressure.
func partitionBody(p *Proc) {
	exerciseBody(p)
	top := p.Dim() - 1
	for i := 0; i < 2*linkCap(p.Dim()); i++ {
		if p.ID()&(1<<top) == 0 {
			p.Send(top, i, []float64{float64(i), float64(p.ID())})
		} else {
			p.Recycle(p.Recv(top, i))
			p.Compute(3)
		}
	}
}

func TestPlainAndRingLinksAgree(t *testing.T) {
	// At d=2, GOMAXPROCS 1 gives one worker and only plain links;
	// GOMAXPROCS 4 gives a worker per processor and only rings. The
	// simulation may not tell them apart: clocks, stats and every
	// processor's flight events must match exactly.
	type result struct {
		elapsed costmodel.Time
		stats   Stats
		clocks  []costmodel.Time
		events  [][]flightrec.Event
	}
	run := func(procs int, wantRings bool) result {
		var r result
		withGOMAXPROCS(procs, func() {
			m := MustNew(2, costmodel.CM2())
			defer m.Close()
			e, err := m.Run(partitionBody)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", procs, err)
			}
			for i := range m.links {
				if (m.links[i].x != nil) != wantRings {
					t.Fatalf("GOMAXPROCS %d: link %d ring = %v, want %v", procs, i, m.links[i].x != nil, wantRings)
				}
			}
			r = result{elapsed: e, stats: m.LastStats(), clocks: m.Clocks()}
			for _, pr := range m.procs {
				r.events = append(r.events, pr.rec.Snapshot(nil))
			}
		})
		return r
	}
	plain, rings := run(1, false), run(4, true)
	if !reflect.DeepEqual(plain, rings) {
		t.Fatalf("plain links %+v\nrings %+v", plain, rings)
	}
}

func TestAbortWithSameAndCrossWorkerParks(t *testing.T) {
	// Two workers at d=2: processors 0,1 share one, 2,3 the other.
	// Processor 1 parks on a same-worker link, 2 on a ring, 3 on a full
	// ring; processor 0 then wakes 1 and 2 and fails in the same
	// breath, so wakes race the abort. No wake may leak into the next
	// run: each must reproduce a fresh machine's result exactly.
	const tag = 5
	withGOMAXPROCS(2, func() {
		fresh := MustNew(2, costmodel.CM2())
		defer fresh.Close()
		wantT, err := fresh.Run(partitionBody)
		if err != nil {
			t.Fatal(err)
		}
		want := []any{wantT, fresh.LastStats(), fresh.Clocks()}

		m := MustNew(2, costmodel.CM2())
		defer m.Close()
		for round := 0; round < 20; round++ {
			_, err := m.Run(func(p *Proc) {
				switch p.ID() {
				case 0:
					for p.waitCode(m.procs[1]) != recvWait(0) ||
						p.waitCode(m.procs[2]) != recvWait(1) ||
						p.waitCode(m.procs[3]) != sendWait(1) {
						p.pause()
					}
					p.Send(0, tag, nil)
					p.Send(1, tag, nil)
					panic("fails with wakes in flight")
				case 1:
					p.Recv(0, tag)
				case 2:
					p.Recv(1, tag)
				case 3:
					for i := 0; i <= linkCap(p.Dim()); i++ {
						p.Send(1, tag, nil)
					}
				}
			})
			if err == nil || !strings.Contains(err.Error(), "processor 0: fails with wakes in flight") {
				t.Fatalf("round %d: err = %v", round, err)
			}
			if ps := m.PostMortem().Procs[3]; ps.Wait != "send" || ps.WaitDim != 1 {
				t.Fatalf("round %d: processor 3 post-mortem wait %q dim %d, want send dim 1", round, ps.Wait, ps.WaitDim)
			}
			gotT, err := m.Run(partitionBody)
			if err != nil {
				t.Fatalf("round %d: run after the abort: %v", round, err)
			}
			if got := []any{gotT, m.LastStats(), m.Clocks()}; !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: run after the abort %v, fresh machine %v", round, got, want)
			}
		}
	})
}

// Deadlocks are detected exactly, with no timeout: each of these must
// be reported at once, and well within a second.
func TestDeadlockCycleAcrossWorkers(t *testing.T) {
	withGOMAXPROCS(2, func() {
		m := MustNew(1, costmodel.CM2())
		defer m.Close()
		start := time.Now()
		_, err := m.Run(func(p *Proc) {
			p.Recv(0, 10+p.ID()) // each waits for the other
		})
		checkDeadlock(t, m, err, start, map[int]string{0: "recv 0 10", 1: "recv 0 11"})
	})
}

func TestDeadlockAfterSomeProcsReturned(t *testing.T) {
	for _, procs := range []int{1, 2} {
		withGOMAXPROCS(procs, func() {
			m := MustNew(3, costmodel.CM2())
			defer m.Close()
			start := time.Now()
			_, err := m.Run(func(p *Proc) {
				if p.ID()&1 == 0 {
					p.Recv(0, 7) // the odd neighbor has returned
				}
			})
			checkDeadlock(t, m, err, start, map[int]string{0: "recv 0 7", 2: "recv 0 7", 4: "recv 0 7", 6: "recv 0 7"})
		})
	}
}

func TestDeadlockSendOnFullRing(t *testing.T) {
	for _, procs := range []int{1, 2} {
		withGOMAXPROCS(procs, func() {
			m := MustNew(1, costmodel.CM2())
			defer m.Close()
			start := time.Now()
			c := linkCap(1)
			_, err := m.Run(func(p *Proc) {
				if p.ID() == 0 {
					for i := 0; i <= c; i++ {
						p.Send(0, i, []float64{1})
					}
				}
			})
			checkDeadlock(t, m, err, start, map[int]string{0: fmt.Sprintf("send 0 %d", c)})
		})
	}
}

// checkDeadlock asserts that err reports a deadlock found within a
// second of start, and that the post-mortem names exactly the blocked
// processors in want, each as "kind dim tag".
func checkDeadlock(t *testing.T, m *Machine, err error, start time.Time, want map[int]string) {
	t.Helper()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("deadlock reported after %v", took)
	}
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	rep := m.PostMortem()
	if rep.Blocked != len(want) {
		t.Fatalf("post-mortem blocked = %d, want %d", rep.Blocked, len(want))
	}
	for pid, ps := range rep.Procs {
		got := ""
		if ps.Wait != "" {
			got = fmt.Sprintf("%s %d %d", ps.Wait, ps.WaitDim, ps.WaitTag)
		}
		if got != want[pid] {
			t.Fatalf("processor %d blocked on %q, want %q", pid, got, want[pid])
		}
	}
}
