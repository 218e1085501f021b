package hypercube

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"vmprim/internal/costmodel"
	"vmprim/internal/testutil"
)

// Tests for the lock-free link rings and the park/wake protocol.

func TestRingEmptyFullAndWrap(t *testing.T) {
	const dim = 3
	m := MustNew(dim, costmodel.Ideal())
	l := &m.links[0]
	var msg message
	if l.tryPop(&msg) || l.canPop() || !l.canPush() {
		t.Fatal("fresh ring not empty")
	}

	// Full exactly at linkCap, FIFO on the way out.
	c := linkCap(dim)
	for i := 0; i < c; i++ {
		if !l.tryPush(&message{tag: i}) {
			t.Fatalf("push %d refused below capacity %d", i, c)
		}
	}
	if l.tryPush(&message{tag: c}) || l.canPush() {
		t.Fatalf("ring accepted a message beyond capacity %d", c)
	}
	for i := 0; i < c; i++ {
		if !l.tryPop(&msg) || msg.tag != i {
			t.Fatalf("pop %d: got tag %d", i, msg.tag)
		}
	}
	if l.tryPop(&msg) {
		t.Fatal("pop from a drained ring succeeded")
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

func TestAbortUnblocksParkedSender(t *testing.T) {
	// Processor 1 overfills its link to processor 0 and parks on the
	// full ring; processor 0 never receives and fails instead. The
	// abort must wake the parked sender well before the watchdog.
	m := MustNew(1, costmodel.Ideal())
	defer m.Close()
	m.SetRecvTimeout(time.Minute)
	start := time.Now()
	sender := m.procs[1].pk
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			for sender.state.Load() != sendWait(0) {
				runtime.Gosched() // until the sender has filled the ring and parked
			}
			panic("receiver failed")
		}
		for i := 0; i <= linkCap(p.Dim()); i++ {
			p.Send(0, i, []float64{float64(i)})
		}
	})
	if err == nil || !strings.Contains(err.Error(), "receiver failed") {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("abort did not unblock the parked sender promptly")
	}
	if s := m.SchedStats(); s.SendStalls != 1 {
		t.Fatalf("send stalls = %d, want 1 (the sender must have parked)", s.SendStalls)
	}
	if ps := m.PostMortem().Procs[1]; ps.Wait != "send" {
		t.Fatalf("sender's post-mortem wait = %q, want send", ps.Wait)
	}
	if !m.linksEmpty() {
		t.Fatal("links not empty after the aborted run")
	}
}

func TestDroppedMachineWithArmedWatchdogIsCollected(t *testing.T) {
	// A run whose receiver parks arms the watchdog, which stays armed
	// after the run. Once the Machine is dropped without Close, the
	// garbage collector must still reach it and its finalizer must stop
	// the workers: the armed timer's callback may not keep it alive.
	defer testutil.CheckLeaks(t, testutil.Snapshot())
	func() {
		m := MustNew(1, costmodel.Ideal())
		m.SetRecvTimeout(time.Hour)
		receiver := m.procs[1].pk
		if _, err := m.Run(func(p *Proc) {
			if p.ID() == 0 {
				for receiver.state.Load() != recvWait(0) {
					runtime.Gosched() // until processor 1 has parked in Recv
				}
				p.Send(0, 1, nil)
			} else {
				p.Recv(0, 1)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if arms, _ := m.Metrics().Snapshot().Value("vmprim_watchdog_arms_total"); arms != 1 {
			t.Fatalf("watchdog armed %v times, want 1", arms)
		}
	}()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
}

func TestPingPongStress(t *testing.T) {
	// Strict ping-pong parks on nearly every message; bursts beyond the
	// ring's capacity park the sender. Run under -race at GOMAXPROCS 1
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

func TestWatchdogIgnoresStaleFire(t *testing.T) {
	// Drive one processor's watchdog directly. A window that expired
	// just before the next run began (its fire already delivered when
	// disarmWatchdog's Stop comes too late) must not count against that
	// run's first window; the current window's own expiry must.
	m := MustNew(1, costmodel.Ideal())
	m.SetRecvTimeout(time.Millisecond)
	p := m.procs[0]
	waitFires := func(n uint64) {
		for p.pk.fires.Load() < n {
			<-p.pk.wake
		}
	}

	if p.watch() {
		t.Fatal("arming reported a deadlock")
	}
	waitFires(1)
	p.disarmWatchdog() // too late: the fire already happened

	// Next run: a fresh window, no progress yet, stale fire on record.
	// The park loop calls watch again on every pass (a stray token
	// wakes it early), so call it twice.
	if p.watch() || p.watch() {
		t.Fatal("a fire from an earlier window read as a deadlock")
	}
	if p.nArms != 2 || p.nRearms != 0 {
		t.Fatalf("arms %d, rearms %d; want 2, 0", p.nArms, p.nRearms)
	}
	waitFires(2)
	p.recvSeq++ // progress within the window: re-arm, not deadlock
	if p.watch() {
		t.Fatal("an expiry after progress read as a deadlock")
	}
	if p.nArms != 3 || p.nRearms != 1 {
		t.Fatalf("arms %d, rearms %d; want 3, 1", p.nArms, p.nRearms)
	}
	waitFires(3)
	if !p.watch() {
		t.Fatal("a window without progress did not report a deadlock")
	}
}
