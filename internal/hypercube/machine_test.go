package hypercube

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vmprim/internal/costmodel"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, costmodel.Ideal()); err == nil {
		t.Fatal("negative dim accepted")
	}
	if _, err := New(21, costmodel.Ideal()); err == nil {
		t.Fatal("huge dim accepted")
	}
	bad := costmodel.Ideal()
	bad.FlopTime = -1
	if _, err := New(3, bad); err == nil {
		t.Fatal("bad params accepted")
	}
	m, err := New(0, costmodel.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	if m.P() != 1 || m.Dim() != 0 {
		t.Fatalf("P=%d Dim=%d", m.P(), m.Dim())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(-1) did not panic")
		}
	}()
	MustNew(-1, costmodel.Ideal())
}

func TestRunAllProcsExecute(t *testing.T) {
	m := MustNew(4, costmodel.Ideal())
	hits := make([]bool, m.P())
	if _, err := m.Run(func(p *Proc) { hits[p.ID()] = true }); err != nil {
		t.Fatal(err)
	}
	for pid, h := range hits {
		if !h {
			t.Fatalf("processor %d did not run", pid)
		}
	}
}

func TestNeighborExchange(t *testing.T) {
	m := MustNew(3, costmodel.Ideal())
	got := make([]float64, m.P())
	_, err := m.Run(func(p *Proc) {
		// Every processor sends its id along dimension 1 and records
		// what it receives: must be the neighbor's id.
		out := p.Exchange(1, 7, []float64{float64(p.ID())})
		got[p.ID()] = out[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := range got {
		if int(got[pid]) != pid^2 {
			t.Fatalf("proc %d received %v, want %d", pid, got[pid], pid^2)
		}
	}
}

func TestSendRecvClockAdvance(t *testing.T) {
	params := costmodel.Params{CommStartup: 10, CommPerWord: 2, FlopTime: 1}
	m := MustNew(1, params)
	var clock0, clock1 costmodel.Time
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Compute(5)                     // clock = 5
			p.Send(0, 1, []float64{1, 2, 3}) // +10+6 -> 21
			clock0 = p.Clock()
		} else {
			p.Recv(0, 1) // arrives at 21
			clock1 = p.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if clock0 != 21 {
		t.Fatalf("sender clock %v, want 21", clock0)
	}
	if clock1 != 21 {
		t.Fatalf("receiver clock %v, want 21", clock1)
	}
	if m.Elapsed() != 21 {
		t.Fatalf("elapsed %v, want 21", m.Elapsed())
	}
}

func TestRecvDoesNotRewindClock(t *testing.T) {
	params := costmodel.Params{CommStartup: 1, FlopTime: 1}
	m := MustNew(1, params)
	var clock1 costmodel.Time
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(0, 1, nil) // arrives at t=1
		} else {
			p.Compute(100) // clock 100 before the receive
			p.Recv(0, 1)
			clock1 = p.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if clock1 != 100 {
		t.Fatalf("receiver clock %v, want 100 (no rewind)", clock1)
	}
}

func TestPayloadIsCopied(t *testing.T) {
	m := MustNew(1, costmodel.Ideal())
	var received []float64
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			buf := []float64{42}
			p.Send(0, 1, buf)
			buf[0] = -1 // must not affect the in-flight message
		} else {
			received = p.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if received[0] != 42 {
		t.Fatalf("received %v, want 42: payload aliased", received[0])
	}
}

func TestExchangeOwnedHandsOverTheBuffer(t *testing.T) {
	// ExchangeOwned moves the sender's own array to the neighbor and
	// otherwise behaves exactly like Exchange: same payloads, clocks
	// and statistics.
	m := MustNew(3, costmodel.CM2())
	defer m.Close()
	sent := make([]*float64, m.P())
	got := make([]*float64, m.P())
	run := func(owned bool) (costmodel.Time, Stats) {
		elapsed, err := m.Run(func(p *Proc) {
			for d := 0; d < p.Dim(); d++ {
				w := make([]float64, 3+d)
				w[0] = float64(p.ID())
				var in []float64
				if owned {
					in = p.ExchangeOwned(d, 5+d, w)
				} else {
					in = p.Exchange(d, 5+d, w)
				}
				if len(in) != 3+d || in[0] != float64(p.Neighbor(d)) {
					panic(fmt.Sprintf("dim %d: received %v from %d", d, in, p.Neighbor(d)))
				}
				if d == 0 {
					sent[p.ID()], got[p.ID()] = &w[0], &in[0]
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed, m.LastStats()
	}
	copiedT, copiedStats := run(false)
	for pid := range got {
		if got[pid] == sent[pid^1] {
			t.Fatalf("Exchange delivered proc %d's own array to proc %d", pid^1, pid)
		}
	}
	ownedT, ownedStats := run(true)
	for pid := range got {
		if got[pid] != sent[pid^1] {
			t.Fatalf("ExchangeOwned delivered a copy of proc %d's array to proc %d", pid^1, pid)
		}
	}
	if ownedT != copiedT || ownedStats != copiedStats {
		t.Fatalf("ExchangeOwned: %v %+v, Exchange: %v %+v", ownedT, ownedStats, copiedT, copiedStats)
	}
}

func TestTagMismatchPanics(t *testing.T) {
	m := MustNew(1, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(0, 1, nil)
		} else {
			p.Recv(0, 2)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "tag mismatch") {
		t.Fatalf("err = %v, want tag mismatch", err)
	}
}

func TestPanicPropagatesWithProcID(t *testing.T) {
	m := MustNew(2, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 3 {
			panic("boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "processor 3") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestAbortUnblocksBlockedReceivers(t *testing.T) {
	// Processor 0 panics; everyone else is blocked in Recv. The run
	// must finish promptly (well under the recv timeout) and report
	// the original panic.
	m := MustNew(3, costmodel.Ideal())
	start := time.Now()
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			panic("original failure")
		}
		p.Recv(0, 9) // never satisfied
	})
	if err == nil || !strings.Contains(err.Error(), "original failure") {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("abort did not unblock receivers promptly")
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := MustNew(1, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Recv(0, 1) // nobody sends
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestMachineReusableAfterError(t *testing.T) {
	m := MustNew(2, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(0, 5, []float64{1}) // left in flight: run aborts
			panic("first run fails")
		}
	})
	if err == nil {
		t.Fatal("expected first run to fail")
	}
	// Second run must not see the stale message from the first.
	_, err = m.Run(func(p *Proc) {
		out := p.Exchange(0, 6, []float64{float64(p.ID())})
		if int(out[0]) != p.ID()^1 {
			panic("stale message leaked between runs")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierEqualizesClocks(t *testing.T) {
	params := costmodel.Params{CommStartup: 1, FlopTime: 1}
	m := MustNew(3, params)
	clocks := make([]costmodel.Time, m.P())
	_, err := m.Run(func(p *Proc) {
		p.Compute(p.ID() * 10) // skewed clocks
		p.Barrier(p.FullMask(), 99)
		clocks[p.ID()] = p.Clock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 1; pid < m.P(); pid++ {
		if clocks[pid] != clocks[0] {
			t.Fatalf("clocks not equalized: %v", clocks)
		}
	}
	// Max pre-barrier clock is 70; the barrier itself costs 3 startups.
	if clocks[0] < 70 {
		t.Fatalf("barrier clock %v below straggler clock", clocks[0])
	}
}

func TestStatsCounting(t *testing.T) {
	m := MustNew(1, costmodel.CountOnly())
	_, err := m.Run(func(p *Proc) {
		p.Compute(7)
		p.Exchange(0, 1, []float64{1, 2, 3})
	})
	if err != nil {
		t.Fatal(err)
	}
	st := m.LastStats()
	if st.Messages != 2 || st.Words != 6 || st.Flops != 14 {
		t.Fatalf("stats = %+v, want 2 msgs, 6 words, 14 flops", st)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Messages: 1, Words: 2, Flops: 3}
	a.Add(Stats{Messages: 10, Words: 20, Flops: 30})
	if a.Messages != 11 || a.Words != 22 || a.Flops != 33 {
		t.Fatalf("Add = %+v", a)
	}
}

func TestExchangeAllOnePortCostsAdd(t *testing.T) {
	params := costmodel.Params{CommStartup: 10, CommPerWord: 1}
	m := MustNew(2, params)
	var clock costmodel.Time
	_, err := m.Run(func(p *Proc) {
		got := p.ExchangeAll([]int{0, 1}, 3, [][]float64{{1, 2}, {3}})
		if p.ID() == 0 {
			clock = p.Clock()
			if int(got[0][0]) != 1 && len(got[0]) != 2 {
				panic("wrong payload on dim 0")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// One-port: sends cost (10+2)+(10+1)=23; receives arrive no later
	// than the symmetric partner's send completion.
	if clock < 23 {
		t.Fatalf("one-port clock %v, want >= 23", clock)
	}
}

func TestExchangeAllAllPortsCostsMax(t *testing.T) {
	params := costmodel.Params{CommStartup: 10, CommPerWord: 1, AllPorts: true}
	m := MustNew(2, params)
	clocks := make([]costmodel.Time, m.P())
	_, err := m.Run(func(p *Proc) {
		p.ExchangeAll([]int{0, 1}, 3, [][]float64{{1, 2}, {3}})
		clocks[p.ID()] = p.Clock()
	})
	if err != nil {
		t.Fatal(err)
	}
	// All-port: the phase costs max(12, 11) = 12 at every symmetric
	// participant.
	for pid, c := range clocks {
		if c != 12 {
			t.Fatalf("proc %d all-port clock %v, want 12", pid, c)
		}
	}
}

func TestExchangeAllRejectsDuplicateDims(t *testing.T) {
	m := MustNew(2, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		p.ExchangeAll([]int{0, 0}, 1, [][]float64{{1}, {2}})
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate dimension") {
		t.Fatalf("err = %v", err)
	}
}

func TestExchangeAllRejectsLengthMismatch(t *testing.T) {
	m := MustNew(2, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		p.ExchangeAll([]int{0, 1}, 1, [][]float64{{1}})
	})
	if err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Fatalf("err = %v", err)
	}
}

func TestDimRangeChecked(t *testing.T) {
	m := MustNew(2, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(2, 1, nil)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v", err)
	}
}

func TestNegativeFlopsPanics(t *testing.T) {
	m := MustNew(0, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) { p.Compute(-1) })
	if err == nil {
		t.Fatal("negative flops accepted")
	}
}

func TestNeighborAddress(t *testing.T) {
	m := MustNew(4, costmodel.Ideal())
	_, err := m.Run(func(p *Proc) {
		for d := 0; d < p.Dim(); d++ {
			if p.Neighbor(d) != p.ID()^(1<<d) {
				panic("bad neighbor")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRouteCharge(t *testing.T) {
	params := costmodel.Params{RouteStartup: 5, RoutePerWord: 2}
	m := MustNew(0, params)
	var clock costmodel.Time
	if _, err := m.Run(func(p *Proc) {
		p.RouteCharge(3)
		clock = p.Clock()
	}); err != nil {
		t.Fatal(err)
	}
	if clock != 11 {
		t.Fatalf("route charge clock %v, want 11", clock)
	}
}

func TestManySequentialRuns(t *testing.T) {
	m := MustNew(5, costmodel.CM2())
	for i := 0; i < 20; i++ {
		if _, err := m.Run(func(p *Proc) {
			p.Barrier(p.FullMask(), i)
		}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

func TestClocksExposed(t *testing.T) {
	params := costmodel.Params{FlopTime: 1}
	m := MustNew(2, params)
	if _, err := m.Run(func(p *Proc) { p.Compute(p.ID() * 3) }); err != nil {
		t.Fatal(err)
	}
	clocks := m.Clocks()
	if len(clocks) != m.P() {
		t.Fatalf("clocks len %d", len(clocks))
	}
	for pid, c := range clocks {
		if c != costmodel.Time(pid*3) {
			t.Fatalf("proc %d clock %v, want %d", pid, c, pid*3)
		}
	}
	// The returned slice is a copy.
	clocks[0] = 999
	if m.Clocks()[0] == 999 {
		t.Fatal("Clocks returns aliased storage")
	}
}

func TestTraceRecordsMessages(t *testing.T) {
	m := MustNew(2, costmodel.Ideal())
	m.EnableTrace(100)
	if _, err := m.Run(func(p *Proc) {
		p.Exchange(0, 7, []float64{1, 2})
		p.Exchange(1, 8, []float64{3})
	}); err != nil {
		t.Fatal(err)
	}
	tr := m.Trace()
	if len(tr) != 2*m.P() {
		t.Fatalf("%d events, want %d", len(tr), 2*m.P())
	}
	// Ordered by time; endpoints consistent; tags preserved.
	for i := 1; i < len(tr); i++ {
		if tr[i].Time < tr[i-1].Time {
			t.Fatal("trace not time-ordered")
		}
	}
	seenTags := map[int]int{}
	for _, ev := range tr {
		if ev.Dst != ev.Src^(1<<ev.Dim) {
			t.Fatalf("inconsistent endpoints: %v", ev)
		}
		seenTags[ev.Tag]++
		if ev.String() == "" {
			t.Fatal("empty event string")
		}
	}
	if seenTags[7] != m.P() || seenTags[8] != m.P() {
		t.Fatalf("tags: %v", seenTags)
	}
	vols := m.LinkVolumes()
	if vols[0][0] != 2 || vols[0][1] != 1 {
		t.Fatalf("link volumes: %v", vols)
	}
}

func TestTraceLimitRespected(t *testing.T) {
	m := MustNew(1, costmodel.Ideal())
	m.EnableTrace(3)
	if _, err := m.Run(func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Exchange(0, i, []float64{1})
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Trace()); got != 3*m.P() {
		t.Fatalf("%d events, want %d (limit 3 per proc)", got, 3*m.P())
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	m := MustNew(1, costmodel.Ideal())
	if _, err := m.Run(func(p *Proc) { p.Exchange(0, 1, nil) }); err != nil {
		t.Fatal(err)
	}
	if m.Trace() != nil && len(m.Trace()) != 0 {
		t.Fatal("trace recorded while disabled")
	}
}

// SchedStats is host-nondeterministic by design, so these tests assert
// its structural invariants — accounting identities, bounds, per-run
// reset, and the metrics fold — never specific counts.

func TestSchedStatsInvariants(t *testing.T) {
	m := MustNew(3, costmodel.CM2())
	defer m.Close()
	if _, err := m.Run(func(p *Proc) {
		buf := []float64{1, 2, 3, 4}
		for round := 0; round < 50; round++ {
			for d := 0; d < 3; d++ {
				buf = p.Exchange(d, round, buf)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	s := m.SchedStats()
	if s.RecvParks < 0 || s.SendStalls < 0 || s.Wakeups < 0 {
		t.Fatalf("negative sched counters: %+v", s)
	}
	if s.MaxParked < 0 || s.MaxParked > m.P() {
		t.Fatalf("max parked %d out of range [0,%d]", s.MaxParked, m.P())
	}
	// Every wakeup resumes exactly one completed park; aborted parks
	// don't count, so completions never exceed park entries.
	if s.Wakeups > s.RecvParks+s.SendStalls {
		t.Fatalf("wakeups %d exceed parks %d + stalls %d", s.Wakeups, s.RecvParks, s.SendStalls)
	}

	// A communication-free run parks nobody: SchedStats describes the
	// most recent run only, deterministically zero here.
	if _, err := m.Run(func(p *Proc) { p.Compute(1) }); err != nil {
		t.Fatal(err)
	}
	if got := m.SchedStats(); got != (SchedStats{}) {
		t.Fatalf("sched stats not reset by a communication-free run: %+v", got)
	}
}

func TestSchedStatsAdd(t *testing.T) {
	a := SchedStats{RecvParks: 1, SendStalls: 2, Wakeups: 3, MaxParked: 4}
	a.Add(SchedStats{RecvParks: 10, SendStalls: 20, Wakeups: 30, MaxParked: 2})
	want := SchedStats{RecvParks: 11, SendStalls: 22, Wakeups: 33, MaxParked: 4}
	if a != want {
		t.Fatalf("got %+v, want %+v", a, want)
	}
}

func TestSchedMetricsFold(t *testing.T) {
	m := MustNew(2, costmodel.CM2())
	defer m.Close()
	if _, err := m.Run(func(p *Proc) {
		for round := 0; round < 20; round++ {
			p.Exchange(round%2, round, []float64{float64(round)})
		}
	}); err != nil {
		t.Fatal(err)
	}
	s := m.SchedStats()
	snap := m.Metrics().Snapshot()
	checks := []struct {
		name string
		want float64
	}{
		{"vmprim_sched_recv_parks_total", float64(s.RecvParks)},
		{"vmprim_sched_send_stalls_total", float64(s.SendStalls)},
		{"vmprim_sched_wakeups_total", float64(s.Wakeups)},
		{"vmprim_sched_max_parked_procs", float64(s.MaxParked)},
	}
	for _, c := range checks {
		got, ok := snap.Value(c.name)
		if !ok {
			t.Fatalf("metric %s not registered", c.name)
		}
		if got != c.want {
			t.Errorf("metric %s = %v, want %v (single run on a fresh machine)", c.name, got, c.want)
		}
	}
}
