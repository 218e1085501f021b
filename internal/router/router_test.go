package router

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"vmprim/internal/costmodel"
	"vmprim/internal/hypercube"
)

func TestRouteAllToOne(t *testing.T) {
	m := hypercube.MustNew(4, costmodel.CM2())
	var got []Msg
	_, err := m.Run(func(p *hypercube.Proc) {
		out := []Msg{{Dst: 5, Key: p.ID(), Words: []float64{float64(p.ID()) * 2}}}
		in := Route(p, 1, out)
		if p.ID() == 5 {
			got = in
		} else if len(in) != 0 {
			panic("non-destination received messages")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != m.P() {
		t.Fatalf("destination received %d messages, want %d", len(got), m.P())
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
	for i, msg := range got {
		if msg.Key != i || msg.Words[0] != float64(i)*2 || msg.Dst != 5 {
			t.Fatalf("message %d: %+v", i, msg)
		}
	}
}

func TestRouteRandomPermutation(t *testing.T) {
	m := hypercube.MustNew(5, costmodel.CM2())
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(m.P())
	received := make([][]Msg, m.P())
	_, err := m.Run(func(p *hypercube.Proc) {
		out := []Msg{{Dst: perm[p.ID()], Key: p.ID(), Words: []float64{1, 2, 3}}}
		received[p.ID()] = Route(p, 1, out)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < m.P(); pid++ {
		msgs := received[pid]
		if len(msgs) != 1 {
			t.Fatalf("proc %d received %d messages", pid, len(msgs))
		}
		if perm[msgs[0].Key] != pid {
			t.Fatalf("proc %d got message keyed %d, but perm[%d]=%d", pid, msgs[0].Key, msgs[0].Key, perm[msgs[0].Key])
		}
	}
}

func TestRouteSelfDelivery(t *testing.T) {
	m := hypercube.MustNew(3, costmodel.CM2())
	_, err := m.Run(func(p *hypercube.Proc) {
		in := Route(p, 1, []Msg{{Dst: p.ID(), Key: 9, Words: []float64{7}}})
		if len(in) != 1 || in[0].Key != 9 || in[0].Words[0] != 7 {
			panic("self-delivery failed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRouteEmpty(t *testing.T) {
	m := hypercube.MustNew(3, costmodel.CM2())
	_, err := m.Run(func(p *hypercube.Proc) {
		if in := Route(p, 1, nil); len(in) != 0 {
			panic("messages from nowhere")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRouteManyToMany(t *testing.T) {
	// Every processor sends one message to every processor; everyone
	// must receive exactly P messages, one from each origin.
	m := hypercube.MustNew(4, costmodel.CM2())
	received := make([][]Msg, m.P())
	_, err := m.Run(func(p *hypercube.Proc) {
		out := make([]Msg, p.P())
		for q := 0; q < p.P(); q++ {
			out[q] = Msg{Dst: q, Key: p.ID(), Words: []float64{float64(p.ID()*p.P() + q)}}
		}
		received[p.ID()] = Route(p, 1, out)
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < m.P(); pid++ {
		if len(received[pid]) != m.P() {
			t.Fatalf("proc %d received %d, want %d", pid, len(received[pid]), m.P())
		}
		seen := make(map[int]bool)
		for _, msg := range received[pid] {
			if seen[msg.Key] {
				t.Fatalf("proc %d received duplicate from %d", pid, msg.Key)
			}
			seen[msg.Key] = true
			if msg.Words[0] != float64(msg.Key*m.P()+pid) {
				t.Fatalf("proc %d message from %d has payload %v", pid, msg.Key, msg.Words)
			}
		}
	}
}

func TestRouteDestinationRangeChecked(t *testing.T) {
	m := hypercube.MustNew(2, costmodel.CM2())
	m.SetRecvTimeout(2e9)
	_, err := m.Run(func(p *hypercube.Proc) {
		if p.ID() == 0 {
			Route(p, 1, []Msg{{Dst: 99}})
		} else {
			Route(p, 1, nil)
		}
	})
	if err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

func TestRouteCostsMoreThanStructured(t *testing.T) {
	// Moving the same volume as P one-element messages through the
	// router must cost more simulated time than one combined
	// structured broadcast-sized transfer; this gap is the paper's
	// naive-vs-primitive story.
	m := hypercube.MustNew(5, costmodel.CM2())
	_, err := m.Run(func(p *hypercube.Proc) {
		out := make([]Msg, 8)
		for j := range out {
			out[j] = Msg{Dst: (p.ID() + j + 1) % p.P(), Key: j, Words: []float64{1}}
		}
		Route(p, 1, out)
	})
	if err != nil {
		t.Fatal(err)
	}
	routed := m.Elapsed()
	_, err = m.Run(func(p *hypercube.Proc) {
		// Equivalent structured volume: one 8-word exchange per dim.
		buf := make([]float64, 8)
		for i := 0; i < p.Dim(); i++ {
			p.Exchange(i, 2, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	structured := m.Elapsed()
	if routed <= structured {
		t.Fatalf("router (%v) not more expensive than structured (%v)", routed, structured)
	}
}

func TestRequestFetchesRemoteValues(t *testing.T) {
	m := hypercube.MustNew(4, costmodel.CM2())
	// Each processor owns value id*100+key for keys 0..3; every
	// processor fetches key (pid mod 4) from every other processor.
	results := make([][][]float64, m.P())
	_, err := m.Run(func(p *hypercube.Proc) {
		key := p.ID() % 4
		want := make([]Msg, p.P())
		for q := 0; q < p.P(); q++ {
			want[q] = Msg{Dst: q, Key: key}
		}
		results[p.ID()] = Request(p, 10, want, func(k int) []float64 {
			return []float64{float64(p.ID()*100 + k)}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < m.P(); pid++ {
		key := pid % 4
		for q := 0; q < m.P(); q++ {
			want := float64(q*100 + key)
			if len(results[pid][q]) != 1 || results[pid][q][0] != want {
				t.Fatalf("proc %d fetch from %d: got %v, want %v", pid, q, results[pid][q], want)
			}
		}
	}
}

func TestRequestNoRequests(t *testing.T) {
	m := hypercube.MustNew(3, costmodel.CM2())
	_, err := m.Run(func(p *hypercube.Proc) {
		out := Request(p, 1, nil, func(int) []float64 { return nil })
		if len(out) != 0 {
			panic("phantom responses")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msgs := []Msg{
		{Dst: 3, Key: 17, Words: []float64{1.5, -2}},
		{Dst: 0, Key: -1, Words: nil},
		{Dst: 7, Key: 0, Words: []float64{9}},
	}
	got := decode(encode(msgs))
	if len(got) != len(msgs) {
		t.Fatalf("decode count %d", len(got))
	}
	for i := range msgs {
		if got[i].Dst != msgs[i].Dst || got[i].Key != msgs[i].Key || len(got[i].Words) != len(msgs[i].Words) {
			t.Fatalf("message %d: %+v vs %+v", i, got[i], msgs[i])
		}
		for j := range msgs[i].Words {
			if got[i].Words[j] != msgs[i].Words[j] {
				t.Fatalf("message %d word %d", i, j)
			}
		}
	}
	if len(decode(nil)) != 0 {
		t.Fatal("decode(nil) non-empty")
	}
}

func TestHeaderBounds(t *testing.T) {
	// The largest legal header is exact in a float64 and round-trips.
	for _, c := range []struct{ dst, n int }{
		{maxHeaderDst - 1, maxHeaderLen - 1},
		{maxHeaderDst - 1, 0},
		{0, maxHeaderLen - 1},
	} {
		if dst, n := unheader(header(c.dst, c.n)); dst != c.dst || n != c.n {
			t.Errorf("header(%d, %d) decodes to (%d, %d)", c.dst, c.n, dst, n)
		}
	}
	// An oversized field panics instead of rounding the packed value.
	for _, c := range []struct {
		dst, n int
		want   string
	}{
		{maxHeaderDst, 0, "destination"},
		{-1, 0, "destination"},
		{0, maxHeaderLen, "payload"},
	} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, c.want) {
					t.Errorf("header(%d, %d): recovered %v, want a %s panic", c.dst, c.n, r, c.want)
				}
			}()
			header(c.dst, c.n)
		}()
	}
}
