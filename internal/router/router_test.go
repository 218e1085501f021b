package router

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
	got := decodeAll(encode(nil, msgs))
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
	if len(decodeAll(nil)) != 0 {
		t.Fatal("decodeAll(nil) non-empty")
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
	// So does a key that a wire word would round.
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "key") {
				t.Errorf("appendWire with key 2^53+1: recovered %q, want a key panic", msg)
			}
		}()
		appendWire(nil, Msg{Key: maxKey + 1})
	}()
}

// encode appends the wire encoding of msgs to buf.
func encode(buf []float64, msgs []Msg) []float64 {
	for _, m := range msgs {
		buf = appendWire(buf, m)
	}
	return buf
}

// decodeAll decodes a whole wire the way Route does: scan sizes the
// message slice and the payload arena, decode fills them.
func decodeAll(wire []float64) []Msg {
	n, words := scan(wire)
	return decode(make([]Msg, 0, n), make([]float64, 0, words), wire)
}

// refRoute is the router as it was before Route moved its scratch into
// flat per-call buffers: a fresh payload slice per decoded message and
// a growing forward list per phase. It is the oracle for the delivered
// order and the simulated clocks, which the rewrite must not change.
func refRoute(p *hypercube.Proc, tag int, outgoing []Msg) []Msg {
	p.BeginSpan("route")
	defer p.EndSpan()
	p.NoteCollective("route", p.FullMask(), tag)
	if p.Profiling() {
		words := 0
		for _, m := range outgoing {
			words += len(m.Words)
		}
		p.SpanPredict(costmodel.PredictRoute(p.Params(), p.Dim(), len(outgoing), words, headerWords))
	}
	for _, m := range outgoing {
		if m.Dst < 0 || m.Dst >= p.P() {
			panic(fmt.Sprintf("router: destination %d out of range [0,%d)", m.Dst, p.P()))
		}
	}
	pending := make([]Msg, len(outgoing))
	copy(pending, outgoing)
	for i := 0; i < p.Dim(); i++ {
		keep := pending[:0]
		var fwd []Msg
		words := 0
		for _, m := range pending {
			if (m.Dst>>i)&1 != (p.ID()>>i)&1 {
				fwd = append(fwd, m)
				words += len(m.Words)
			} else {
				keep = append(keep, m)
			}
		}
		pending = keep
		p.RoutePhaseCharge(len(fwd), words)
		got := p.Exchange(i, tag<<6|i, refEncode(fwd))
		pending = append(pending, refDecode(got)...)
	}
	return pending
}

func refEncode(msgs []Msg) []float64 {
	n := 0
	for _, m := range msgs {
		n += headerWords + len(m.Words)
	}
	flat := make([]float64, 0, n)
	for _, m := range msgs {
		flat = append(flat, header(m.Dst, len(m.Words)), float64(m.Key))
		flat = append(flat, m.Words...)
	}
	return flat
}

func refDecode(flat []float64) []Msg {
	var msgs []Msg
	for i := 0; i < len(flat); {
		dst, n := unheader(flat[i])
		key := int(flat[i+1])
		i += headerWords
		words := make([]float64, n)
		copy(words, flat[i:i+n])
		i += n
		msgs = append(msgs, Msg{Dst: dst, Key: key, Words: words})
	}
	return msgs
}

// randomTraffic gives every processor a self-message with an empty
// payload, a message to one hot-spot processor (all-to-one), one along
// a random permutation, and up to five more to random destinations
// (self included) with 0–3 payload words each.
func randomTraffic(rng *rand.Rand, P int) [][]Msg {
	perm := rng.Perm(P)
	hot := rng.Intn(P)
	out := make([][]Msg, P)
	for pid := range out {
		msgs := []Msg{
			{Dst: pid, Key: -1 - pid},
			{Dst: hot, Key: pid, Words: []float64{float64(pid)}},
			{Dst: perm[pid], Key: P + pid, Words: []float64{1, 2, float64(pid)}},
		}
		for j := rng.Intn(6); j > 0; j-- {
			words := make([]float64, rng.Intn(4))
			for k := range words {
				words[k] = rng.NormFloat64()
			}
			dst := rng.Intn(P)
			if rng.Intn(4) == 0 {
				dst = pid
			}
			msgs = append(msgs, Msg{Dst: dst, Key: rng.Intn(1000) - 500, Words: words})
		}
		rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
		out[pid] = msgs
	}
	return out
}

func sameMsgs(a, b []Msg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dst != b[i].Dst || a[i].Key != b[i].Key || len(a[i].Words) != len(b[i].Words) {
			return false
		}
		for k, w := range a[i].Words {
			if math.Float64bits(w) != math.Float64bits(b[i].Words[k]) {
				return false
			}
		}
	}
	return true
}

func TestRouteMatchesReference(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, gmp := range []int{1, 2} {
		runtime.GOMAXPROCS(gmp)
		for d := 0; d <= 6; d++ {
			m := hypercube.MustNew(d, costmodel.CM2())
			for seed := int64(0); seed < 3; seed++ {
				traffic := randomTraffic(rand.New(rand.NewSource(seed*7+int64(d))), m.P())
				route := func(f func(*hypercube.Proc, int, []Msg) []Msg) ([][]Msg, costmodel.Time) {
					got := make([][]Msg, m.P())
					elapsed, err := m.Run(func(p *hypercube.Proc) {
						got[p.ID()] = f(p, 3, traffic[p.ID()])
					})
					if err != nil {
						t.Fatal(err)
					}
					return got, elapsed
				}
				want, wantT := route(refRoute)
				got, gotT := route(Route)
				if gotT != wantT {
					t.Errorf("gomaxprocs %d d=%d seed %d: Elapsed %v, reference %v", gmp, d, seed, gotT, wantT)
				}
				for pid := range got {
					if !sameMsgs(got[pid], want[pid]) {
						t.Errorf("gomaxprocs %d d=%d seed %d proc %d: delivered\n%v\nreference\n%v",
							gmp, d, seed, pid, got[pid], want[pid])
					}
				}
			}
			m.Close()
		}
	}
}

func TestRouteResultsDoNotAlias(t *testing.T) {
	for _, d := range []int{0, 3} {
		m := hypercube.MustNew(d, costmodel.CM2())
		_, err := m.Run(func(p *hypercube.Proc) {
			id := float64(p.ID())
			out := []Msg{
				{Dst: 0, Key: 2 * p.ID(), Words: []float64{id, 1}},
				{Dst: 0, Key: 2*p.ID() + 1, Words: []float64{id, 2}},
				{Dst: p.ID(), Key: -1 - p.ID(), Words: []float64{id, 3}},
			}
			in := Route(p, 1, out)
			want := make([]Msg, len(in))
			for i, msg := range in {
				want[i] = Msg{Dst: msg.Dst, Key: msg.Key, Words: append([]float64(nil), msg.Words...)}
			}
			for _, msg := range out {
				for k := range msg.Words {
					msg.Words[k] = -7
				}
			}
			for _, msg := range in {
				_ = append(msg.Words, -8)
			}
			if !sameMsgs(in, want) {
				panic(fmt.Sprintf("delivered payloads changed: %v, want %v", in, want))
			}
		})
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		m.Close()
	}
}

func TestRequestResultsDoNotAlias(t *testing.T) {
	m := hypercube.MustNew(3, costmodel.CM2())
	defer m.Close()
	_, err := m.Run(func(p *hypercube.Proc) {
		want := make([]Msg, p.P())
		for q := range want {
			want[q] = Msg{Dst: q, Key: q}
		}
		// serve hands back one scratch buffer every call.
		scratch := make([]float64, 2)
		got := Request(p, 10, want, func(k int) []float64 {
			scratch[0], scratch[1] = float64(p.ID()), float64(k)
			return scratch
		})
		scratch[0], scratch[1] = -7, -7
		for _, r := range got {
			_ = append(r, -8)
		}
		for q, r := range got {
			if len(r) != 2 || r[0] != float64(q) || r[1] != float64(q) {
				panic(fmt.Sprintf("fetch from %d: got %v, want [%d %d]", q, r, q, q))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRouteAllocsFlatInMessageCount(t *testing.T) {
	// Route's buffers are per call, not per message: sixteen times
	// the one-word messages must not cost more allocations. Before
	// the flat buffers, every decoded message was its own allocation
	// (about 16x the allocations at 256 messages as at 16).
	m := hypercube.MustNew(4, costmodel.CM2())
	defer m.Close()
	perProc := func(k int) float64 {
		outs := make([][]Msg, m.P())
		for pid := range outs {
			words := make([]float64, k)
			outs[pid] = make([]Msg, k)
			for j := range outs[pid] {
				outs[pid][j] = Msg{Dst: (pid + 7*j) % m.P(), Key: j, Words: words[j : j+1 : j+1]}
			}
		}
		body := func(p *hypercube.Proc) { Route(p, 1, outs[p.ID()]) }
		return testing.AllocsPerRun(10, func() {
			if _, err := m.Run(body); err != nil {
				t.Fatal(err)
			}
		}) / float64(m.P())
	}
	few, many := perProc(16), perProc(256)
	t.Logf("allocations per processor per Route: %.1f at 16 messages, %.1f at 256", few, many)
	if many > few+1 {
		t.Fatalf("Route allocates %.1f objects/proc at 256 messages vs %.1f at 16: allocation grows with message count", many, few)
	}
}
