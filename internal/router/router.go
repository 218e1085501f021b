// Package router implements general point-to-point message routing on
// the simulated hypercube: the equivalent of the Connection Machine's
// router, and the communication substrate of the paper's "naive"
// application implementations.
//
// Routing is dimension-ordered (e-cube) store-and-forward: a full
// routing operation runs d = lg p phases; in phase i every processor
// forwards to its dimension-i neighbor all messages whose destination
// address differs from its own in bit i. After the d phases every
// message is at its destination. All processors must call Route
// together (it is a machine-wide collective), contributing possibly
// empty outgoing message lists.
//
// The cost difference from the structured collectives is deliberate
// and is the paper's central experimental point: besides the cube-edge
// transfer cost, each phase charges the router's start-up and a
// per-message handling overhead, so traffic that a primitive would
// move as one combined block costs the naive implementation one
// overhead per element-message per hop. Congestion is emergent: a
// processor whose links carry more routed volume accumulates a larger
// virtual clock, and the operation finishes at the slowest processor.
package router

import (
	"fmt"

	"vmprim/internal/costmodel"
	"vmprim/internal/hypercube"
)

// Msg is one routed message: a destination processor, an integer key
// that the application uses to identify the payload (for example a
// matrix element index), and the payload words.
type Msg struct {
	// Dst is the destination processor address in [0, P).
	Dst int
	// Key identifies the message to the receiving application code.
	Key int
	// Words is the payload.
	Words []float64
}

// headerWords is the per-message encoding overhead on the wire. The
// destination and payload length pack into one float64 (see header);
// the key rides in the second word.
const headerWords = 2

// Header field bounds: dst*2^32 + len is an integer below 2^53, and so
// exact in a float64, only while len < 2^32 and dst < 2^21.
const (
	maxHeaderLen = 1 << 32
	maxHeaderDst = 1 << 21
)

// header packs a message's destination and payload length into one
// exactly representable float64; it panics when a field is out of
// range rather than silently rounding the packed value.
func header(dst, n int) float64 {
	if dst < 0 || dst >= maxHeaderDst {
		panic(fmt.Sprintf("router: destination %d does not fit the wire header [0,2^21)", dst))
	}
	if uint64(n) >= maxHeaderLen {
		panic(fmt.Sprintf("router: payload of %d words does not fit the wire header (max 2^32-1)", n))
	}
	return float64(uint64(dst)<<32 | uint64(n))
}

// unheader inverts header.
func unheader(h float64) (dst, n int) {
	dl := uint64(h)
	return int(dl >> 32), int(dl & 0xffffffff)
}

// encode flattens messages for one link transfer.
func encode(msgs []Msg) []float64 {
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

// decode parses a link transfer back into messages.
func decode(flat []float64) []Msg {
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

// Route delivers every processor's outgoing messages to their
// destinations through dimension-ordered routing and returns the
// messages addressed to the calling processor (including any the
// processor sent to itself). Message order in the result is
// deterministic but unspecified; receivers should dispatch on Key.
// Route is a machine-wide collective: every processor must call it
// with the same tag.
func Route(p *hypercube.Proc, tag int, outgoing []Msg) []Msg {
	p.BeginSpan("route")
	defer p.EndSpan()
	p.NoteCollective("route", p.FullMask(), tag)
	if p.Profiling() {
		// Predict from the local injection load: each of the d phases
		// forwards about half of what is pending here on average.
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
		// The router charges per-phase start-up plus per-message
		// handling on the payload volume; the link transfer itself
		// (payload + headers) is charged by Exchange.
		p.RoutePhaseCharge(len(fwd), words)
		got := p.Exchange(i, tag<<6|i, encode(fwd))
		pending = append(pending, decode(got)...)
	}
	return pending
}

// Request pairs a round-trip through the router: each processor sends
// read requests for remote values and answers the requests it
// receives. want lists (owner processor, key) pairs; serve must return
// the payload for a key this processor owns. The result maps each
// request index to the fetched payload, in the order of want.
//
// This is the access pattern of the naive implementations: fetch the
// remote operands element by element, with no combining.
func Request(p *hypercube.Proc, tag int, want []Msg, serve func(key int) []float64) [][]float64 {
	p.BeginSpan("route-request")
	defer p.EndSpan()
	p.NoteCollective("route-request", p.FullMask(), tag)
	// Phase 1: route the requests. Key carries the requested item;
	// the payload carries the requester's address and request index.
	reqs := make([]Msg, len(want))
	for i, w := range want {
		reqs[i] = Msg{Dst: w.Dst, Key: w.Key, Words: []float64{float64(p.ID()), float64(i)}}
	}
	arrived := Route(p, tag, reqs)

	// Phase 2: route the responses back.
	resps := make([]Msg, len(arrived))
	for i, r := range arrived {
		requester := int(r.Words[0])
		index := int(r.Words[1])
		payload := serve(r.Key)
		words := make([]float64, 0, 1+len(payload))
		words = append(words, float64(index))
		words = append(words, payload...)
		resps[i] = Msg{Dst: requester, Key: r.Key, Words: words}
	}
	back := Route(p, tag+1, resps)

	out := make([][]float64, len(want))
	for _, r := range back {
		index := int(r.Words[0])
		out[index] = r.Words[1:]
	}
	return out
}
