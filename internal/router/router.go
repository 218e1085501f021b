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
	"math"

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
// exact in a float64, only while len < 2^32 and dst < 2^21. A key word
// is exact while |key| <= 2^53.
const (
	maxHeaderLen = 1 << 32
	maxHeaderDst = 1 << 21
	maxKey       = 1 << 53
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

// exactInt reports whether w holds an integer in [lo, hi], so that
// converting it to int neither rounds nor overflows.
func exactInt(w, lo, hi float64) bool {
	return w >= lo && w <= hi && w == math.Trunc(w)
}

// appendWire appends one message's wire encoding — header, key,
// payload — to buf.
func appendWire(buf []float64, m Msg) []float64 {
	if m.Key < -maxKey || m.Key > maxKey {
		panic(fmt.Sprintf("router: key %d is not exact in a wire word (|key| <= 2^53)", m.Key))
	}
	buf = append(buf, header(m.Dst, len(m.Words)), float64(m.Key))
	return append(buf, m.Words...)
}

// scan checks a link transfer and counts its messages and payload
// words, which size decode's destination. A malformed wire — a
// truncated header, a header or key word that is not an exact integer
// in range, a length that overruns the buffer — is a protocol bug and
// panics with a router message instead of reading out of bounds.
func scan(wire []float64) (msgs, words int) {
	for i := 0; i < len(wire); {
		if len(wire)-i < headerWords {
			panic(fmt.Sprintf("router: truncated header at word %d of a %d-word wire", i, len(wire)))
		}
		if !exactInt(wire[i], 0, maxHeaderDst*maxHeaderLen-1) {
			panic(fmt.Sprintf("router: malformed header %v at word %d", wire[i], i))
		}
		if !exactInt(wire[i+1], -maxKey, maxKey) {
			panic(fmt.Sprintf("router: malformed key %v at word %d", wire[i+1], i+1))
		}
		_, n := unheader(wire[i])
		i += headerWords
		if n > len(wire)-i {
			panic(fmt.Sprintf("router: %d-word payload at word %d overruns the %d-word wire", n, i, len(wire)))
		}
		i += n
		msgs++
		words += n
	}
	return msgs, words
}

// decode appends the messages of a wire that scan accepted to msgs,
// copying their payloads into arena, which must have room for all of
// them (see deliver).
func decode(msgs []Msg, arena, wire []float64) []Msg {
	for i := 0; i < len(wire); {
		dst, n := unheader(wire[i])
		key := int(wire[i+1])
		i += headerWords
		msgs, arena = deliver(msgs, arena, dst, key, wire[i:i+n])
		i += n
	}
	return msgs
}

// deliver appends a message to msgs with its payload copied into
// arena. The caller sizes arena for every payload it will hold, so the
// append never reallocates, and each Words is a cap-limited view: a
// receiver appending to one payload gets a fresh array instead of
// overwriting the next.
func deliver(msgs []Msg, arena []float64, dst, key int, words []float64) ([]Msg, []float64) {
	lo := len(arena)
	arena = append(arena, words...)
	hi := len(arena)
	return append(msgs, Msg{Dst: dst, Key: key, Words: arena[lo:hi:hi]}), arena
}

// Route delivers every processor's outgoing messages to their
// destinations through dimension-ordered routing and returns the
// messages addressed to the calling processor (including any the
// processor sent to itself). Message order in the result is
// deterministic: after each phase the messages kept here come first,
// in their previous order, then the phase's arrivals in wire order.
// Receivers should still dispatch on Key. Route is a machine-wide
// collective: every processor must call it with the same tag.
//
// The delivered payloads are copies: they share no memory with the
// caller's outgoing payloads or with each other, and appending to one
// never changes another. All of them live in one exact-size array, and
// each phase allocates a fixed number of buffers however many messages
// it routes: a send buffer, which the exchange hands over to the
// neighbor as its received wire, and a payload arena. That scratch is
// sized exactly, never pooled and dropped by the end of the next
// phase: a transpose e-cube-routes its traffic through a few hot-spot
// processors, and router buffers sized for those peaks stay resident
// when anything holds on to them (see DESIGN.md, "Buffer pools and
// router scratch").
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
	if p.Dim() == 0 {
		// One processor: every message is a self-message, copied out.
		words := 0
		for _, m := range outgoing {
			words += len(m.Words)
		}
		msgs, arena := make([]Msg, 0, len(outgoing)), make([]float64, 0, words)
		for _, m := range outgoing {
			msgs, arena = deliver(msgs, arena, m.Dst, m.Key, m.Words)
		}
		return msgs
	}
	// pending holds the messages here: the caller's before phase 0,
	// then Route's own.
	pending := outgoing
	for i := 0; i < p.Dim(); i++ {
		bit, mine := 1<<i, p.ID()&(1<<i)
		nFwd, fwdWords, keepWords := 0, 0, 0
		for _, m := range pending {
			if m.Dst&bit != mine {
				nFwd++
				fwdWords += len(m.Words)
			} else {
				keepWords += len(m.Words)
			}
		}
		// The router charges per-phase start-up plus per-message
		// handling on the payload volume; the link transfer itself
		// (payload + headers) is charged by the exchange.
		p.RoutePhaseCharge(nFwd, fwdWords)
		send := make([]float64, 0, headerWords*nFwd+fwdWords)
		for _, m := range pending {
			if m.Dst&bit != mine {
				send = appendWire(send, m)
			}
		}
		got := p.ExchangeOwned(i, tag<<6|i, send)
		nGot, gotWords := scan(got)

		// Kept messages, then arrivals in wire order, their payloads
		// copied into a fresh exact-size arena: the previous arena and
		// the received wire (the neighbor's send buffer) are garbage
		// once the phase ends. Between the first and the last phase
		// the message slice is compacted in place when it is big
		// enough; the result is exact-size.
		n := len(pending) - nFwd + nGot
		inPlace := i > 0 && i < p.Dim()-1 && cap(pending) >= n
		next := pending[:0]
		if !inPlace {
			next = make([]Msg, 0, n)
		}
		arena := make([]float64, 0, keepWords+gotWords)
		for _, m := range pending {
			if m.Dst&bit == mine {
				next, arena = deliver(next, arena, m.Dst, m.Key, m.Words)
			}
		}
		next = decode(next, arena, got)
		if inPlace && n < len(pending) {
			// The collector scans the whole backing array: drop the
			// stale tail's views into the previous arena.
			clear(pending[n:])
		}
		pending = next
	}
	return pending
}

// Request pairs a round-trip through the router: each processor sends
// read requests for remote values and answers the requests it
// receives. want lists (owner processor, key) pairs; serve must return
// the payload for a key this processor owns. Request copies each
// payload before calling serve again, so serve may return the same
// scratch buffer every time. The result maps each request index to
// the fetched payload, in the order of want; like Route's, the
// payloads share no memory with serve's or with each other.
//
// This is the access pattern of the naive implementations: fetch the
// remote operands element by element, with no combining.
func Request(p *hypercube.Proc, tag int, want []Msg, serve func(key int) []float64) [][]float64 {
	p.BeginSpan("route-request")
	defer p.EndSpan()
	p.NoteCollective("route-request", p.FullMask(), tag)
	// Phase 1: route the requests. Key carries the requested item;
	// the payload carries the requester's address and request index,
	// all of them in one flat slice.
	reqs := make([]Msg, len(want))
	reqWords := make([]float64, 2*len(want))
	for i, w := range want {
		words := reqWords[2*i : 2*i+2 : 2*i+2]
		words[0], words[1] = float64(p.ID()), float64(i)
		reqs[i] = Msg{Dst: w.Dst, Key: w.Key, Words: words}
	}
	arrived := Route(p, tag, reqs)

	// Phase 2: route the responses back, each the request index then
	// the payload, in one flat slice sized from the first payload (the
	// callers serve fixed-size payloads). Should a later append move
	// the slice, the views taken so far stay valid: the array they
	// point into is never written again.
	resps := make([]Msg, len(arrived))
	var respWords []float64
	for i, r := range arrived {
		payload := serve(r.Key)
		if respWords == nil {
			respWords = make([]float64, 0, len(arrived)*(1+len(payload)))
		}
		lo := len(respWords)
		respWords = append(respWords, r.Words[1])
		respWords = append(respWords, payload...)
		resps[i] = Msg{Dst: int(r.Words[0]), Key: r.Key, Words: respWords[lo:len(respWords):len(respWords)]}
	}
	back := Route(p, tag+1, resps)

	out := make([][]float64, len(want))
	for _, r := range back {
		out[int(r.Words[0])] = r.Words[1:]
	}
	return out
}
