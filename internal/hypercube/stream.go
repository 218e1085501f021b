package hypercube

import "vmprim/internal/obs"

// Live event streaming (see internal/obs stream.go for the event
// vocabulary). The machine emits span-open/span-close/progress events
// from processor 0 while the run executes, and a
// link-congestion summary once the workers have quiesced. Emission
// only observes clocks, never advances them, so a streamed run's
// simulated results are bit-identical to an unstreamed one — the same
// contract the profiler keeps.

// streamProgressEvery is the span-close period of progress heartbeats.
const streamProgressEvery = 64

// streamLinkTopK bounds the link-congestion events emitted at the end
// of a streamed run (the hottest directed links, like the profile's
// congestion table).
const streamLinkTopK = 8

// EnableStream attaches a live event sink to subsequent runs (nil
// detaches). Span events require the span machinery, so they flow only
// when EnableProfile (or EnableCritPath) is also set; progress and
// link-congestion events flow regardless. Like EnableProfile it must
// be called between runs, never during one. The sink is invoked inline
// on processor 0's worker (and on Run's caller for the link
// summary), so it must be cheap and must not block.
func (m *Machine) EnableStream(sink obs.StreamSink) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stream = sink
}

// emitSpanOpen streams one BeginSpan on processor 0. Hot-path cost
// when streaming is off: one nil check in BeginSpan.
func (p *Proc) emitSpanOpen(name string, depth int) {
	p.stream(obs.StreamEvent{
		Kind: obs.EvSpanOpen, VTUs: float64(p.clock), Name: name, Depth: depth,
	})
}

// emitSpanClose streams one EndSpan on processor 0 and, every
// streamProgressEvery closes, a progress heartbeat.
func (p *Proc) emitSpanClose(name string, depth int) {
	p.stream(obs.StreamEvent{
		Kind: obs.EvSpanClose, VTUs: float64(p.clock), Name: name, Depth: depth,
	})
	p.streamClosed++
	if p.streamClosed%streamProgressEvery == 0 {
		p.stream(obs.StreamEvent{
			Kind: obs.EvProgress, VTUs: float64(p.clock), Closed: p.streamClosed,
		})
	}
}

// emitRunSummary streams the final progress mark and the hottest-link
// census after the workers have quiesced; Run calls it on the caller's
// goroutine.
func (m *Machine) emitRunSummary(sink obs.StreamSink, elapsed float64) {
	closed := m.procs[0].streamClosed
	sink(obs.StreamEvent{Kind: obs.EvProgress, VTUs: elapsed, Closed: closed})
	for _, l := range m.linkLoads(streamLinkTopK) {
		sink(obs.StreamEvent{
			Kind: obs.EvLink, VTUs: elapsed,
			Src: l.Src, Dim: l.Dim, Dst: l.Dst, Words: l.Words,
		})
	}
}
