// Package flightrec is the simulator's flight recorder: a bounded,
// always-on, per-processor ring buffer of recent simulator events
// (sends, receives, collective entries) and the post-mortem report the
// machine assembles from it when a run dies — by a detected deadlock
// or by a panic inside a processor body.
//
// The package follows the same discipline as internal/obs: it is
// passive and cheap. internal/hypercube records events into each
// processor's Ring on the communication hot paths (a single struct
// store per message, no allocation, no locking — each ring is touched
// only by its processor's goroutine during a run), and assembles a
// Report only after a run has already failed. flightrec depends only
// on internal/costmodel, so every layer above the machine can import
// it without cycles.
//
// Events are kept in causal (sequence) order per processor. Under the
// one-port machine model a processor's virtual clock is nondecreasing
// across events, so the sequence order is also virtual-time order;
// all-port ExchangeAll phases may post their per-dimension messages
// with non-monotone arrival stamps inside the single phase, which is
// the one documented exception.
package flightrec

import "vmprim/internal/costmodel"

// Kind classifies one recorded event.
type Kind uint8

const (
	// KindSend is a link message posted to a neighbor.
	KindSend Kind = iota
	// KindRecv is a link message consumed from a neighbor.
	KindRecv
	// KindCollective is the entry into a collective protocol (or a
	// router phase); Label carries the protocol name and Dim the
	// subcube dimension mask.
	KindCollective
	// KindCapture is a payload handed to the recorder with
	// Proc.Capture for post-mortem inspection.
	KindCapture
)

// String returns the compact event-kind name used by the renderers.
func (k Kind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindCollective:
		return "coll"
	case KindCapture:
		return "capt"
	default:
		return "?"
	}
}

// Event is one recorded simulator event. The ring stores events by
// value; Label is always a static string (a collective name), so
// recording never allocates.
type Event struct {
	// Seq is the processor-local sequence number, counted from 0 at
	// the start of the run over all events ever recorded (not just the
	// ones still in the ring).
	Seq uint64 `json:"seq"`
	// VT is the processor's virtual time when the event was recorded;
	// for sends it is the message's arrival stamp.
	VT costmodel.Time `json:"vt_us"`
	// Kind classifies the event.
	Kind Kind `json:"-"`
	// Label is the collective protocol name for KindCollective, empty
	// otherwise.
	Label string `json:"label,omitempty"`
	// Dim is the cube dimension of the link (KindSend/KindRecv) or the
	// subcube dimension mask (KindCollective).
	Dim int `json:"dim"`
	// Tag is the protocol tag.
	Tag int `json:"tag"`
	// Words is the payload length in 64-bit words.
	Words int `json:"words"`
	// Span is the node id of the innermost open profiler span at
	// record time (-1 when profiling is off or no span is open); the
	// report resolves it to SpanName.
	Span int `json:"-"`
	// Depth is the open-span-stack depth at record time.
	Depth int `json:"span_depth,omitempty"`
	// SpanName is the resolved name of Span, filled in by the report
	// assembler (empty in the ring).
	SpanName string `json:"span,omitempty"`
}

// KindName is the string form of Kind for the JSON report (Kind itself
// is excluded from marshalling so the document stays readable).
func (ev Event) KindName() string { return ev.Kind.String() }

// Ring is a bounded buffer of the most recent events on one processor.
// The zero Ring drops everything; size it with Init. All methods are
// single-goroutine: the owning processor records during a run, and the
// machine snapshots only after the run has ended.
type Ring struct {
	buf []Event // capacity is a power of two; mask = len-1
	n   uint64  // total events recorded since the last Reset
}

// Init (re)allocates the ring to hold k events, rounding k up to the
// next power of two; k <= 0 disables recording.
func (r *Ring) Init(k int) {
	if k <= 0 {
		r.buf = nil
		r.n = 0
		return
	}
	c := 1
	for c < k {
		c <<= 1
	}
	r.buf = make([]Event, c)
	r.n = 0
}

// Reset forgets all recorded events without releasing the buffer.
func (r *Ring) Reset() { r.n = 0 }

// Depth returns the ring capacity in events.
func (r *Ring) Depth() int { return len(r.buf) }

// Total returns how many events were recorded since the last Reset,
// including ones that have already been overwritten.
func (r *Ring) Total() uint64 { return r.n }

// Record appends ev, stamping its sequence number and overwriting the
// oldest event once the ring is full.
func (r *Ring) Record(ev Event) {
	if len(r.buf) == 0 {
		return
	}
	ev.Seq = r.n
	r.buf[r.n&uint64(len(r.buf)-1)] = ev
	r.n++
}

// Snapshot appends the retained events to dst, oldest first, and
// returns the extended slice.
func (r *Ring) Snapshot(dst []Event) []Event {
	if len(r.buf) == 0 || r.n == 0 {
		return dst
	}
	mask := uint64(len(r.buf) - 1)
	start := uint64(0)
	if r.n > uint64(len(r.buf)) {
		start = r.n - uint64(len(r.buf))
	}
	for s := start; s < r.n; s++ {
		dst = append(dst, r.buf[s&mask])
	}
	return dst
}
