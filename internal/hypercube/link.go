package hypercube

import "sync/atomic"

// Links and the processor park/wake protocol.
//
// Every directed cube link has exactly one producer (the sending
// neighbor) and one consumer (the receiving processor), so it is a
// bounded single-producer single-consumer FIFO. How much
// synchronization it needs depends on where its two ends run (see
// engine.go): a link whose ends are coroutines of the same worker is a
// plain FIFO, since only one of them runs at a time; a link between
// workers is a lock-free ring whose consumer alone advances head and
// whose producer alone advances tail.
//
// A processor that must block — an empty link on Recv, a full one on
// Send — records what it waits for in its coroutine's wait word and
// yields to its worker. The partner pushes or pops, then reads that
// word and schedules the waiter only if the word names this link. On a
// same-worker link the word is a plain field and the wake a plain
// run-queue push. On a ring the word is atomic: both sides store (their
// index, resp. the word) before they load the other side's, and
// sync/atomic operations are sequentially consistent, so at least one
// of them sees the other — either the waiter finds the ring ready or
// the partner finds the waiter's word. Whoever clears the word with a
// compare-and-swap owns the wake, so a waiter is scheduled exactly
// once.

// cacheLine is the padding unit that keeps fields written by
// different workers on different cache lines.
const cacheLine = 64

// link is one directed cube link: a bounded FIFO of messages. On a
// same-worker link r, w and n are the read index, the write index and
// the length; a cross-worker link keeps its indices in x instead.
type link struct {
	slots  []message
	rx, tx *coro // the consumer's and the producer's
	rxWait int32 // the consumer's wait code while it waits for a message
	txWait int32 // the producer's wait code while it waits for room
	r, w   int
	n      int
	x      *ring // nil unless the link crosses workers
}

// ring is the cross-worker state of a link. head and tail count the
// messages ever popped and pushed; r and w are the matching slot
// indices, kept by their owners so neither side divides. tailSeen and
// headSeen cache the other side's counter and are refreshed only when
// the cached value says empty or full.
type ring struct {
	_        [cacheLine]byte
	head     atomic.Uint64
	r        int
	tailSeen uint64
	_        [cacheLine]byte
	tail     atomic.Uint64
	w        int
	headSeen uint64
	_        [cacheLine]byte
}

// Wait codes: a processor waiting for a message on dimension d, or for
// room on its dimension-d outbound link.
func recvWait(d int) int32 { return int32(2*d + 1) }
func sendWait(d int) int32 { return int32(2*d + 2) }

// tryPush appends *msg unless the link is full, then wakes the
// consumer if it is parked on this link. Producer only.
func (l *link) tryPush(msg *message) bool {
	if x := l.x; x != nil {
		t := x.tail.Load()
		if t-x.headSeen == uint64(len(l.slots)) {
			x.headSeen = x.head.Load()
			if t-x.headSeen == uint64(len(l.slots)) {
				return false
			}
		}
		l.slots[x.w] = *msg
		if x.w++; x.w == len(l.slots) {
			x.w = 0
		}
		x.tail.Store(t + 1)
		l.rx.wakeRemote(l.rxWait, l.tx)
		return true
	}
	if l.n == len(l.slots) {
		return false
	}
	l.slots[l.w] = *msg
	if l.w++; l.w == len(l.slots) {
		l.w = 0
	}
	l.n++
	l.rx.wakeLocal(l.rxWait)
	return true
}

// tryPop moves the oldest message into *msg unless the link is empty,
// then wakes the producer if it is parked on this link. Consumer only,
// or any goroutine once the run has quiesced.
func (l *link) tryPop(msg *message) bool {
	if x := l.x; x != nil {
		h := x.head.Load()
		if h == x.tailSeen {
			x.tailSeen = x.tail.Load()
			if h == x.tailSeen {
				return false
			}
		}
		*msg = l.slots[x.r]
		l.slots[x.r] = message{} // drop the payload references
		if x.r++; x.r == len(l.slots) {
			x.r = 0
		}
		x.head.Store(h + 1)
		l.tx.wakeRemote(l.txWait, l.rx)
		return true
	}
	if l.n == 0 {
		return false
	}
	*msg = l.slots[l.r]
	l.slots[l.r] = message{}
	if l.r++; l.r == len(l.slots) {
		l.r = 0
	}
	l.n--
	l.tx.wakeLocal(l.txWait)
	return true
}

// canPop and canPush report whether the consumer, resp. the producer,
// could proceed; on a ring they read both counters afresh, which is
// the park loop's re-check after it has published its wait code.
func (l *link) canPop() bool {
	if x := l.x; x != nil {
		return x.tail.Load() != x.head.Load()
	}
	return l.n > 0
}

func (l *link) canPush() bool {
	if x := l.x; x != nil {
		return x.tail.Load()-x.head.Load() < uint64(len(l.slots))
	}
	return l.n < len(l.slots)
}

// reset empties the link's indices and sets its mode: a ring when x is
// non-nil, a plain FIFO otherwise. The link must hold no messages.
func (l *link) reset(x *ring) {
	l.r, l.w, l.n = 0, 0, 0
	l.x = x
}
