package hypercube

import "sync/atomic"

// Lock-free links and per-processor park/wake.
//
// Every directed cube link has exactly one producer (the sending
// neighbor) and one consumer (the receiving processor), so it is a
// bounded single-producer single-consumer ring: the consumer alone
// advances head, the producer alone advances tail, and neither side
// takes a lock on the fast path. A processor that must block — an
// empty ring on Recv, a full one on Send — publishes what it waits
// for in its parker's state word, checks the ring once more, and
// parks on its own wake channel. The partner pushes or pops, then
// reads that state word and drops a wake token only if it names this
// link. Both sides store (their index, resp. the state word) before
// they load the other side's, and sync/atomic operations are
// sequentially consistent, so at least one of them sees the other:
// either the waiter finds the ring ready or the partner finds the
// waiter asleep. Stray tokens (a wake that lost that race, an abort,
// a watchdog fire) only cost the waiter one extra pass of its loop.

// cacheLine is the padding unit that keeps fields written by
// different goroutines on different cache lines.
const cacheLine = 64

// parker is one processor's park/wake handle. It is allocated apart
// from the Proc, and holds no reference back to it, so the watchdog
// timer's callback (which captures the parker) cannot keep a dropped
// Machine alive.
type parker struct {
	_ [cacheLine]byte
	// state is 0 while the processor runs; while it waits on a link it
	// holds that link's wait code (link.rxWait or link.txWait).
	// Written by the owner on the park path only, read by its
	// neighbors after every push and pop.
	state atomic.Int32
	// fires counts watchdog expiries (see Proc.watch).
	fires atomic.Uint64
	// wake holds at most one pending token.
	wake chan struct{}
	_    [cacheLine]byte
}

func newParker() *parker { return &parker{wake: make(chan struct{}, 1)} }

// wakeUp drops a token unless one is already pending.
func (k *parker) wakeUp() {
	select {
	case k.wake <- struct{}{}:
	default:
	}
}

// fire is the watchdog timer's callback.
func (k *parker) fire() {
	k.fires.Add(1)
	k.wakeUp()
}

// link is one directed cube link: a bounded SPSC ring of messages.
// head and tail count the messages ever popped and pushed; r and w are
// the matching slot indices, kept by their owners so neither side
// divides. tailSeen and headSeen cache the other side's counter and
// are refreshed only when the cached value says empty or full.
type link struct {
	slots  []message
	rx, tx *parker // the consumer's and the producer's
	rxWait int32   // rx.state while the consumer waits for a message
	txWait int32   // tx.state while the producer waits for room
	_      [cacheLine]byte

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

// tryPush appends *msg unless the ring is full, then wakes the
// consumer if it is parked on this link. Producer only.
func (l *link) tryPush(msg *message) bool {
	t := l.tail.Load()
	if t-l.headSeen == uint64(len(l.slots)) {
		l.headSeen = l.head.Load()
		if t-l.headSeen == uint64(len(l.slots)) {
			return false
		}
	}
	l.slots[l.w] = *msg
	if l.w++; l.w == len(l.slots) {
		l.w = 0
	}
	l.tail.Store(t + 1)
	if l.rx.state.Load() == l.rxWait {
		l.rx.wakeUp()
	}
	return true
}

// tryPop moves the oldest message into *msg unless the ring is empty,
// then wakes the producer if it is parked on this link. Consumer only,
// or any goroutine once the run has quiesced.
func (l *link) tryPop(msg *message) bool {
	h := l.head.Load()
	if h == l.tailSeen {
		l.tailSeen = l.tail.Load()
		if h == l.tailSeen {
			return false
		}
	}
	*msg = l.slots[l.r]
	l.slots[l.r] = message{} // drop the payload references
	if l.r++; l.r == len(l.slots) {
		l.r = 0
	}
	l.head.Store(h + 1)
	if l.tx.state.Load() == l.txWait {
		l.tx.wakeUp()
	}
	return true
}

// canPop and canPush read both counters afresh: the park loop's
// re-check after it has published its wait code.
func (l *link) canPop() bool  { return l.tail.Load() != l.head.Load() }
func (l *link) canPush() bool { return l.tail.Load()-l.head.Load() < uint64(len(l.slots)) }
