package hypercube

import (
	"sync"

	"vmprim/internal/costmodel"
)

// MachinePool is an LRU cache of idle Machines keyed by configuration,
// for serving layers that run many workloads against a small set of
// machine shapes. Construction of a Machine is cheap but its steady
// state is expensive to rebuild: the persistent workers and processor
// coroutines, per-processor buffer pools and links all warm up over the
// first runs, so a pool hit hands the caller a machine whose pools are
// already equilibrated. Acquire removes the machine from the pool (a
// Machine is single-tenant: one Run at a time), Release returns it;
// machines evicted by capacity pressure are Closed.
//
// The pool is safe for concurrent use. The machines themselves are
// not shared: between Acquire and Release exactly one goroutine owns
// the machine.

// PoolKey identifies one machine configuration: the cube dimension and
// the full cost-parameter set (which includes the port model).
type PoolKey struct {
	Dim    int
	Params costmodel.Params
}

// MachinePool caches idle machines, most recently released first.
type MachinePool struct {
	mu  sync.Mutex
	cap int
	// idle is ordered most-recently-released first; eviction takes
	// from the tail.
	idle []poolSlot

	hits, misses, evictions int64
}

type poolSlot struct {
	key PoolKey
	m   *Machine
}

// NewMachinePool returns a pool retaining at most capacity idle
// machines (capacity < 1 is treated as 1).
func NewMachinePool(capacity int) *MachinePool {
	if capacity < 1 {
		capacity = 1
	}
	return &MachinePool{cap: capacity}
}

// Acquire returns a machine for key, reusing an idle pooled machine
// when one matches (hit reports which). The caller owns the machine
// until it calls Release (or Close, to retire it).
func (mp *MachinePool) Acquire(key PoolKey) (m *Machine, hit bool, err error) {
	mp.mu.Lock()
	for i := range mp.idle {
		if mp.idle[i].key == key {
			m = mp.idle[i].m
			mp.idle = append(mp.idle[:i], mp.idle[i+1:]...)
			mp.hits++
			mp.mu.Unlock()
			return m, true, nil
		}
	}
	mp.misses++
	mp.mu.Unlock()
	m, err = New(key.Dim, key.Params)
	return m, false, err
}

// Release returns a machine to the pool under its key, evicting (and
// Closing) the least recently released machine when the pool is over
// capacity.
func (mp *MachinePool) Release(key PoolKey, m *Machine) {
	var evicted []*Machine
	mp.mu.Lock()
	mp.idle = append([]poolSlot{{key: key, m: m}}, mp.idle...)
	for len(mp.idle) > mp.cap {
		last := mp.idle[len(mp.idle)-1]
		mp.idle = mp.idle[:len(mp.idle)-1]
		evicted = append(evicted, last.m)
		mp.evictions++
	}
	mp.mu.Unlock()
	for _, em := range evicted {
		em.Close()
	}
}

// PoolStats is a point-in-time summary of pool traffic.
type PoolStats struct {
	// Hits and Misses count Acquire calls served from the pool versus
	// by constructing a new machine; Evictions counts machines closed
	// by capacity pressure.
	Hits, Misses, Evictions int64
	// Idle is the number of machines currently pooled.
	Idle int
}

// Stats returns the pool's counters.
func (mp *MachinePool) Stats() PoolStats {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	return PoolStats{
		Hits: mp.hits, Misses: mp.misses, Evictions: mp.evictions,
		Idle: len(mp.idle),
	}
}

// Close retires every pooled machine and empties the pool. Machines
// currently acquired are unaffected; releasing them afterwards pools
// them again (callers shutting down should Close machines instead of
// releasing them once the pool itself is closed).
func (mp *MachinePool) Close() {
	mp.mu.Lock()
	idle := mp.idle
	mp.idle = nil
	mp.mu.Unlock()
	for _, s := range idle {
		s.m.Close()
	}
}
