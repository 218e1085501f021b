package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's
// own code around a public call. Start and End are nanoseconds since
// the tracer was created. Parent is the index of the enclosing span,
// or -1 for a root. Req groups the spans of one request (a vmprimd run
// id, a table pass, a bulk pass).
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    string `json:"req,omitempty"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is a
// disabled tracer: every method is a no-op, so untraced runs share the
// traced code path at the cost of one nil check per call.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its index (-1 when disabled).
func (t *Tracer) Begin(name string, parent int, req string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// SetReq sets the request id of span id, for requests whose id is
// known only after their first call returns.
func (t *Tracer) SetReq(id int, req string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Req = req
	t.mu.Unlock()
}

// Spans returns a copy of the closed spans' table (open spans keep
// End -1).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes every span as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	buf, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{t.Spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// SelfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its children cover. Children of
// a concurrent parent may overlap each other, so the covered part is
// the length of the union of their intervals, clipped to the parent.
// Open spans have self time 0.
func SelfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			cs := spans[c]
			lo, hi := max(cs.Start, s.Start), cs.End
			if cs.End < cs.Start {
				hi = s.End // an open child covers the rest of its parent
			}
			hi = min(hi, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, curLo, curHi := int64(0), int64(0), int64(-1)
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName collects the self times (ns) of every closed span with
// the given name.
func selfByName(spans []Span, self []int64, name string) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(self[i]))
		}
	}
	return out
}

// durByName collects the durations (ns) of every closed span with the
// given name.
func durByName(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}
