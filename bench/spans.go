package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a layer call made (or, for mapd, reported)
// on behalf of one operation. Parent is the index of the causing span in
// the recorder, -1 for an operation's root span.
type span struct {
	Name   string
	Start  time.Duration // offset from the recorder's start
	End    time.Duration
	Parent int
	Op     int // operation id shared by every span of one op
}

// spanRecorder keeps spans in memory until the run ends; the traced pass
// writes them out once, as Chrome trace-event JSON, after measuring.
type spanRecorder struct {
	mu    sync.Mutex
	start time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{start: time.Now()} }

// add records a span from absolute times and returns its index.
func (r *spanRecorder) add(name string, start, end time.Time, parent, op int) int {
	return r.addOffsets(name, start.Sub(r.start), end.Sub(r.start), parent, op)
}

func (r *spanRecorder) addOffsets(name string, start, end time.Duration, parent, op int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// call times fn as a child span of parent.
func (r *spanRecorder) call(name string, parent, op int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if r != nil {
		r.add(name, start, end, parent, op)
	}
	return end.Sub(start)
}

// alias records a child span covering parent's whole interval: the op was
// a single call into the named layer.
func (r *spanRecorder) alias(name string, parent, op int) {
	r.mu.Lock()
	ps := r.spans[parent]
	r.mu.Unlock()
	r.addOffsets(name, ps.Start, ps.End, parent, op)
}

// closeOp records op's root span and adopts every parentless span of the
// same op recorded before it (layer calls are timed before their op ends).
func (r *spanRecorder) closeOp(name string, start, end time.Time, op int) int {
	root := r.add(name, start, end, -1, op)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans[:root] {
		if r.spans[i].Op == op && r.spans[i].Parent == -1 {
			r.spans[i].Parent = root
		}
	}
	return root
}

// merge appends other's spans (a layer replay recorded on the side),
// keeping their parent links, under op ids past the ones already used.
func (r *spanRecorder) merge(other *spanRecorder) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base, shift := len(r.spans), other.start.Sub(r.start)
	opBase := 0
	for _, s := range r.spans {
		if s.Op >= opBase {
			opBase = s.Op + 1
		}
	}
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Start, s.End, s.Op = s.Start+shift, s.End+shift, s.Op+opBase
		r.spans = append(r.spans, s)
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its direct children (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// selfTimeByName aggregates self time per span name, in milliseconds.
func selfTimeByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], ms(self[i]))
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON — the format
// internal/trace emits (traceEvents of complete "X" slices here, one track
// per nesting depth) — loadable in chrome://tracing or ui.perfetto.dev.
func (r *spanRecorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	depth := make([]int, len(spans))
	for i := range spans {
		for p := spans[i].Parent; p >= 0 && depth[i] < 8; p = spans[p].Parent {
			depth[i]++
		}
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start),
			PID: 0, TID: depth[i],
			Args: map[string]any{"op": s.Op, "parent": s.Parent},
		})
	}
	doc := struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
