package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer's public function. Spans of one
// simulation cell share its Cell id; Parent is the enclosing span's ID (0
// for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Cell   string `json:"cell"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer holds spans in memory until the run ends. A nil *Tracer records
// nothing, which is the spans-off path the tracing overhead is measured
// against.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Open is a started span; End records it.
type Open struct {
	t    *Tracer
	span Span
}

// Begin starts a span named name for cell under parent.
func (t *Tracer) Begin(name, cell string, parent *Open) *Open {
	if t == nil {
		return nil
	}
	o := &Open{t: t, span: Span{Name: name, Cell: cell}}
	if parent != nil {
		o.span.Parent = parent.span.ID
	}
	t.mu.Lock()
	o.span.ID = int64(len(t.spans)) + 1
	t.spans = append(t.spans, Span{}) // reserve the slot End fills
	t.mu.Unlock()
	o.span.Start = time.Since(t.origin).Nanoseconds()
	return o
}

// End closes the span and returns its duration.
func (o *Open) End() time.Duration {
	if o == nil {
		return 0
	}
	o.span.End = time.Since(o.t.origin).Nanoseconds()
	o.t.mu.Lock()
	o.t.spans[o.span.ID-1] = o.span
	o.t.mu.Unlock()
	return time.Duration(o.span.Dur())
}

// Spans returns a copy of every recorded span, in start order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.ID != 0 { // still open: nothing to report
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// WriteJSONL writes one span per line.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SelfTimes returns each span's duration minus the part of its interval
// its children cover, indexed by span ID. Children of one parent may
// overlap (cells run in parallel under runner.Map), so coverage is the
// length of the union of the children's intervals, clipped to the parent.
func SelfTimes(spans []Span) map[int64]int64 {
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.Dur() - covered
	}
	return self
}
