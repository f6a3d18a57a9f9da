package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one recorded interval: a call the harness made into a layer's
// public function, one HTTP call, or an enclosing rep/session. Spans of
// one rep or one served session share a TraceID; Parent is the ID of the
// span that caused this one (0 for a root).
type Span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	TraceID int64  `json:"trace_id"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Tracer records spans from the harness's side only and keeps them in
// memory until Write. A nil *Tracer is the tracing-off state: every
// method is a no-op costing one nil check, which is what the untraced
// end-to-end runs pay.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	next  int64
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewTraceID returns a fresh identifier for one rep's or one session's
// spans (0 on a nil tracer).
func (t *Tracer) NewTraceID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// Start opens a span and returns its ID for End and for children's
// Parent (0 on a nil tracer).
func (t *Tracer) Start(traceID, parent int64, layer, name string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, Span{Name: name, Layer: layer, TraceID: traceID, ID: t.next, Parent: parent, StartNS: now})
	return t.next
}

// End closes the span Start returned.
func (t *Tracer) End(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	// Spans end in roughly LIFO order; search from the back.
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			t.spans[i].EndNS = now
			return
		}
	}
}

// Do runs fn inside a span.
func (t *Tracer) Do(traceID, parent int64, layer, name string, fn func()) {
	id := t.Start(traceID, parent, layer, name)
	fn()
	t.End(id)
}

// SpanStat aggregates the spans of one name.
type SpanStat struct {
	Count int
	// Total is the summed duration; Self is Total minus the part of each
	// span's interval its direct children cover.
	Total time.Duration
	Self  time.Duration
}

// Stats aggregates the spans of one trace by name, deriving self time
// (span − children). It takes the trace because span names repeat across
// traces: a rep and the layer probe both open snapshots.
func (t *Tracer) Stats(traceID int64) map[string]SpanStat {
	out := map[string]SpanStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int64]int64, len(spans)) // parent ID → summed child ns
	for _, s := range spans {
		if s.Parent != 0 && s.EndNS >= s.StartNS {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for _, s := range spans {
		if s.TraceID != traceID || s.EndNS < s.StartNS {
			continue // another trace's, or never ended: a failed operation
		}
		d := s.EndNS - s.StartNS
		self := d - children[s.ID]
		if self < 0 {
			self = 0 // concurrent children can cover more than the parent
		}
		st := out[s.Name]
		st.Count++
		st.Total += time.Duration(d)
		st.Self += time.Duration(self)
		out[s.Name] = st
	}
	return out
}

// Write stores the spans as a JSON array, ordered by start time.
func (t *Tracer) Write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
