package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry owns a set of named metric families and renders them in the
// Prometheus text exposition format (WritePrometheus), the one format
// every consumer parses. Registration happens at startup — constructors
// panic on duplicate or malformed names, like expvar — and the returned
// Counter/Gauge/Histogram pointers are then mutated lock-free from any
// goroutine. Families render in registration order; labeled children in
// label order.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

type familyKind string

const (
	kindCounter   familyKind = "counter"
	kindGauge     familyKind = "gauge"
	kindHistogram familyKind = "histogram"
)

// series is one child of a family: an optional label pair plus exactly
// one backing instrument.
type series struct {
	label string // rendered `name="value"`, or "" for the bare series
	c     *Counter
	g     *Gauge
	fn    func() float64 // callback gauges/counters
	h     *Histogram
}

type family struct {
	name, help string
	kind       familyKind
	label      string // label name for vec families, "" otherwise

	// vecFn, when set, makes the family fully dynamic: its children are
	// the callback's map entries, materialized afresh at every scrape.
	vecFn func() map[string]float64

	mu      sync.Mutex
	series  []*series
	byLabel map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register installs a new family, panicking on duplicates or names that
// are not legal Prometheus metric names.
func (r *Registry) register(name, help string, kind familyKind, label string) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &family{name: name, help: help, kind: kind, label: label, byLabel: make(map[string]*series)}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (f *family) child(labelValue string, make func() *series) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byLabel[labelValue]; ok {
		return s
	}
	s := make()
	if labelValue != "" {
		s.label = f.label + `="` + escapeLabel(labelValue) + `"`
	}
	f.series = append(f.series, s)
	f.byLabel[labelValue] = s
	return s
}

// Counter registers and returns a plain counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, "")
	return f.child("", func() *series { return &series{c: NewCounter()} }).c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for counts owned elsewhere (manager cache stats).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindCounter, "")
	f.child("", func() *series { return &series{fn: fn} })
}

// Gauge registers and returns a plain gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, "")
	return f.child("", func() *series { return &series{g: NewGauge()} }).g
}

// GaugeFunc registers a gauge computed from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, "")
	f.child("", func() *series { return &series{fn: fn} })
}

// Histogram registers and returns a histogram over the given bucket
// upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.register(name, help, kindHistogram, "")
	return f.child("", func() *series { return &series{h: NewHistogram(bounds)} }).h
}

// CounterVecFunc registers a labeled counter family whose children are
// read from fn at scrape time: fn returns the current value per label
// value, for counts owned elsewhere (per-namespace manager stats).
// Children appear and vanish with the map's keys — rendered in sorted
// key order — and the HELP/TYPE header is emitted even when fn returns
// no children, so the family is always visible in the exposition.
func (r *Registry) CounterVecFunc(name, help, label string, fn func() map[string]float64) {
	if !validMetricName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	f := r.register(name, help, kindCounter, label)
	f.vecFn = fn
}

// CounterVec is a counter family keyed by one label. With resolves (or
// creates) a child; resolve children once at startup and keep the
// pointers — With locks and may allocate.
type CounterVec struct {
	f *family
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if !validMetricName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	return &CounterVec{f: r.register(name, help, kindCounter, label)}
}

// With returns the child counter for the label value.
func (v *CounterVec) With(value string) *Counter {
	return v.f.child(value, func() *series { return &series{c: NewCounter()} }).c
}

// HistogramVec is a histogram family keyed by one label; see CounterVec
// for the resolution contract.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// HistogramVec registers a labeled histogram family (nil bounds selects
// DefBuckets).
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if !validMetricName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, kindHistogram, label), bounds: bounds}
}

// With returns the child histogram for the label value.
func (v *HistogramVec) With(value string) *Histogram {
	return v.f.child(value, func() *series { return &series{h: NewHistogram(v.bounds)} }).h
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4): one # HELP / # TYPE pair per
// family, histogram children as cumulative `_bucket{le=...}` series
// plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.write(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	if f.vecFn != nil {
		vals := f.vecFn()
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			writeSample(b, f.name, f.label+`="`+escapeLabel(k)+`"`, vals[k])
		}
		return
	}
	f.mu.Lock()
	children := make([]*series, len(f.series))
	copy(children, f.series)
	f.mu.Unlock()
	sort.Slice(children, func(i, j int) bool { return children[i].label < children[j].label })
	for _, s := range children {
		switch {
		case s.h != nil:
			s.writeHistogram(b, f.name)
		case s.c != nil:
			writeSample(b, f.name, s.label, float64(s.c.Value()))
		case s.g != nil:
			writeSample(b, f.name, s.label, float64(s.g.Value()))
		case s.fn != nil:
			writeSample(b, f.name, s.label, s.fn())
		}
	}
}

func (s *series) writeHistogram(b *strings.Builder, name string) {
	bounds, cum := s.h.Buckets()
	for i, bound := range bounds {
		le := `le="` + formatFloat(bound) + `"`
		if s.label != "" {
			le = s.label + "," + le
		}
		writeSample(b, name+"_bucket", le, float64(cum[i]))
	}
	inf := `le="+Inf"`
	if s.label != "" {
		inf = s.label + "," + inf
	}
	writeSample(b, name+"_bucket", inf, float64(cum[len(cum)-1]))
	writeSample(b, name+"_sum", s.label, s.h.Sum())
	writeSample(b, name+"_count", s.label, float64(s.h.Count()))
}

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}
