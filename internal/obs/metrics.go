package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bounds in seconds — the
// conventional Prometheus spread from 5 ms to 10 s.
var DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Counter is a monotonically increasing atomic counter. The zero value is
// ready; a nil receiver ignores writes and reads zero.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increments by n (negative deltas are dropped: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket latency/size histogram: observations are
// counted into the first bucket whose upper bound is >= the value, with
// an implicit +Inf bucket, plus a running sum and count. All methods are
// concurrency-safe and nil-tolerant.
type Histogram struct {
	bounds    []float64      // strictly increasing upper bounds, +Inf implicit
	counts    []atomic.Int64 // len(bounds)+1; non-cumulative per-bucket counts
	exemplars []atomic.Pointer[Exemplar]
	count     atomic.Int64
	sum       Gauge
}

// Exemplar links one histogram bucket to the most recent trace that
// crossed it, rendered in the OpenMetrics `# {trace_id="..."} value`
// suffix when exemplars are requested.
type Exemplar struct {
	TraceID string
	Value   float64
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	for i := 1; i < len(bs); i++ {
		if bs[i] == bs[i-1] {
			panic(fmt.Sprintf("obs: duplicate histogram bound %v", bs[i]))
		}
	}
	if n := len(bs); n > 0 && math.IsInf(bs[n-1], 1) {
		bs = bs[:n-1] // +Inf is implicit
	}
	return &Histogram{
		bounds:    bs,
		counts:    make([]atomic.Int64, len(bs)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bs)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, "") }

// ObserveExemplar records one value and, when traceID is non-empty,
// retains it as the bucket's exemplar — each bucket remembers the most
// recent trace that landed in it.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, len(bounds) ⇒ +Inf
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// BucketExemplars returns the per-bucket exemplars (one slot per bound
// plus +Inf; nil slots have seen no exemplared observation).
func (h *Histogram) BucketExemplars() []*Exemplar {
	if h == nil {
		return nil
	}
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Cumulative returns the cumulative bucket counts, one per bound plus the
// trailing +Inf bucket (which always equals Count at a quiescent moment).
func (h *Histogram) Cumulative() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		out[i] = run
	}
	return out
}

// Bounds returns the finite bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// metric kinds, named to match the TYPE line of the exposition format.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// family is one named metric with zero or more labeled children.
type family struct {
	name   string
	help   string
	kind   string
	labels []string
	bounds []float64      // histogram families only
	fn     func() float64 // func-backed label-free families

	mu       sync.Mutex
	children map[string]*child
}

type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// childFor returns (creating on first use) the child at the given label
// values.
func (f *family) childFor(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.children[key]
	if !ok {
		ch = &child{values: append([]string(nil), values...)}
		switch f.kind {
		case kindCounter:
			ch.c = &Counter{}
		case kindGauge:
			ch.g = &Gauge{}
		case kindHistogram:
			ch.h = newHistogram(f.bounds)
		}
		f.children[key] = ch
	}
	return ch
}

// sortedChildren returns the children ordered by label values.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	out := make([]*child, 0, len(f.children))
	for _, ch := range f.children {
		out = append(out, ch)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].values, out[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// With returns the counter at the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.childFor(values).c }

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// With returns the gauge at the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.childFor(values).g }

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// With returns the histogram at the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.childFor(values).h }

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Construction-time errors (duplicate or invalid
// names) panic: like mining.Register, registration happens at wiring
// time and a bad name is a programmer error.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	pre      []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help, kind string, labels []string, bounds []float64, fn func() float64) *family {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if kind == kindCounter && !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("obs: counter %q must end in _total", name))
	}
	for _, l := range labels {
		if !labelNameRE.MatchString(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %s", l, name))
		}
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		bounds:   bounds,
		fn:       fn,
		children: make(map[string]*child),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.families[name] = f
	return f
}

// Counter registers and returns a label-free counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil, nil).childFor(nil).c
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil, nil)}
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge to counters owned elsewhere (the Go runtime's
// allocation and GC totals).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, kindCounter, nil, nil, fn)
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGauge, nil, nil, fn)
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels, nil, nil)}
}

// Histogram registers and returns a label-free fixed-bucket histogram
// (nil buckets ⇒ DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.register(name, help, kindHistogram, nil, buckets, nil).childFor(nil).h
}

// HistogramVec registers a histogram family with the given label names
// (nil buckets ⇒ DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.register(name, help, kindHistogram, labels, buckets, nil)}
}

// PreCollect registers a hook run at the start of every WriteExposition
// — the place to refresh snapshot-style gauges (runtime memory stats)
// exactly once per scrape.
func (r *Registry) PreCollect(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pre = append(r.pre, fn)
}

// WriteExposition renders every family in the text exposition format
// (version 0.0.4), sorted by family name, HELP and TYPE first. When
// exemplars is true, histogram bucket lines carry the OpenMetrics
// `# {trace_id="..."} value` suffix for buckets that have one.
func (r *Registry) WriteExposition(w io.Writer, exemplars bool) error {
	r.mu.Lock()
	pre := append([]func(){}, r.pre...)
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, fn := range pre {
		fn()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b bytes.Buffer
	for _, f := range fams {
		f.write(&b, exemplars)
	}
	_, err := w.Write(b.Bytes())
	return err
}

func (f *family) write(b *bytes.Buffer, exemplars bool) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	if f.fn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatValue(f.fn()))
		return
	}
	for _, ch := range f.sortedChildren() {
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, renderLabels(f.labels, ch.values, "", ""), formatValue(float64(ch.c.Value())))
		case kindGauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, renderLabels(f.labels, ch.values, "", ""), formatValue(ch.g.Value()))
		case kindHistogram:
			cum := ch.h.Cumulative()
			bounds := ch.h.Bounds()
			var exs []*Exemplar
			if exemplars {
				exs = ch.h.BucketExemplars()
			}
			for i, bound := range bounds {
				fmt.Fprintf(b, "%s_bucket%s %d", f.name, renderLabels(f.labels, ch.values, "le", formatValue(bound)), cum[i])
				writeExemplar(b, exs, i)
				b.WriteByte('\n')
			}
			fmt.Fprintf(b, "%s_bucket%s %d", f.name, renderLabels(f.labels, ch.values, "le", "+Inf"), cum[len(cum)-1])
			writeExemplar(b, exs, len(cum)-1)
			b.WriteByte('\n')
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, renderLabels(f.labels, ch.values, "", ""), formatValue(ch.h.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, renderLabels(f.labels, ch.values, "", ""), ch.h.Count())
		}
	}
}

// writeExemplar appends a bucket line's exemplar suffix if one exists.
func writeExemplar(b *bytes.Buffer, exs []*Exemplar, i int) {
	if i >= len(exs) {
		return
	}
	ex := exs[i]
	if ex == nil || ex.TraceID == "" {
		return
	}
	fmt.Fprintf(b, " # {trace_id=\"%s\"} %s", escapeLabel(ex.TraceID), formatValue(ex.Value))
}

// renderLabels renders {k="v",...}, optionally appending one extra pair
// (the histogram le label); it returns "" when there is nothing to show.
func renderLabels(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// formatValue renders a sample value: integral values print as plain
// integers (scrape-friendly and golden-file-friendly), everything else in
// Go's shortest float form.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
