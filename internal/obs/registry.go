package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a process's metrics and renders them in Prometheus
// text exposition format. Metrics register once by name (re-registering
// a name panics: two call sites fighting over one series is a bug) and
// render in registration order, labeled children sorted by label value.
type Registry struct {
	mu     sync.Mutex
	fams   []*family          // guarded by mu
	byName map[string]*family // guarded by mu
	hooks  []func()           // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// family is one named series with all its labeled children ("" keys
// the unlabeled child).
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string

	mu       sync.Mutex
	children map[string]metric // guarded by mu
	order    []string          // guarded by mu
}

type metric interface {
	// write renders the metric's sample lines. labels is the child's
	// rendered label set without braces ("" for the unlabeled child).
	write(w io.Writer, name, labels string) error
}

func (r *Registry) register(name, help string, typ metricType, labels []string) *family {
	if name == "" {
		panic("obs: metric with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	f := &family{name: name, help: help, typ: typ, labels: labels,
		children: map[string]metric{}}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

// OnCollect registers a hook run under the render lock at the start of
// every WriteText, before any family is encoded. Hooks that snapshot
// several related values under one application lock keep the rendered
// gauges mutually consistent.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// WriteText renders every registered family in Prometheus text
// exposition format (text/plain; version=0.0.4).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fn := range r.hooks {
		fn()
	}
	for _, f := range r.fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.order) == 0 {
		return nil
	}
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
		return err
	}
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	for _, k := range keys {
		if err := f.children[k].write(w, f.name, k); err != nil {
			return err
		}
	}
	return nil
}

// child returns (creating on first use) the metric for one label-value
// tuple.
func (f *family) child(values []string, mk func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := renderLabels(f.labels, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	m := mk()
	f.children[key] = m
	f.order = append(f.order, key)
	return m
}

// renderLabels renders a label set as it appears inside the braces of
// a sample line: k1="v1",k2="v2". Empty for no labels.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// sampleLine writes one sample: `name value` unlabeled, or
// `name{labels} value`.
func sampleLine(w io.Writer, name, labels, value string) error {
	var err error
	if labels == "" {
		_, err = fmt.Fprintf(w, "%s %s\n", name, value)
	} else {
		_, err = fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
	}
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---- Counter ----

// Counter is a monotonically increasing uint64 metric. The Set method
// exists for snapshot-style collection (an OnCollect hook copying an
// application-owned total); regular call sites use Inc/Add.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Set overwrites the value. Only meaningful from a collection hook
// that mirrors a monotone application counter.
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name, labels string) error {
	return sampleLine(w, name, labels, strconv.FormatUint(c.v.Load(), 10))
}

// Counter registers (or returns nothing twice — duplicate names panic)
// an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, typeCounter, nil)
	return f.child(nil, func() metric { return new(Counter) }).(*Counter)
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, typeCounter, labels)}
}

// With returns the child counter for one label-value tuple, creating
// it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() metric { return new(Counter) }).(*Counter)
}

// ---- Gauge ----

// Gauge is an int64 metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set overwrites the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) write(w io.Writer, name, labels string) error {
	return sampleLine(w, name, labels, strconv.FormatInt(g.v.Load(), 10))
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, typeGauge, nil)
	return f.child(nil, func() metric { return new(Gauge) }).(*Gauge)
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, typeGauge, labels)}
}

// With returns the child gauge for one label-value tuple.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() metric { return new(Gauge) }).(*Gauge)
}

// ---- FloatGauge ----

// FloatGauge is a float64 gauge for values an int64 cannot carry —
// latency quantiles in seconds, ratios. Lock-free: the value lives in
// an atomic as its IEEE-754 bits.
type FloatGauge struct{ bits atomic.Uint64 }

// Set overwrites the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *FloatGauge) write(w io.Writer, name, labels string) error {
	return sampleLine(w, name, labels, formatFloat(g.Value()))
}

// FloatGauge registers an unlabeled float gauge.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	f := r.register(name, help, typeGauge, nil)
	return f.child(nil, func() metric { return new(FloatGauge) }).(*FloatGauge)
}

// FloatGaugeVec is a float-gauge family keyed by label values.
type FloatGaugeVec struct{ f *family }

// FloatGaugeVec registers a labeled float-gauge family.
func (r *Registry) FloatGaugeVec(name, help string, labels ...string) *FloatGaugeVec {
	return &FloatGaugeVec{r.register(name, help, typeGauge, labels)}
}

// With returns the child gauge for one label-value tuple.
func (v *FloatGaugeVec) With(values ...string) *FloatGauge {
	return v.f.child(values, func() metric { return new(FloatGauge) }).(*FloatGauge)
}

// ---- Histogram ----

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds in increasing order; an implicit +Inf bucket catches the
// rest. The zero bucket list is replaced by DefSecondsBuckets.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // guarded by mu
	counts []uint64  // guarded by mu; len(bounds)+1; last is +Inf
	sum    float64   // guarded by mu
	count  uint64    // guarded by mu
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefSecondsBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not increasing at %v", bounds[i]))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (0 <= q <= 1) with bucketQuantile;
// a rank landing in the +Inf bucket clamps to the highest finite bound.
// Returns NaN when nothing was observed or q is outside [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	return bucketQuantile(h.bounds, h.counts, h.count, q, h.bounds[len(h.bounds)-1])
}

// bucketQuantile is the repo's one quantile estimator, the
// histogram_quantile estimate: over n > 0 observations counted into
// buckets with the given upper bounds (counts has one more entry, the
// +Inf bucket), it interpolates linearly inside the bucket where the
// cumulative count crosses rank q·n. The first bucket's lower edge is
// 0 (the layouts are for non-negative measurements) and the +Inf
// bucket's upper edge is top. The estimate is monotone in q and exact
// at bucket boundaries; its error is bounded by the width of the bucket
// the quantile falls in.
func bucketQuantile(bounds []float64, counts []uint64, n uint64, q, top float64) float64 {
	rank, cum := q*float64(n), 0.0
	for i, c := range counts {
		lo, hi := bucketEdges(bounds, i, top)
		if cum+float64(c) >= rank || i == len(bounds) {
			if c == 0 {
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return top
}

// bucketFraction inverts bucketQuantile: the interpolated fraction of
// the n counted observations at or below x, for x < top.
func bucketFraction(bounds []float64, counts []uint64, n uint64, x, top float64) float64 {
	cum := 0.0
	for i, c := range counts {
		lo, hi := bucketEdges(bounds, i, top)
		if x < hi {
			if x > lo {
				cum += float64(c) * (x - lo) / (hi - lo)
			}
			break
		}
		cum += float64(c)
	}
	return cum / float64(n)
}

// bucketEdges returns bucket i's lower and upper edges: 0 below the
// first bound, top above the last.
func bucketEdges(bounds []float64, i int, top float64) (lo, hi float64) {
	if i > 0 {
		lo = bounds[i-1]
	}
	if i < len(bounds) {
		return lo, bounds[i]
	}
	return lo, top
}

func (h *Histogram) write(w io.Writer, name, labels string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		le := renderLabels([]string{"le"}, []string{formatFloat(b)})
		if labels != "" {
			le = labels + "," + le
		}
		if err := sampleLine(w, name+"_bucket", le, strconv.FormatUint(cum, 10)); err != nil {
			return err
		}
	}
	le := `le="+Inf"`
	if labels != "" {
		le = labels + "," + le
	}
	if err := sampleLine(w, name+"_bucket", le, strconv.FormatUint(h.count, 10)); err != nil {
		return err
	}
	if err := sampleLine(w, name+"_sum", labels, formatFloat(h.sum)); err != nil {
		return err
	}
	return sampleLine(w, name+"_count", labels, strconv.FormatUint(h.count, 10))
}

// Histogram registers an unlabeled histogram with the given bucket
// upper bounds (nil means DefSecondsBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, typeHistogram, nil)
	return f.child(nil, func() metric { return newHistogram(buckets) }).(*Histogram)
}

// HistogramVec is a histogram family keyed by label values; every
// child shares the bucket layout.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, typeHistogram, labels), buckets}
}

// With returns the child histogram for one label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() metric { return newHistogram(v.buckets) }).(*Histogram)
}

// ExpBuckets returns n bucket upper bounds starting at start and
// multiplying by factor: the standard latency-histogram layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefSecondsBuckets is the default wall-clock layout: 1ms to ~4.5min
// in powers of two — wide enough for both sub-second cache hits and
// multi-minute figure builds.
func DefSecondsBuckets() []float64 {
	return ExpBuckets(0.001, 2, 19)
}
