package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// windowBuckets is the number of finite bounds in windowBounds.
const windowBuckets = 81

// windowBounds is the one bucket layout every window counts into:
// quarter-octave bounds from 100µs to about 105s.
var windowBounds = ExpBuckets(100e-6, math.Pow(2, 0.25), windowBuckets)

// Snapshot is a point-in-time latency summary in seconds. Count, Mean,
// Min and Max are exact; the quantiles are bucket estimates clamped to
// [Min, Max]. Zero-valued, never NaN, when nothing was observed.
type Snapshot struct {
	Count                              uint64
	Mean, Min, Max, P50, P90, P95, P99 float64
}

// subWindow is one slot of a window's ring: counts over windowBounds
// (the last is the +Inf bucket) and exact aggregates. The sum is kept
// in whole nanoseconds so that it, too, is independent of order.
type subWindow struct {
	counts   [windowBuckets + 1]uint64
	n        uint64
	sumNanos int64
	min, max float64
}

// merge adds o's observations to s.
func (s *subWindow) merge(o *subWindow) {
	if o.n == 0 {
		return
	}
	if s.n == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.n == 0 || o.max > s.max {
		s.max = o.max
	}
	s.n += o.n
	s.sumNanos += o.sumNanos
	for i, c := range o.counts {
		s.counts[i] += c
	}
}

// snapshot summarizes s. Quantiles interpolate with the exact max as
// the +Inf bucket's upper edge and are clamped to the exact [min, max].
func (s *subWindow) snapshot() Snapshot {
	if s.n == 0 {
		return Snapshot{}
	}
	q := func(q float64) float64 {
		v := bucketQuantile(windowBounds, s.counts[:], s.n, q, s.max)
		return math.Min(math.Max(v, s.min), s.max)
	}
	return Snapshot{
		Count: s.n, Mean: float64(s.sumNanos) / 1e9 / float64(s.n), Min: s.min, Max: s.max,
		P50: q(0.50), P90: q(0.90), P95: q(0.95), P99: q(0.99),
	}
}

// window is one label's ring of sub-windows; ring[cur] is live. Its
// fields are guarded by the owning WindowVec's mu.
type window struct {
	ring     []subWindow
	cur      int
	curStart time.Time
}

// rotate advances the ring so that ring[cur] covers the sub-window
// containing t, clearing each sub-window it steps into. An idle span
// of the whole ring or longer clears every sub-window in one pass.
func (w *window) rotate(t time.Time, width time.Duration) {
	if w.curStart.IsZero() {
		w.curStart = t
		return
	}
	steps := int64(t.Sub(w.curStart) / width)
	for i := int64(0); i < steps && i < int64(len(w.ring)); i++ {
		w.cur = (w.cur + 1) % len(w.ring)
		w.ring[w.cur] = subWindow{}
	}
	if steps > 0 {
		w.curStart = w.curStart.Add(width * time.Duration(steps))
	}
}

// WindowVec keys sliding latency windows by one label value (a job
// kind, an HTTP route). Each label's window is a ring of sub-windows,
// width wide, merged on every query, so it covers the trailing
// windows×width and ages out a sub-window at a time. Safe for
// concurrent use.
type WindowVec struct {
	windows int
	width   time.Duration
	now     func() time.Time

	mu sync.Mutex
	m  map[string]*window // guarded by mu
}

// NewWindowVec returns a family of sliding windows, each a ring of
// `windows` sub-windows `width` wide.
func NewWindowVec(windows int, width time.Duration) *WindowVec {
	if windows < 1 || width <= 0 {
		panic(fmt.Sprintf("obs: NewWindowVec(%d, %v): want windows >= 1, width > 0", windows, width))
	}
	return &WindowVec{windows: windows, width: width, now: time.Now, m: map[string]*window{}}
}

// mergedLocked merges label's live sub-windows as of t. Callers hold
// v.mu.
func (v *WindowVec) mergedLocked(label string, t time.Time) subWindow {
	var m subWindow
	if w, ok := v.m[label]; ok {
		w.rotate(t, v.width)
		for i := range w.ring {
			m.merge(&w.ring[i])
		}
	}
	return m
}

// Observe records one value, in seconds, under label.
func (v *WindowVec) Observe(label string, x float64) {
	t := v.now()
	v.mu.Lock()
	defer v.mu.Unlock()
	w, ok := v.m[label]
	if !ok {
		w = &window{ring: make([]subWindow, v.windows)}
		v.m[label] = w
	}
	w.rotate(t, v.width)
	s := &w.ring[w.cur]
	if s.n == 0 || x < s.min {
		s.min = x
	}
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.n++
	s.sumNanos += int64(math.Round(x * 1e9))
	s.counts[sort.SearchFloat64s(windowBounds, x)]++ // first bound >= x
}

// FractionBelow estimates the fraction of label's windowed observations
// at or below x — SLO attainment when x is the target — by inverting
// the quantile interpolation. It is exact outside [min, max), and 1
// for an empty window (nothing violated the threshold).
func (v *WindowVec) FractionBelow(label string, x float64) float64 {
	t := v.now()
	v.mu.Lock()
	s := v.mergedLocked(label, t)
	v.mu.Unlock()
	switch {
	case s.n == 0 || x >= s.max:
		return 1
	case x < s.min:
		return 0
	}
	return bucketFraction(windowBounds, s.counts[:], s.n, x, s.max)
}

// Snapshots summarizes every label's window, omitting empty ones.
func (v *WindowVec) Snapshots() map[string]Snapshot {
	t := v.now()
	v.mu.Lock()
	defer v.mu.Unlock()
	out := map[string]Snapshot{}
	for label := range v.m {
		if m := v.mergedLocked(label, t); m.n > 0 {
			out[label] = m.snapshot()
		}
	}
	return out
}
