package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic, concurrency-safe test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time // guarded by mu
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// one is a single label of a vec, for tests that watch one window.
type one struct {
	v     *WindowVec
	label string
}

func newOne(windows int, width time.Duration) one {
	return one{NewWindowVec(windows, width), "x"}
}

func (o one) Observe(x float64)               { o.v.Observe(o.label, x) }
func (o one) Snapshot() Snapshot              { return o.v.Snapshots()[o.label] }
func (o one) FractionBelow(x float64) float64 { return o.v.FractionBelow(o.label, x) }

// testWindow returns one window driven by clk.
func testWindow(windows int, width time.Duration, clk *fakeClock) one {
	o := newOne(windows, width)
	o.v.now = clk.now
	return o
}

// bucketWidth is the width of the windowBounds bucket holding v.
func bucketWidth(v float64) float64 {
	i := sort.SearchFloat64s(windowBounds, v)
	return windowBounds[i] - windowBounds[i-1]
}

// logUniform returns n values spread log-uniformly over `decades`
// decades from lo, in the scrambled order of the golden-ratio sequence.
func logUniform(n int, lo, decades float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		_, u := math.Modf(float64(i+1) * 0.6180339887498949)
		out[i] = lo * math.Pow(10, decades*u)
	}
	return out
}

// TestWindowRotation: observations age out one sub-window at a time,
// merge across live sub-windows, and vanish in one step once an idle
// span longer than the window has passed.
func TestWindowRotation(t *testing.T) {
	clk := newFakeClock()
	w := testWindow(3, 10*time.Second, clk)

	for i := 0; i < 50; i++ {
		w.Observe(1)
	}
	if got := w.Snapshot().Count; got != 50 {
		t.Fatalf("count = %d, want 50", got)
	}

	// Next sub-window: new values merge with the old ones.
	clk.advance(10 * time.Second)
	for i := 0; i < 30; i++ {
		w.Observe(100)
	}
	s := w.Snapshot()
	if s.Count != 80 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("merged snapshot = %+v, want count 80 min 1 max 100", s)
	}
	// 50/80 observations are 1s: the median sits on the old mode, within
	// the bucket that holds 1.
	if d := s.P50 - 1; d < 0 || d > bucketWidth(1) {
		t.Errorf("merged p50 = %v, want 1 within %v", s.P50, bucketWidth(1))
	}
	if s.P99 != 100 {
		t.Errorf("merged p99 = %v, want 100", s.P99)
	}

	// Two more rotations: the first sub-window (the 1s) falls off the
	// ring; only the 100s remain.
	clk.advance(20 * time.Second)
	w.Observe(100)
	s = w.Snapshot()
	if s.Count != 31 || s.Min != 100 {
		t.Fatalf("after aging: %+v, want count 31 min 100", s)
	}

	// Idle past the whole span: everything ages out at once.
	clk.advance(time.Minute)
	if s := w.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("after idle span: snapshot = %+v, want zero value", s)
	}
	w.Observe(7)
	if s := w.Snapshot(); s.Count != 1 || s.Min != 7 || s.Max != 7 {
		t.Fatalf("first observation after reset: %+v", s)
	}
}

// TestWindowRotationBoundary: an observation exactly on the width
// boundary opens the next sub-window.
func TestWindowRotationBoundary(t *testing.T) {
	clk := newFakeClock()
	w := testWindow(2, 10*time.Second, clk)
	w.Observe(1)
	clk.advance(10 * time.Second)
	w.Observe(2)
	clk.advance(10 * time.Second)
	w.Observe(3)
	// Three sub-windows touched, ring holds two: the 1 is gone.
	s := w.Snapshot()
	if s.Count != 2 || s.Min != 2 || s.Max != 3 {
		t.Fatalf("boundary rotation snapshot = %+v, want count 2 min 2 max 3", s)
	}
}

// TestWindowEmpty: an empty window reports zeros, never NaN, and an
// attainment of 1.
func TestWindowEmpty(t *testing.T) {
	w := newOne(6, 10*time.Second)
	if s := w.Snapshot(); s != (Snapshot{}) {
		t.Errorf("empty snapshot = %+v, want zero value", s)
	}
	if got := w.FractionBelow(0); got != 1 {
		t.Errorf("empty FractionBelow = %v, want 1", got)
	}
}

// TestWindowFractionBelow covers the SLO-attainment primitive: exact
// outside [min, max) and between well-separated modes.
func TestWindowFractionBelow(t *testing.T) {
	w := newOne(4, 10*time.Second)
	for i := 0; i < 90; i++ {
		w.Observe(0.010)
	}
	for i := 0; i < 10; i++ {
		w.Observe(0.500)
	}
	for _, tc := range []struct{ x, want float64 }{
		{0.001, 0}, {0.1, 0.9}, {0.5, 1}, {1, 1},
	} {
		if got := w.FractionBelow(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("FractionBelow(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	// Inside a bucket the fraction interpolates, monotonically.
	prev := 0.0
	for x := 0.0; x <= 0.6; x += 0.001 {
		got := w.FractionBelow(x)
		if got < prev || got < 0 || got > 1 {
			t.Fatalf("FractionBelow(%v) = %v after %v: not a monotone fraction", x, got, prev)
		}
		prev = got
	}
}

// TestWindowVecLabels: each label is an independent window, and a
// label with nothing in its window is left out.
func TestWindowVecLabels(t *testing.T) {
	clk := newFakeClock()
	v := NewWindowVec(2, time.Minute)
	v.now = clk.now
	v.Observe("idle", 1)
	clk.advance(5 * time.Minute)
	for i := 0; i < 10; i++ {
		v.Observe("sim", 0.002)
	}
	v.Observe("figure", 3)

	snaps := v.Snapshots()
	if _, ok := snaps["idle"]; ok || len(snaps) != 2 {
		t.Fatalf("Snapshots() = %v, want sim and figure only", snaps)
	}
	if s := snaps["sim"]; s.Count != 10 || s.Min != 0.002 || s.Max != 0.002 || s.P99 != 0.002 {
		t.Errorf("sim = %+v, want 10 observations of 0.002", s)
	}
	if s := snaps["figure"]; s.Count != 1 || s.P50 != 3 || s.Mean != 3 {
		t.Errorf("figure = %+v, want one observation of 3", s)
	}
	if got := v.FractionBelow("figure", 1); got != 0 {
		t.Errorf("FractionBelow(figure, 1) = %v, want 0", got)
	}
	if got := v.FractionBelow("unknown", 1); got != 1 {
		t.Errorf("FractionBelow(unknown, 1) = %v, want 1", got)
	}
}

// TestWindowOrderIndependent: bucket counts and the nanosecond sum do
// not depend on observation order, so the same multiset fed in two
// orders gives identical snapshots.
func TestWindowOrderIndependent(t *testing.T) {
	vals := logUniform(20000, 1e-4, 5)
	a := newOne(6, time.Hour)
	for _, v := range vals {
		a.Observe(v)
	}
	sort.Float64s(vals)
	b := newOne(6, time.Hour)
	for i := len(vals) - 1; i >= 0; i-- {
		b.Observe(vals[i])
	}
	if sa, sb := a.Snapshot(), b.Snapshot(); sa != sb {
		t.Errorf("same values, different order:\n%+v\n%+v", sa, sb)
	}
	if fa, fb := a.FractionBelow(0.01), b.FractionBelow(0.01); fa != fb {
		t.Errorf("FractionBelow differs by order: %v vs %v", fa, fb)
	}
}

// TestWindowMergeDeterminism: two windows fed the same stream across
// rotations, concurrently, merge their live sub-windows to identical
// snapshots, equal to one unrotated window holding only the values
// that are still live.
func TestWindowMergeDeterminism(t *testing.T) {
	vals := logUniform(5000, 1e-4, 4)
	feed := func(w one, clk *fakeClock) {
		for i, v := range vals {
			w.Observe(v)
			if i%1000 == 999 {
				clk.advance(10 * time.Second)
			}
		}
	}
	clkA, clkB := newFakeClock(), newFakeClock()
	a, b := testWindow(4, 10*time.Second, clkA), testWindow(4, 10*time.Second, clkB)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); feed(a, clkA) }()
	go func() { defer wg.Done(); feed(b, clkB) }()
	wg.Wait()

	sa, sb := a.Snapshot(), b.Snapshot()
	if sa != sb {
		t.Errorf("same feed, different merged snapshots:\n%+v\n%+v", sa, sb)
	}
	// Five fills of 1000, each followed by one rotation: the ring of 4
	// holds the empty current sub-window and the last three fills.
	live := newOne(4, time.Hour)
	for _, v := range vals[2000:] {
		live.Observe(v)
	}
	if want := live.Snapshot(); sa != want {
		t.Errorf("merged snapshot = %+v, want the last three fills %+v", sa, want)
	}
}

// TestWindowQuantileError: on a known log-uniform stream every
// reported quantile lies within one bucket width of the exact order
// statistic.
func TestWindowQuantileError(t *testing.T) {
	vals := logUniform(30000, 1e-3, 3) // 1ms..1s
	w := newOne(1, time.Hour)
	for _, v := range vals {
		w.Observe(v)
	}
	sort.Float64s(vals)
	s := w.Snapshot()
	for _, tc := range []struct {
		q   float64
		got float64
	}{{0.50, s.P50}, {0.90, s.P90}, {0.95, s.P95}, {0.99, s.P99}} {
		exact := vals[int(math.Ceil(tc.q*float64(len(vals))))-1]
		width := bucketWidth(exact)
		if d := math.Abs(tc.got - exact); d > width {
			t.Errorf("p%v = %v, exact %v: off by %v, more than the bucket width %v",
				tc.q*100, tc.got, exact, d, width)
		}
	}
	if s.Min != vals[0] || s.Max != vals[len(vals)-1] {
		t.Errorf("min/max = %v/%v, want exact %v/%v", s.Min, s.Max, vals[0], vals[len(vals)-1])
	}
}

// TestWindowBeyondLastBound: values past the last finite bound land in
// the +Inf bucket; quantiles stay within the exact [min, max] rather
// than reporting the last bound.
func TestWindowBeyondLastBound(t *testing.T) {
	last := windowBounds[len(windowBounds)-1]
	w := newOne(1, time.Hour)
	for i := 1; i <= 100; i++ {
		w.Observe(last + float64(i))
	}
	s := w.Snapshot()
	lo, hi := last+1, last+100
	for _, p := range []float64{s.P50, s.P90, s.P95, s.P99} {
		if p < lo || p > hi {
			t.Errorf("quantile %v outside the exact [%v, %v]", p, lo, hi)
		}
	}
	// The +Inf bucket interpolates up to the exact max, so a uniform
	// stream there keeps its shape.
	if math.Abs(s.P50-(last+50)) > 1 || math.Abs(s.P99-(last+99)) > 1 {
		t.Errorf("p50/p99 = %v/%v, want about %v/%v", s.P50, s.P99, last+50, last+99)
	}
	if got := w.FractionBelow(last); got != 0 {
		t.Errorf("FractionBelow(last bound) = %v, want 0", got)
	}
}

// TestWindowVecConcurrency hammers one vec from many goroutines —
// creation, observation and snapshot races — for the race detector,
// and checks the total count lands intact.
func TestWindowVecConcurrency(t *testing.T) {
	v := NewWindowVec(4, 10*time.Second)
	labels := []string{"sim", "convert", "figure"}
	var wg sync.WaitGroup
	const perG = 500
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				label := labels[(g+i)%len(labels)]
				v.Observe(label, float64(i)*1e-3)
				if i%100 == 0 {
					v.Snapshots()
					v.FractionBelow(label, 0.1)
				}
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, s := range v.Snapshots() {
		total += s.Count
	}
	if total != 8*perG {
		t.Errorf("total windowed count = %d, want %d", total, 8*perG)
	}
}

// TestBucketQuantileSharedWithHistogram: Histogram.Quantile and a
// window over the same layout are one algorithm — on values inside the
// layout's range they agree up to the window's clamp.
func TestBucketQuantileSharedWithHistogram(t *testing.T) {
	h := NewRegistry().Histogram("shared_seconds", "", windowBounds)
	w := newOne(1, time.Hour)
	for _, v := range logUniform(5000, 1e-3, 2) {
		h.Observe(v)
		w.Observe(v)
	}
	s := w.Snapshot()
	for _, tc := range []struct{ q, got float64 }{{0.5, s.P50}, {0.9, s.P90}, {0.99, s.P99}} {
		want := math.Min(math.Max(h.Quantile(tc.q), s.Min), s.Max)
		if tc.got != want {
			t.Errorf("q=%v: window %v, histogram %v", tc.q, tc.got, want)
		}
	}
}

// TestWindowExactAggregates: count, mean, min and max are exact, and
// each quantile lies within one bucket width of the order statistic.
func TestWindowExactAggregates(t *testing.T) {
	w := newOne(1, time.Hour)
	for i := 1; i <= 100; i++ {
		w.Observe(float64(i))
	}
	s := w.Snapshot()
	if s.Count != 100 || s.Mean != 50.5 || s.Min != 1 || s.Max != 100 {
		t.Errorf("aggregates = %+v, want count 100 mean 50.5 min 1 max 100", s)
	}
	for _, tc := range []struct{ got, exact float64 }{
		{s.P50, 50}, {s.P90, 90}, {s.P95, 95}, {s.P99, 99},
	} {
		if d := math.Abs(tc.got - tc.exact); d > bucketWidth(tc.exact) {
			t.Errorf("quantile %v, exact %v: off by more than a bucket", tc.got, tc.exact)
		}
	}
}

// TestWindowMaxExact: a single spike is reported exactly by Max however
// many ordinary values follow it.
func TestWindowMaxExact(t *testing.T) {
	w := newOne(1, time.Hour)
	w.Observe(10) // the spike, observed first
	for i := 0; i < 10000; i++ {
		w.Observe(0.01)
	}
	s := w.Snapshot()
	if s.Max != 10 || s.Min != 0.01 {
		t.Errorf("max/min = %v/%v, want 10/0.01", s.Max, s.Min)
	}
	if d := s.P99 - 0.01; d < 0 || d > bucketWidth(0.01) {
		t.Errorf("p99 = %v, want 0.01 within a bucket", s.P99)
	}
}

// TestAdversarialStreams: sorted, reversed, constant and bimodal
// streams — orderings that break naive streaming estimators — all land
// within one bucket of the true quantiles.
func TestAdversarialStreams(t *testing.T) {
	const n = 50000
	ramp := func(i int) float64 { return float64(i+1) * 1e-4 } // 0.1ms..5s
	check := func(t *testing.T, w one) {
		s := w.Snapshot()
		for _, tc := range []struct{ q, got float64 }{{0.5, s.P50}, {0.9, s.P90}, {0.99, s.P99}} {
			exact := ramp(int(math.Ceil(tc.q*n)) - 1)
			if d := math.Abs(tc.got - exact); d > bucketWidth(exact) {
				t.Errorf("q=%v: %v, exact %v, off by more than a bucket", tc.q, tc.got, exact)
			}
		}
		if s.Min != ramp(0) || s.Max != ramp(n-1) {
			t.Errorf("min/max = %v/%v, want exact %v/%v", s.Min, s.Max, ramp(0), ramp(n-1))
		}
	}
	t.Run("sorted", func(t *testing.T) {
		w := newOne(1, time.Hour)
		for i := 0; i < n; i++ {
			w.Observe(ramp(i))
		}
		check(t, w)
	})
	t.Run("reversed", func(t *testing.T) {
		w := newOne(1, time.Hour)
		for i := n - 1; i >= 0; i-- {
			w.Observe(ramp(i))
		}
		check(t, w)
	})
	t.Run("constant", func(t *testing.T) {
		w := newOne(1, time.Hour)
		for i := 0; i < n; i++ {
			w.Observe(0.042)
		}
		if s := w.Snapshot(); s.P50 != 0.042 || s.P99 != 0.042 {
			t.Errorf("constant stream quantiles = %+v, want 0.042", s)
		}
	})
	t.Run("bimodal", func(t *testing.T) {
		// 90% at 1ms, 10% at 1s, interleaved: p50 sits on the low mode,
		// p99 on the high one.
		w := newOne(1, time.Hour)
		for i := 0; i < n; i++ {
			if i%10 == 9 {
				w.Observe(1)
			} else {
				w.Observe(0.001)
			}
		}
		s := w.Snapshot()
		if d := s.P50 - 0.001; d < 0 || d > bucketWidth(0.001) {
			t.Errorf("p50 = %v, want 0.001 within a bucket", s.P50)
		}
		if s.P99 != 1 {
			t.Errorf("p99 = %v, want 1", s.P99)
		}
	})
}
