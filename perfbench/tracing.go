package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"rnuca/internal/cache"
	"rnuca/internal/coherence"
	"rnuca/internal/noc"
	"rnuca/internal/ospage"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
)

// span is one timed call into a layer: name, start and end in
// nanoseconds since the run began, the span that caused it (0 for the
// root), the run it belongs to, and optional counters.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Run    string             `json:"run"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps a run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per
// span. It is used from one goroutine.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string, t0 time.Time) *tracer { return &tracer{run: run, t0: t0} }

// start opens a span under parent and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// add records a span whose interval is already known.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// count attaches a counter to span id.
func (t *tracer) count(id int, key string, v float64) {
	if t == nil || id == 0 {
		return
	}
	sp := &t.spans[id-1]
	if sp.Counts == nil {
		sp.Counts = map[string]float64{}
	}
	sp.Counts[key] = v
}

func (t *tracer) duration(id int) time.Duration {
	sp := t.spans[id-1]
	return time.Duration(sp.End - sp.Start)
}

// coverage is the share of the run, from its start to end, that the
// union of the layer spans covers. Spans without a parent are the
// set-up and timed phases themselves and do not count.
func (t *tracer) coverage(end int64) float64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > s.Start {
			ivs = append(ivs, iv{s.Start, min64(s.End, end)})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, reach int64
	for _, v := range ivs {
		if v.a > reach {
			reach = v.a
		}
		if v.b > reach {
			covered += v.b - reach
			reach = v.b
		}
	}
	if end <= 0 {
		return 0
	}
	return float64(covered) / float64(end)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// probe estimates the time an engine spends inside the design's Access
// and inside the reference source's Next. Timing every call would
// double the cost of a reference on a host whose clock read is slow,
// so a pseudo-random eighth of the calls are timed, less the cost of
// the clock reads themselves, and the sums are scaled by calls over
// samples.
type probe struct {
	access, next sampled
	rng          uint64
}

// sampled is one timed call site: calls counted, calls timed, and the
// time of the timed ones.
type sampled struct{ calls, timed, ns int64 }

// estimate returns the estimated total time of all calls.
func (s sampled) estimate() int64 {
	if s.timed == 0 {
		return 0
	}
	return int64(float64(s.ns) * float64(s.calls) / float64(s.timed))
}

// clockCost is the cost of the clock reads around one timed call,
// measured once per traced process by calibrateClock.
var clockCost time.Duration

// calibrateClock measures clockCost as the smallest of many empty
// timed intervals.
func calibrateClock() {
	best := time.Hour
	for i := 0; i < 10000; i++ {
		t := time.Now()
		if d := time.Since(t); d < best {
			best = d
		}
	}
	clockCost = best
}

// take reports whether to time the next call.
func (p *probe) take() bool {
	if p.rng == 0 {
		p.rng = 0x9E3779B97F4A7C15
	}
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	return p.rng&7 == 0
}

func (s *sampled) add(t time.Time) {
	s.ns += int64(time.Since(t) - clockCost)
	s.timed++
}

// timedDesign times Access. The variants below forward the optional
// engine interfaces exactly when the wrapped design implements them,
// so the engine's type assertions see what they would see unwrapped.
type timedDesign struct {
	sim.Design
	p *probe
}

func (d timedDesign) Access(r trace.Ref) sim.Cost {
	d.p.access.calls++
	if !d.p.take() {
		return d.Design.Access(r)
	}
	t := time.Now()
	c := d.Design.Access(r)
	d.p.access.add(t)
	return c
}

type timedBankDesign struct {
	timedDesign
	sim.BankMeter
}

type timedReactiveDesign struct {
	timedDesign
	sim.Classifier
	sim.BankMeter
	sim.TransitionMeter
}

// timeDesign wraps d in the decorator matching its optional interfaces.
func timeDesign(d sim.Design, p *probe) sim.Design {
	base := timedDesign{d, p}
	cls, isCls := d.(sim.Classifier)
	bank, isBank := d.(sim.BankMeter)
	tm, isTM := d.(sim.TransitionMeter)
	switch {
	case isCls && isBank && isTM:
		return timedReactiveDesign{base, cls, bank, tm}
	case !isCls && isBank && !isTM:
		return timedBankDesign{base, bank}
	case !isCls && !isBank && !isTM:
		return base
	}
	panic("perfbench: design " + d.Name() + " has an optional-interface set no decorator forwards")
}

// timedStream times a generator's Next.
type timedStream struct {
	s trace.Stream
	p *probe
}

func (s timedStream) Next() trace.Ref {
	s.p.next.calls++
	if !s.p.take() {
		return s.s.Next()
	}
	t := time.Now()
	r := s.s.Next()
	s.p.next.add(t)
	return r
}

func timeStreams(ss []trace.Stream, p *probe) []trace.Stream {
	out := make([]trace.Stream, len(ss))
	for i, s := range ss {
		out[i] = timedStream{s, p}
	}
	return out
}

// timedSource times a trace decoder's Next.
type timedSource struct {
	src trace.RefSource
	p   *probe
}

func (s timedSource) Next() (trace.Ref, bool) {
	s.p.next.calls++
	if !s.p.take() {
		return s.src.Next()
	}
	t := time.Now()
	r, ok := s.src.Next()
	s.p.next.add(t)
	return r, ok
}

// timedRewindSource is a timedSource over a rewindable decoder; the
// demultiplexer rewinds a replay that needs more references of one core
// than the trace holds.
type timedRewindSource struct {
	timedSource
	trace.Rewinder
}

func timeSource(src trace.RefSource, p *probe) trace.RefSource {
	if rw, ok := src.(trace.Rewinder); ok {
		return timedRewindSource{timedSource{src, p}, rw}
	}
	return timedSource{src, p}
}

// chassisCounts are the work counters one engine's chassis and design
// expose, summed over the cells of a run. They include warm-up.
type chassisCounts struct {
	consumed           int64 // references the engine consumed, warm-up included
	l1Misses           uint64
	l1DirOps, l2DirOps uint64
	tlbMisses          uint64
	shootdowns         uint64
	rConsumed          int64 // consumed refs of cells that ran R-NUCA's OS layer
	pConsumed          int64 // consumed refs of cells with an L2 directory
}

// readChassis adds one finished engine's counters to c and returns the
// design's L2 hit and miss totals.
func (c *chassisCounts) readChassis(ch *sim.Chassis, d sim.Design, consumed int) (l2Hits, l2Misses uint64) {
	c.consumed += int64(consumed)
	for i := range ch.L1I {
		c.l1Misses += ch.L1I[i].Stats().Misses + ch.L1D[i].Stats().Misses
	}
	c.l1DirOps += dirOps(ch.L1Dir.Stats())
	if p, ok := d.(interface{ Directory() *coherence.Directory }); ok {
		c.l2DirOps += dirOps(p.Directory().Stats())
		c.pConsumed += int64(consumed)
	}
	if r, ok := d.(interface{ OS() *ospage.System }); ok {
		os := r.OS()
		for _, t := range os.TLBs {
			c.tlbMisses += t.Misses()
		}
		c.shootdowns += os.Table.Transitions().TLBShootdowns
		c.rConsumed += int64(consumed)
	}
	for tile := 0; tile < ch.Cfg.Cores; tile++ {
		s := sliceStats(d, tile)
		l2Hits += s.Hits
		l2Misses += s.Misses
	}
	return l2Hits, l2Misses
}

// sliceStats reads one tile's L2 slice counters: the private, ASR,
// shared and R-NUCA designs index slices by tile ID, the ideal design
// by int.
func sliceStats(d sim.Design, tile int) cache.Stats {
	switch x := d.(type) {
	case interface{ SliceStats(noc.TileID) cache.Stats }:
		return x.SliceStats(noc.TileID(tile))
	case interface{ SliceStats(int) cache.Stats }:
		return x.SliceStats(tile)
	}
	return cache.Stats{}
}

func dirOps(s coherence.DirStats) uint64 {
	return s.Reads + s.Writes + s.Upgrades + s.Invalidations + s.Writebacks
}
