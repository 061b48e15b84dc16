package main

import (
	"rnuca/internal/sim"
)

// perLayer lists the per-layer metrics a traced run reports, in
// BENCHMARK.json's order. A layer the workload does not exercise
// reports 0.
var perLayer = []struct{ name, unit string }{
	{"workload.setup_ms", "ms"},
	{"workload.setup_share", "ratio"},
	{"workload.next_ns", "ns"},
	{"experiments.cell_ms_p50", "ms"},
	{"tracefile.encode_ns", "ns"},
	{"tracefile.bytes_per_ref", "B"},
	{"tracefile.decode_ns", "ns"},
	{"tracefile.shard_gain", "ratio"},
	{"sim.ns_per_ref.P", "ns"},
	{"sim.ns_per_ref.A", "ns"},
	{"sim.ns_per_ref.S", "ns"},
	{"sim.ns_per_ref.R", "ns"},
	{"sim.ns_per_ref.I", "ns"},
	{"sim.self_ns_per_ref", "ns"},
	{"design.access_ns.P", "ns"},
	{"design.access_ns.A", "ns"},
	{"design.access_ns.S", "ns"},
	{"design.access_ns.R", "ns"},
	{"design.access_ns.I", "ns"},
	{"design.access_ns.R.OLTP-DB2", "ns"},
	{"design.access_ns.R.MIX", "ns"},
	{"ospage.tlb_misses_per_kref", "count"},
	{"ospage.tlb_misses_per_kref.OLTP-DB2", "count"},
	{"ospage.tlb_misses_per_kref.MIX", "count"},
	{"ospage.shootdowns_per_kref", "count"},
	{"cache.l1_misses_per_ref", "count"},
	{"cache.l2_hit_ratio.P", "ratio"},
	{"cache.l2_hit_ratio.A", "ratio"},
	{"cache.l2_hit_ratio.S", "ratio"},
	{"cache.l2_hit_ratio.R", "ratio"},
	{"cache.l2_hit_ratio.I", "ratio"},
	{"coherence.l1dir_ops_per_ref", "count"},
	{"coherence.l2dir_ops_per_ref", "count"},
	{"noc.msgs_per_ref", "count"},
	{"noc.flit_hops_per_ref", "count"},
	{"mem.offchip_per_kref", "count"},
	{"resultcache.hit_ratio", "ratio"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.run_ms_p50.cached", "ms"},
	{"serve.run_ms_p50.cold", "ms"},
	{"driver.lag_ms_p99", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.span_coverage", "ratio"},
}

// engineAcc sums engine time and work for one key (a design, or a
// design on one workload).
type engineAcc struct {
	runNS, consumed       int64
	accessNS, accessCalls int64
	tlbMisses             uint64
	l2Hits, l2Misses      uint64
}

// layers accumulates a traced repetition's per-layer measurements.
type layers struct {
	setupNS, setupCalls   int64 // workload.Streams
	nextNS, nextCalls     int64 // generator Next
	decodeNS, decodeCalls int64 // trace decoder Next
	cellMS                []float64

	encodeNS, encodeRefs, traceBytes int64
	seqNS, shardNS                   int64

	selfNS, selfRefs int64
	engines          map[string]*engineAcc // by design, and by "design.workload"
	ch               chassisCounts
	measuredRefs     uint64
	msgs, flitHops   uint64
	offChip          uint64
}

func newLayers() *layers {
	return &layers{engines: map[string]*engineAcc{}}
}

func (l *layers) acc(key string) *engineAcc {
	a := l.engines[key]
	if a == nil {
		a = &engineAcc{}
		l.engines[key] = a
	}
	return a
}

// engine records one finished cell.
func (l *layers) engine(design, workloadName string, runNS int64, consumed int, p *probe, ch *sim.Chassis, d sim.Design, res sim.Result) {
	tlbBefore := l.ch.tlbMisses
	hits, misses := l.ch.readChassis(ch, d, consumed)
	for _, key := range []string{design, design + "." + workloadName} {
		a := l.acc(key)
		a.runNS += runNS
		a.consumed += int64(consumed)
		a.accessNS += p.access.estimate()
		a.accessCalls += p.access.calls
		a.tlbMisses += l.ch.tlbMisses - tlbBefore
		a.l2Hits += hits
		a.l2Misses += misses
	}
	l.selfNS += runNS - p.access.estimate() - p.next.estimate()
	l.selfRefs += int64(consumed)
	l.measuredRefs += res.Refs
	l.msgs += res.NetMessages
	l.flitHops += res.NetFlitHops
	l.offChip += res.OffChipMisses
}

// metrics returns every per-layer metric; wall is the traced
// repetition's timed wall time in nanoseconds.
func (l *layers) metrics(wall int64) map[string]float64 {
	m := map[string]float64{}
	for _, pl := range perLayer {
		m[pl.name] = 0
	}
	if l.setupCalls > 0 {
		m["workload.setup_ms"] = float64(l.setupNS) / float64(l.setupCalls) / 1e6
		m["workload.setup_share"] = ratio(l.setupNS, wall)
	}
	m["workload.next_ns"] = ratio(l.nextNS, l.nextCalls)
	m["experiments.cell_ms_p50"] = median(l.cellMS)
	m["tracefile.encode_ns"] = ratio(l.encodeNS, l.encodeRefs)
	m["tracefile.bytes_per_ref"] = ratio(l.traceBytes, l.encodeRefs)
	m["tracefile.decode_ns"] = ratio(l.decodeNS, l.decodeCalls)
	m["tracefile.shard_gain"] = ratio(l.seqNS, l.shardNS)
	m["sim.self_ns_per_ref"] = ratio(l.selfNS, l.selfRefs)
	for key, a := range l.engines {
		m["sim.ns_per_ref."+key] = ratio(a.runNS, a.consumed)
		m["design.access_ns."+key] = ratio(a.accessNS, a.accessCalls)
		if a.l2Hits+a.l2Misses > 0 {
			m["cache.l2_hit_ratio."+key] = float64(a.l2Hits) / float64(a.l2Hits+a.l2Misses)
		}
	}
	for _, w := range []string{"OLTP-DB2", "MIX"} {
		if a := l.engines["R."+w]; a != nil {
			m["ospage.tlb_misses_per_kref."+w] = 1000 * ratio(int64(a.tlbMisses), a.consumed)
		}
	}
	c := l.ch
	m["ospage.tlb_misses_per_kref"] = 1000 * ratio(int64(c.tlbMisses), c.rConsumed)
	m["ospage.shootdowns_per_kref"] = 1000 * ratio(int64(c.shootdowns), c.rConsumed)
	m["cache.l1_misses_per_ref"] = ratio(int64(c.l1Misses), c.consumed)
	m["coherence.l1dir_ops_per_ref"] = ratio(int64(c.l1DirOps), c.consumed)
	m["coherence.l2dir_ops_per_ref"] = ratio(int64(c.l2DirOps), c.pConsumed)
	m["noc.msgs_per_ref"] = ratio(int64(l.msgs), int64(l.measuredRefs))
	m["noc.flit_hops_per_ref"] = ratio(int64(l.flitHops), int64(l.measuredRefs))
	m["mem.offchip_per_kref"] = 1000 * ratio(int64(l.offChip), int64(l.measuredRefs))
	// Keep only the declared names: per-workload keys of other inputs
	// are accumulated above but not reported.
	out := map[string]float64{}
	for _, pl := range perLayer {
		out[pl.name] = m[pl.name]
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
