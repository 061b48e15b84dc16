package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rnuca"
	"rnuca/internal/experiments"
	"rnuca/internal/resultcache"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
	"rnuca/internal/tracefile"
	"rnuca/internal/workload"
)

// scale sizes one repetition of every workload.
type scale struct {
	fig12 experiments.Scale

	engineWarm, engineMeasure int
	replayWarm, replayMeasure int

	serveRate      float64 // arrivals per second
	serveJobs      int     // arrivals per repetition
	serveColdEvery int     // every serveColdEvery-th arrival is a cold job
	serveWarm      int
	serveMeasure   int
}

var scales = map[string]scale{
	// bench is the measured configuration.
	"bench": {
		fig12:      experiments.Scale{Warm: 10_000, Measure: 20_000, Batches: 1},
		engineWarm: 200_000, engineMeasure: 400_000,
		replayWarm: 100_000, replayMeasure: 200_000,
		serveRate: 100, serveJobs: 300, serveColdEvery: 50,
		serveWarm: 5_000, serveMeasure: 10_000,
	},
	// tiny exercises every code path for the smoke test; fig12-sweep's
	// generator set-up alone still takes about 20 s.
	"tiny": {
		fig12:      experiments.Scale{Warm: 500, Measure: 1_000, Batches: 1},
		engineWarm: 500, engineMeasure: 1_000,
		replayWarm: 500, replayMeasure: 1_000,
		serveRate: 200, serveJobs: 40, serveColdEvery: 10,
		serveWarm: 200, serveMeasure: 400,
	},
}

// workloads maps each benchmark workload to its repetition.
var workloads = map[string]func(*rep) error{
	"fig12-sweep":  runFig12,
	"engine-long":  runEngineLong,
	"trace-replay": runTraceReplay,
	"serve-mix":    runServeMix,
}

// seeded derives the inputs of a run from its seed: the catalog spec
// with its generator seed moved by the run seed and a per-use stream
// number. Seed 0, stream 0 is the catalog spec itself.
func seeded(w rnuca.Workload, seed, stream uint64) rnuca.Workload {
	w.Seed += seed*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9
	return w
}

// fig12Workloads is Figure 12's row order (the Figure 7 order).
func fig12Workloads(seed uint64) []rnuca.Workload {
	ws := []rnuca.Workload{
		rnuca.OLTPDB2(), rnuca.Apache(), rnuca.DSSQry6(), rnuca.DSSQry8(),
		rnuca.DSSQry13(), rnuca.Em3d(), rnuca.OLTPOracle(), rnuca.MIX(),
	}
	for i := range ws {
		ws[i] = seeded(ws[i], seed, 0)
	}
	return ws
}

var fig12Designs = []rnuca.DesignID{rnuca.DesignPrivate, rnuca.DesignASR, rnuca.DesignShared, rnuca.DesignRNUCA, rnuca.DesignIdeal}

var engineDesigns = []rnuca.DesignID{rnuca.DesignPrivate, rnuca.DesignShared, rnuca.DesignRNUCA, rnuca.DesignIdeal}

// runFig12 builds Figure 12 at reduced scale: every cell through
// Campaign.Result in the figure's order, then the rendered table. The
// traced repetition runs each cell's engine directly, then renders the
// figure from a campaign whose result cache holds those cells.
func runFig12(r *rep) error {
	ws := fig12Workloads(r.seed)
	sc := r.sc.fig12
	newCampaign := func() (*experiments.Campaign, error) {
		c := experiments.NewCampaign(sc)
		for _, w := range ws {
			if _, err := c.SetInput(rnuca.FromWorkload(w)); err != nil {
				return nil, err
			}
		}
		return c, nil
	}
	c, err := newCampaign()
	if err != nil {
		return err
	}
	if !r.begin() {
		return nil
	}
	var rc *resultcache.Cache
	if r.tr != nil {
		rc = resultcache.New(len(ws) * len(fig12Designs))
	}
	for _, w := range ws {
		for _, id := range fig12Designs {
			name := w.Name + "/" + string(id)
			t := time.Now()
			if r.tr == nil {
				res := c.Result(w, id)
				r.job(name, time.Since(t))
				r.output(name, res.Result)
				continue
			}
			cell := r.tr.start("experiments.cell", r.root)
			res := r.tracedGenCell(cell, w, id, sc.Warm, sc.Measure)
			r.tr.end(cell)
			r.job(name, time.Since(t))
			r.lay.cellMS = append(r.lay.cellMS, ms(r.tr.duration(cell)))
			r.output(name, res)
			if err := primeCell(rc, w, id, sc, res); err != nil {
				return err
			}
		}
	}
	render := r.tr.start("experiments.render", r.root)
	if rc != nil {
		if c, err = newCampaign(); err != nil {
			return err
		}
		c.SetResultCache(rc)
	}
	var buf bytes.Buffer
	c.Fig12().Render(&buf)
	r.tr.end(render)
	if rc != nil {
		if m := rc.Metrics(); m.Hits != uint64(len(ws)*len(fig12Designs)) {
			r.fail("fig12 render from the traced cells missed the result cache: %+v", m)
		}
	}
	r.outputBytes("fig12.txt", buf.Bytes())
	return nil
}

// primeCell stores a traced cell's result under the key the campaign
// looks the cell up by: the cell's canonical job, with ASR keyed as
// the single adaptive variant the reduced scale runs.
func primeCell(rc *resultcache.Cache, w rnuca.Workload, id rnuca.DesignID, sc experiments.Scale, res sim.Result) error {
	key := id
	if id == rnuca.DesignASR && !sc.ASRBest {
		key = "A/adaptive"
	}
	j := rnuca.Job{Input: rnuca.FromWorkload(w), Designs: []rnuca.DesignID{key},
		Options: rnuca.RunOptions{Warm: sc.Warm, Measure: sc.Measure, Batches: sc.Batches}}
	k, ok := resultcache.JobKey(j)
	if !ok {
		return fmt.Errorf("fig12 cell %s/%s has no cache key", w.Name, id)
	}
	cpi := res.CPI()
	_, _, err := rc.Do(context.Background(), k, func(context.Context) (any, error) {
		return rnuca.Result{Result: res, CPIMean: cpi}, nil
	})
	return err
}

// engineWorkloads are engine-long's inputs: the most shared workload
// (R-NUCA's OS-page layer is hot) and the most private one.
func engineWorkloads(seed uint64) []rnuca.Workload {
	return []rnuca.Workload{seeded(rnuca.OLTPDB2(), seed, 0), seeded(rnuca.MIX(), seed, 0)}
}

// runEngineLong runs P, S, R and I one after another on each input,
// long enough that generator set-up is a small share of the time.
func runEngineLong(r *rep) error {
	ws := engineWorkloads(r.seed)
	if !r.begin() {
		return nil
	}
	for _, w := range ws {
		for _, id := range engineDesigns {
			name := w.Name + "/" + string(id)
			t := time.Now()
			if r.tr == nil {
				j := rnuca.Job{Input: rnuca.FromWorkload(w), Designs: []rnuca.DesignID{id},
					Options: rnuca.RunOptions{Warm: r.sc.engineWarm, Measure: r.sc.engineMeasure, Batches: 1}}
				res, err := j.Run(context.Background())
				r.job(name, time.Since(t))
				if err != nil {
					r.fail("%s: %v", name, err)
					continue
				}
				r.output(name, res.Result)
				continue
			}
			sp := r.tr.start("engine.job", r.root)
			res := r.tracedGenCell(sp, w, id, r.sc.engineWarm, r.sc.engineMeasure)
			r.tr.end(sp)
			r.job(name, time.Since(t))
			r.output(name, res)
		}
	}
	return nil
}

// tracedGenCell runs one generator-fed cell the way Job.Run does, with
// the generator set-up, the engine, the design's Access and the
// streams' Next each timed.
func (r *rep) tracedGenCell(parent int, w rnuca.Workload, id rnuca.DesignID, warm, measure int) sim.Result {
	setup := r.tr.start("workload.setup", parent)
	streams := workload.Streams(w)
	r.tr.end(setup)
	r.lay.setupNS += int64(r.tr.duration(setup))
	r.lay.setupCalls++
	var p probe
	res := r.tracedEngine(parent, w, id, warm, measure, &p, func(ch *sim.Chassis, d sim.Design) *sim.Engine {
		return sim.NewEngine(ch, d, timeStreams(streams, &p))
	})
	r.lay.nextNS += p.next.estimate()
	r.lay.nextCalls += p.next.calls
	return res
}

// tracedEngine builds the chassis and design for one cell, runs the
// engine newEngine makes over the timed design, and records the
// layer counters.
func (r *rep) tracedEngine(parent int, w rnuca.Workload, id rnuca.DesignID, warm, measure int, p *probe,
	newEngine func(*sim.Chassis, sim.Design) *sim.Engine) sim.Result {
	sp := r.tr.start("sim.run", parent)
	ch := sim.NewChassis(rnuca.ConfigFor(w))
	d := rnuca.NewDesign(id, ch)
	eng := newEngine(ch, timeDesign(d, p))
	eng.OffChipMLP = w.OffChipMLP
	t := time.Now()
	res := eng.Run(warm, measure)
	runNS := int64(time.Since(t))
	res.Workload = w.Name
	r.tr.end(sp)
	r.tr.count(sp, "refs", float64(warm+measure))
	r.tr.count(sp, "access_ns", float64(p.access.estimate()))
	r.tr.count(sp, "next_ns", float64(p.next.estimate()))
	r.lay.engine(string(id), w.Name, runNS, warm+measure, p, ch, d, res)
	return res
}

// replayWorkload is the recorded input of trace-replay.
func replayWorkload(seed uint64) rnuca.Workload { return seeded(rnuca.OLTPDB2(), seed, 0) }

var replayDesigns = []rnuca.DesignID{rnuca.DesignShared, rnuca.DesignRNUCA}

// runTraceReplay records one trace in set-up, then replays it under S
// and R, sequentially and decoded by two shards.
func runTraceReplay(r *rep) error {
	path := filepath.Join(r.tmpDir, fmt.Sprintf("replay-%d.rnt", os.Getpid()))
	defer os.Remove(path)
	w := replayWorkload(r.seed)
	rec := rnuca.Job{Input: rnuca.FromWorkload(w), Designs: []rnuca.DesignID{rnuca.DesignShared},
		Options: rnuca.RunOptions{Warm: r.sc.replayWarm, Measure: r.sc.replayMeasure, Batches: 1}}
	sp := r.tr.start("tracefile.record", r.setup)
	live, err := rec.Record(context.Background(), path)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	if r.tr != nil {
		if err := r.traceEncode(path); err != nil {
			return err
		}
	}
	if !r.begin() {
		return nil
	}
	r.output("live/S", live.Result)
	for _, id := range replayDesigns {
		var walls [2]time.Duration
		for i, shards := range []int{1, 2} {
			name := fmt.Sprintf("replay/%s/shards%d", id, shards)
			t := time.Now()
			var res sim.Result
			if r.tr == nil {
				in := rnuca.FromTrace(path)
				if shards > 1 {
					in = in.Sharded(shards)
				}
				out, err := rnuca.Job{Input: in, Designs: []rnuca.DesignID{id}}.Run(context.Background())
				if err != nil {
					walls[i] = time.Since(t)
					r.job(name, walls[i])
					r.fail("%s: %v", name, err)
					continue
				}
				res = out.Result
			} else {
				sp := r.tr.start("replay.job", r.root)
				res, err = r.tracedReplay(sp, path, id, shards)
				r.tr.end(sp)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
			}
			walls[i] = time.Since(t)
			r.job(name, walls[i])
			r.output(name, res)
		}
		if r.lay != nil {
			r.lay.seqNS += int64(walls[0])
			r.lay.shardNS += int64(walls[1])
		}
		// Decode sharding must not change a replay, and a replay under
		// the recording design reproduces the live run.
		r.same(fmt.Sprintf("replay/%s/shards1", id), fmt.Sprintf("replay/%s/shards2", id))
	}
	r.same("live/S", "replay/S/shards1")
	return nil
}

// traceEncode times tracefile.Writer over the recorded references and
// measures the encoded size per reference.
func (r *rep) traceEncode(path string) error {
	hdr, refs, err := tracefile.ReadFile(path)
	if err != nil {
		return err
	}
	sp := r.tr.start("tracefile.encode", r.setup)
	var n countingWriter
	tw, err := tracefile.NewWriter(&n, hdr)
	if err != nil {
		return err
	}
	t := time.Now()
	for _, ref := range refs {
		if err := tw.Write(ref); err != nil {
			return err
		}
	}
	if err := tw.Close(); err != nil {
		return err
	}
	r.lay.encodeNS = int64(time.Since(t))
	r.tr.end(sp)
	r.lay.encodeRefs = int64(len(refs))
	r.lay.traceBytes = n.n
	return nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(b []byte) (int, error) {
	c.n += int64(len(b))
	return len(b), nil
}

// tracedReplay replays the trace the way Job.Run does — a streaming
// reader, or the indexed reader's parallel decoder — with the decoder's
// Next timed.
func (r *rep) tracedReplay(parent int, path string, id rnuca.DesignID, shards int) (sim.Result, error) {
	w, err := rnuca.TraceWorkload(path)
	if err != nil {
		return sim.Result{}, err
	}
	f, err := tracefile.Open(path)
	if err != nil {
		return sim.Result{}, err
	}
	defer f.Close()
	hdr := f.Header()
	var src interface {
		trace.RefSource
		Err() error
	} = f
	if shards > 1 {
		ix, err := tracefile.OpenIndexed(path)
		if err != nil {
			return sim.Result{}, err
		}
		defer ix.Close()
		ps, err := ix.Parallel(shards, 0, ix.Refs())
		if err != nil {
			return sim.Result{}, err
		}
		defer ps.Close()
		src = ps
	}
	var p probe
	res := r.tracedEngine(parent, w, id, hdr.Warm, hdr.Measure, &p, func(ch *sim.Chassis, d sim.Design) *sim.Engine {
		return sim.NewEngineSource(ch, d, timeSource(src, &p))
	})
	r.lay.decodeNS += p.next.estimate()
	r.lay.decodeCalls += p.next.calls
	return res, src.Err()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
