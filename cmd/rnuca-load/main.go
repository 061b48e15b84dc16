// Command rnuca-load drives an rnuca-serve instance with an open-loop
// synthetic job stream and reports the latency the client felt next
// to what the server measured.
//
// Usage:
//
//	rnuca-load [-url http://localhost:8091] [-rate 50] [-concurrency 64]
//	           [-total N | -duration 30s] [-mix cached=8,cold=1,compare=1]
//	           [-workload OLTP-DB2] [-corpus REF] [-warm N] [-measure N]
//	           [-seed 1] [-poll 10ms] [-csv]
//
// Arrivals fire on a fixed clock (-rate per second) regardless of how
// fast the server answers — the open-loop model that exposes queueing
// collapse. -concurrency caps in-flight jobs; arrivals beyond the cap
// are shed and counted, never queued client-side.
//
// -mix weights the job families: cached repeats one canonical job
// (result-cache hits after the first), cold gives every job a fresh
// workload seed (guaranteed misses), compare submits two-design
// comparisons, replay targets -corpus. Weights are comma-separated
// kind=N pairs.
//
// Each job's submit→terminal latency is recorded client-side in the
// same bucketed latency window the server uses (obs.WindowVec: one
// fixed bucket layout, quantiles within one bucket width and clamped
// to the exact min/max), so the final comparison table — client vs
// the server's /v1/stats — compares like with like: the delta is
// network, polling granularity, and scheduling, the part of latency a
// server-side view never sees.
//
// The exit status is 0 only when every scheduled job was accepted and
// finished done: sheds, throttles, failures, or transport errors exit 1
// (the CI smoke gate).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rnuca/internal/loadgen"
)

func main() {
	url := flag.String("url", "http://localhost:8091", "rnuca-serve base URL")
	rate := flag.Float64("rate", 50, "open-loop arrival rate, jobs/sec")
	concurrency := flag.Int("concurrency", 64, "in-flight job cap (arrivals beyond it are shed)")
	total := flag.Int("total", 0, "total arrivals to schedule (0 = duration-bounded)")
	duration := flag.Duration("duration", 0, "run length (0 = total-bounded)")
	mix := flag.String("mix", "cached=1", "job mix weights, e.g. cached=8,cold=1,compare=1,replay=2")
	workloadName := flag.String("workload", "OLTP-DB2", "catalog workload for cached/cold/compare jobs")
	corpusRef := flag.String("corpus", "", "corpus ref for replay jobs (empty: replay weight runs cached)")
	warm := flag.Int("warm", 0, "per-job warmup refs (0 = 2000)")
	measure := flag.Int("measure", 0, "per-job measured refs (0 = 4000)")
	seed := flag.Int64("seed", 1, "mix-sequence and cold-job seed")
	poll := flag.Duration("poll", 0, "job status poll interval (0 = 10ms)")
	csv := flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	flag.Parse()

	weights, err := parseMix(*mix)
	if err != nil {
		fatalf("%v", err)
	}
	if *total <= 0 && *duration <= 0 {
		fatalf("need -total or -duration")
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer cancel()

	res, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:     *url,
		Rate:        *rate,
		Concurrency: *concurrency,
		Total:       *total,
		Duration:    *duration,
		Mix:         weights,
		Workload:    *workloadName,
		Corpus:      *corpusRef,
		Warm:        *warm,
		Measure:     *measure,
		Seed:        *seed,
		Poll:        *poll,
	})
	if err != nil && res == nil {
		fatalf("%v", err)
	}

	fmt.Printf("scheduled %d  submitted %d  done %d  failed %d  canceled %d\n",
		res.Scheduled, res.Submitted, res.Done, res.Failed, res.Canceled)
	fmt.Printf("shed %d  throttled(429) %d  unavailable(503) %d  errors %d  elapsed %s\n",
		res.Shed, res.Throttled, res.Unavailable, res.Errors,
		res.Elapsed.Round(time.Millisecond))
	if res.Elapsed > 0 && res.Done > 0 {
		fmt.Printf("throughput %.1f jobs/sec\n", float64(res.Done)/res.Elapsed.Seconds())
	}
	fmt.Println()

	mt := loadgen.MixTable(res.Latency)
	if *csv {
		mt.CSV(os.Stdout)
	} else {
		mt.Render(os.Stdout)
	}
	fmt.Println()

	// Pull the server's view and render the comparison: the client's
	// aggregate against the server's "sim" kind (every mix family
	// submits simulation jobs).
	if stats, serr := loadgen.FetchServerStats(ctx, nil, *url); serr != nil {
		fmt.Fprintf(os.Stderr, "rnuca-load: fetching /v1/stats: %v\n", serr)
	} else {
		if server, ok := stats.Kind("sim"); ok {
			ct := loadgen.CompareTable(res.Latency["all"], server)
			if *csv {
				ct.CSV(os.Stdout)
			} else {
				ct.Render(os.Stdout)
			}
		}
		fmt.Printf("\nserver: queue_depth %d  inflight %d  throttled %d  window %gs\n",
			stats.QueueDepth, stats.Inflight, stats.Ledger.Throttled, stats.WindowSeconds)
	}

	if err != nil {
		fatalf("%v", err)
	}
	if res.Shed > 0 || res.Throttled > 0 || res.Unavailable > 0 || res.Errors > 0 ||
		res.Failed > 0 || res.Canceled > 0 || res.Done != res.Scheduled {
		os.Exit(1)
	}
}

// parseMix decodes comma-separated kind=N weight pairs.
func parseMix(s string) (map[string]int, error) {
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q is not kind=N", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("mix weight %q is not a non-negative integer", part)
		}
		out[strings.TrimSpace(kind)] = n
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty mix %q", s)
	}
	// Deterministic validation order for error messages.
	kinds := make([]string, 0, len(out))
	for k := range out {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		switch k {
		case loadgen.MixCached, loadgen.MixCold, loadgen.MixCompare, loadgen.MixReplay:
		default:
			return nil, fmt.Errorf("unknown mix kind %q (cached, cold, compare, replay)", k)
		}
	}
	return out, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "rnuca-load: "+format+"\n", args...)
	os.Exit(1)
}
