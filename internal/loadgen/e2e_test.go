package loadgen_test

import (
	"bufio"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"rnuca/internal/leakcheck"
	"rnuca/internal/loadgen"
	"rnuca/internal/serve"
)

// scrape reads one exact series from /metrics.
func scrape(t *testing.T, base, series string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s = %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not exposed", series)
	return 0
}

// The full loop: the load generator drives ≥1000 mixed cached/cold
// jobs into an in-process server, and afterwards the two independent
// latency views — client-side windows and the server's /v1/stats —
// agree within estimator tolerance, with the saturation gauges back
// at zero once everything drains.
func TestLoadAgainstInProcessServe(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("e2e load run")
	}
	if raceEnabled {
		t.Skip("race instrumentation slows the engine ~10x and breaks the latency-agreement bounds")
	}
	const totalJobs = 1100
	// Sized for a small CI box: a sim cell costs ~250ms of setup no
	// matter its scale, so the mix is mostly cache hits with a ~2.5%
	// cold tail, arriving slowly enough (100/s) that the pool keeps up
	// and the whole run stays inside the server's 60s window.
	s := serve.New(serve.Config{
		// Two workers even on one CPU: a cache-hit job completes while a
		// cold cell simulates instead of queueing behind it.
		Workers:    2 * runtime.GOMAXPROCS(0),
		QueueDepth: 4096,
		// Retain every job: pruning a terminal job before its client's
		// next poll would 404 the poller.
		JobHistory: 2 * totalJobs,
		SLO:        time.Minute,
	})
	hs := httptest.NewServer(s.Handler())
	defer func() { hs.Close(); s.Close() }()

	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:     hs.URL,
		Rate:        75,
		Concurrency: 1024, // far above realistic in-flight: nothing sheds
		Total:       totalJobs,
		Mix:         map[string]int{loadgen.MixCached: 79, loadgen.MixCold: 1},
		Warm:        300,
		Measure:     600,
		Seed:        42,
		Poll:        10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("load run: %v", err)
	}
	if res.Scheduled != totalJobs || res.Shed != 0 || res.Throttled != 0 ||
		res.Unavailable != 0 || res.Errors != 0 {
		t.Fatalf("run not clean: %+v", res)
	}
	if res.Done < 1000 {
		t.Fatalf("done = %d, want >= 1000 (failed %d canceled %d)", res.Done, res.Failed, res.Canceled)
	}
	client, ok := res.Latency["all"]
	if !ok || client.Count != uint64(res.Done) {
		t.Fatalf("client latency snapshot %+v for %d done jobs", client, res.Done)
	}
	if _, ok := res.Latency[loadgen.MixCold]; !ok {
		t.Fatal("no cold jobs in the mix")
	}

	// The server's windowed view of the same jobs. The run finishes in
	// well under the 60s window, so every job is still inside it.
	stats, err := loadgen.FetchServerStats(context.Background(), nil, hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	server, ok := stats.Kind("sim")
	if !ok {
		t.Fatalf("server stats carry no sim kind: %+v", stats)
	}
	// The window covers the run unless the box stalled pathologically;
	// allow the earliest sub-window to have aged out.
	terminalJobs := uint64(res.Done) + uint64(res.Failed) + uint64(res.Canceled)
	if server.Count > terminalJobs || server.Count < terminalJobs*8/10 {
		t.Errorf("server windowed count %d, client terminal %d", server.Count, terminalJobs)
	}

	// Agreement within estimator tolerance. The client measures
	// submit→terminal through HTTP plus a 10ms poll grid, the server
	// measures it internally, and both views are bucket estimates —
	// so allow an observation floor (poll granularity plus scheduling
	// delay while the in-process engine saturates the CPU) on top of a
	// relative band.
	for _, q := range []struct {
		name string
		c, s float64
	}{
		{"p50", client.P50, server.P50},
		{"p95", client.P95, server.P95},
		{"p99", client.P99, server.P99},
	} {
		tol := 0.050 + 0.5*math.Max(q.c, q.s)
		if d := math.Abs(q.c - q.s); d > tol {
			t.Errorf("%s: client %.4fs vs server %.4fs differ by %.4fs (tol %.4fs)",
				q.name, q.c, q.s, d, tol)
		}
		if q.c+0.001 < q.s {
			t.Errorf("%s: client %.4fs below server %.4fs — client includes the server path",
				q.name, q.c, q.s)
		}
	}

	// Everything has drained: saturation gauges at zero, on /v1/stats
	// and on /metrics.
	if stats.QueueDepth != 0 || stats.Inflight != 0 {
		t.Errorf("post-run saturation: depth %d inflight %d, want 0/0", stats.QueueDepth, stats.Inflight)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v := scrape(t, hs.URL, "rnuca_jobs_queue_depth"); v != 0 {
		t.Errorf("rnuca_jobs_queue_depth = %v after drain, want 0", v)
	}
	if v := scrape(t, hs.URL, "rnuca_jobs_inflight"); v != 0 {
		t.Errorf("rnuca_jobs_inflight = %v after drain, want 0", v)
	}
	if v := scrape(t, hs.URL, "rnuca_worker_utilization"); v != 0 {
		t.Errorf("rnuca_worker_utilization = %v after drain, want 0", v)
	}
	// The cold tenth of the mix missed; the cached rest mostly hit.
	if hits := scrape(t, hs.URL, "rnuca_result_cache_hits_total"); hits < 800 {
		t.Errorf("cache hits = %v, want the cached mix (~90%% of %d) to hit", hits, totalJobs)
	}
}
