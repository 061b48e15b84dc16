// Package loadgen drives an rnuca-serve instance with an open-loop
// synthetic job stream and measures what the client feels.
//
// The generator schedules arrivals on a fixed clock (Rate per second)
// regardless of how fast the server answers — the open-loop model
// that exposes queueing collapse, where a closed loop would politely
// slow down and hide it. A concurrency cap bounds in-flight work;
// arrivals that would exceed it are shed and counted, never queued
// client-side (a client-side queue would turn the loop closed again).
//
// Each arrival draws a job from a weighted mix:
//
//	cached   the same canonical job every time — after the first
//	         execution, a pure result-cache hit
//	cold     a fresh workload seed per arrival — every job misses the
//	         cache and simulates
//	compare  a two-design comparison job (cacheable, heavier)
//	replay   a replay over Config.Corpus (falls back to cached when no
//	         corpus ref is configured)
//
// Client-side submit→terminal latency lands in the same bucketed
// latency window the server uses (obs.WindowVec), keyed by mix kind
// plus the aggregate "all". Both ends count into one bucket layout and
// interpolate alike, each quantile within one bucket width and clamped
// to the exact min/max, so the client's view and the server's
// /v1/stats are directly comparable. CompareTable renders that
// comparison.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rnuca"
	"rnuca/internal/obs"
	"rnuca/internal/workload"
)

// Mix kinds — the job families an arrival can draw.
const (
	MixCached  = "cached"
	MixCold    = "cold"
	MixCompare = "compare"
	MixReplay  = "replay"
)

// Config shapes one load run. Rate and one of Total/Duration are
// required; everything else has serviceable defaults.
type Config struct {
	// BaseURL is the server root, e.g. "http://localhost:8091".
	BaseURL string
	// Rate is the open-loop arrival rate in jobs per second.
	Rate float64
	// Concurrency caps in-flight jobs; arrivals beyond it are shed
	// (0 = 64).
	Concurrency int
	// Total bounds scheduled arrivals; Duration bounds wall-clock time.
	// Whichever ends first stops scheduling (0 = unbounded; at least
	// one must be set).
	Total    int
	Duration time.Duration
	// Mix weights the job families (nil = all cached).
	Mix map[string]int
	// Workload names the catalog workload run/cold/compare jobs draw
	// (default OLTP-DB2).
	Workload string
	// Corpus is the store ref replay jobs target; empty downgrades the
	// replay weight to cached.
	Corpus string
	// Warm and Measure scale each job's simulation (0s = 2000/4000 —
	// small on purpose: a load test stresses the serving tier, not the
	// engine).
	Warm, Measure int
	// Seed makes the mix sequence and the cold-job seeds reproducible.
	Seed int64
	// Poll is the job-status poll interval (0 = 10ms).
	Poll time.Duration
	// Client overrides the HTTP client (nil = http.DefaultClient).
	Client *http.Client
}

func (cfg *Config) withDefaults() error {
	if cfg.BaseURL == "" {
		return errors.New("loadgen: BaseURL required")
	}
	if cfg.Rate <= 0 {
		return fmt.Errorf("loadgen: rate %v must be positive", cfg.Rate)
	}
	if cfg.Total <= 0 && cfg.Duration <= 0 {
		return errors.New("loadgen: need a Total or a Duration bound")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 64
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = map[string]int{MixCached: 1}
	}
	total := 0
	for kind, w := range cfg.Mix {
		switch kind {
		case MixCached, MixCold, MixCompare, MixReplay:
		default:
			return fmt.Errorf("loadgen: unknown mix kind %q", kind)
		}
		if w < 0 {
			return fmt.Errorf("loadgen: negative mix weight %s=%d", kind, w)
		}
		total += w
	}
	if total == 0 {
		return errors.New("loadgen: mix weights sum to zero")
	}
	if cfg.Workload == "" {
		cfg.Workload = "OLTP-DB2"
	}
	if cfg.Warm <= 0 {
		cfg.Warm = 2000
	}
	if cfg.Measure <= 0 {
		cfg.Measure = 4000
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 10 * time.Millisecond
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	return nil
}

// Result is one load run's client-side accounting.
type Result struct {
	// Scheduled arrivals, and their fates. Submitted = arrivals that
	// reached the server and were accepted; Shed were dropped at the
	// concurrency cap; Throttled got 429; Unavailable got 503; Errors
	// is transport failures and unexpected statuses.
	Scheduled   int
	Submitted   int
	Shed        int
	Throttled   int
	Unavailable int
	Errors      int
	// Terminal fates of submitted jobs.
	Done, Failed, Canceled int
	// Elapsed is the whole run, scheduling through last job terminal.
	Elapsed time.Duration
	// Latency holds client-side submit→terminal quantiles per mix kind
	// plus the aggregate "all".
	Latency map[string]obs.Snapshot
}

// runner carries one run's shared state.
type runner struct {
	cfg Config
	lat *obs.WindowVec

	submitted, shed, throttled, unavailable, errs atomic.Int64
	done, failed, canceled                        atomic.Int64

	errOnce  sync.Once
	firstErr error
}

// Run executes one load run and blocks until every in-flight job
// reaches a terminal state (or ctx ends). The returned Result is
// complete even when ctx was canceled mid-run.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	r := &runner{
		cfg: cfg,
		// One wide sub-window spanning any plausible run: the client
		// wants whole-run quantiles, not a sliding view.
		lat: obs.NewWindowVec(1, 24*time.Hour),
	}

	// The scheduler goroutine owns the RNG: the mix sequence is a pure
	// function of the seed, independent of goroutine interleaving.
	rng := rand.New(rand.NewSource(cfg.Seed))
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	sem := make(chan struct{}, cfg.Concurrency)
	var wg sync.WaitGroup

	start := time.Now()
	scheduled := 0
loop:
	for {
		if cfg.Total > 0 && scheduled >= cfg.Total {
			break
		}
		if cfg.Duration > 0 && time.Since(start) >= cfg.Duration {
			break
		}
		// Open loop: the i-th arrival fires at start+i*interval no
		// matter how the previous ones fared.
		next := start.Add(time.Duration(scheduled) * interval)
		if d := time.Until(next); d > 0 {
			select {
			case <-ctx.Done():
				break loop
			case <-time.After(d):
			}
		} else if ctx.Err() != nil {
			break
		}
		kind := pickMix(rng, cfg.Mix)
		idx := scheduled
		scheduled++
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				r.runOne(ctx, kind, idx)
			}()
		default:
			r.shed.Add(1)
		}
	}
	wg.Wait()

	out := &Result{
		Scheduled:   scheduled,
		Submitted:   int(r.submitted.Load()),
		Shed:        int(r.shed.Load()),
		Throttled:   int(r.throttled.Load()),
		Unavailable: int(r.unavailable.Load()),
		Errors:      int(r.errs.Load()),
		Done:        int(r.done.Load()),
		Failed:      int(r.failed.Load()),
		Canceled:    int(r.canceled.Load()),
		Elapsed:     time.Since(start),
		Latency:     r.lat.Snapshots(),
	}
	return out, r.firstErr
}

// pickMix draws one mix kind by weight, iterating kinds in sorted
// order so the draw is deterministic for a given RNG state.
func pickMix(rng *rand.Rand, mix map[string]int) string {
	kinds := make([]string, 0, len(mix))
	total := 0
	for k, w := range mix {
		if w > 0 {
			kinds = append(kinds, k)
			total += w
		}
	}
	sort.Strings(kinds)
	n := rng.Intn(total)
	for _, k := range kinds {
		if n -= mix[k]; n < 0 {
			return k
		}
	}
	return kinds[len(kinds)-1]
}

// buildJob constructs the canonical job body for one arrival.
func (r *runner) buildJob(kind string, idx int) ([]byte, error) {
	cfg := r.cfg
	opts := rnuca.RunOptions{Warm: cfg.Warm, Measure: cfg.Measure}
	job := rnuca.Job{Designs: []rnuca.DesignID{rnuca.DesignRNUCA}, Options: opts}
	switch kind {
	case MixReplay:
		if cfg.Corpus == "" {
			kind = MixCached
		} else {
			job.Input = rnuca.FromCorpusRef(cfg.Corpus)
		}
	case MixCompare:
		job.Designs = []rnuca.DesignID{rnuca.DesignPrivate, rnuca.DesignRNUCA}
	}
	if kind == MixCached || kind == MixCold || kind == MixCompare {
		w, ok := workload.ByName(cfg.Workload)
		if !ok {
			return nil, fmt.Errorf("loadgen: unknown workload %q", cfg.Workload)
		}
		if kind == MixCold {
			// A unique stream seed per arrival gives every cold job its
			// own canonical encoding — a guaranteed cache miss.
			w.Seed = uint64(cfg.Seed)*1_000_003 + uint64(idx) + 1
		}
		job.Input = rnuca.FromWorkload(w)
	}
	return json.Marshal(job)
}

// jobEcho is the slice of the server's JobStatus the client needs.
type jobEcho struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// runOne submits one job and follows it to a terminal state,
// recording the client-felt latency.
func (r *runner) runOne(ctx context.Context, kind string, idx int) {
	body, err := r.buildJob(kind, idx)
	if err != nil {
		r.fail(err)
		return
	}
	t0 := time.Now()
	st, code, err := r.post(ctx, body)
	switch {
	case err != nil:
		if ctx.Err() == nil {
			r.fail(err)
		}
		return
	case code == http.StatusTooManyRequests:
		r.throttled.Add(1)
		return
	case code == http.StatusServiceUnavailable:
		r.unavailable.Add(1)
		return
	case code != http.StatusAccepted:
		r.fail(fmt.Errorf("loadgen: submit returned %d", code))
		return
	}
	r.submitted.Add(1)

	for !terminal(st.State) {
		select {
		case <-ctx.Done():
			return
		case <-time.After(r.cfg.Poll):
		}
		st, err = r.get(ctx, st.ID)
		if err != nil {
			if ctx.Err() == nil {
				r.fail(err)
			}
			return
		}
	}
	sec := time.Since(t0).Seconds()
	r.lat.Observe(kind, sec)
	r.lat.Observe("all", sec)
	switch st.State {
	case "done":
		r.done.Add(1)
	case "failed":
		r.failed.Add(1)
	default:
		r.canceled.Add(1)
	}
}

// fail counts an error and retains the first one for Run's return.
func (r *runner) fail(err error) {
	r.errs.Add(1)
	r.errOnce.Do(func() { r.firstErr = err })
}

func (r *runner) post(ctx context.Context, body []byte) (jobEcho, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		r.cfg.BaseURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return jobEcho{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return jobEcho{}, 0, err
	}
	defer drain(resp.Body)
	var st jobEcho
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return jobEcho{}, resp.StatusCode, fmt.Errorf("loadgen: decoding submit echo: %w", err)
		}
	}
	return st, resp.StatusCode, nil
}

func (r *runner) get(ctx context.Context, id string) (jobEcho, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		r.cfg.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return jobEcho{}, err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return jobEcho{}, err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return jobEcho{}, fmt.Errorf("loadgen: job %s status %d", id, resp.StatusCode)
	}
	var st jobEcho
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return jobEcho{}, err
	}
	return st, nil
}

// drain empties and closes a response body so connections are reused.
func drain(rc io.ReadCloser) {
	io.Copy(io.Discard, rc)
	rc.Close()
}
