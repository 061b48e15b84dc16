package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rnuca"
	"rnuca/internal/serve"
)

// arrival is one scheduled submission and what became of it.
type arrival struct {
	due, sent, answered time.Time
	cold                int // cold job number, or -1 for the cached job
	id                  string
	err                 error
}

// serveJob is a simulation job serve-mix submits: R-NUCA on input w.
func serveJob(sc scale, w rnuca.Workload) rnuca.Job {
	return rnuca.Job{Input: rnuca.FromWorkload(w), Designs: []rnuca.DesignID{rnuca.DesignRNUCA},
		Options: rnuca.RunOptions{Warm: sc.serveWarm, Measure: sc.serveMeasure, Batches: 1}}
}

// runServeMix serves jobs over loopback HTTP from an in-process server
// and drives it with an open loop: arrival i is due at i/rate seconds,
// whatever happened to earlier ones. Every serveColdEvery-th arrival is
// a cold job, OLTP-DB2 with an input seed of its own, so a full
// generator build and simulation; the rest repeat one cached job. Latency runs from an arrival's due time to the server's Finished
// stamp, so neither the driver's lateness nor completion detection
// hides in it.
func runServeMix(r *rep) error {
	sc := r.sc
	nproc := runtime.GOMAXPROCS(0)
	ctx := context.Background()

	sp := r.tr.start("serve.start", r.setup)
	srv := serve.New(serve.Config{Workers: nproc, JobHistory: sc.serveJobs + 1, CacheEntries: sc.serveJobs + 1})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true}}
	defer client.CloseIdleConnections()
	url := "http://" + ln.Addr().String() + "/v1/jobs"
	r.tr.end(sp)

	// The cached job (MIX, whose generator builds in milliseconds) is
	// computed directly for reference, then once through the server to
	// fill its result cache.
	cachedSpec := serveJob(sc, seeded(rnuca.MIX(), r.seed, 0))
	sp = r.tr.start("serve.reference", r.setup)
	ref, err := cachedSpec.Run(ctx)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	refDigest := digestOf(ref.Result)
	cachedBody, err := json.Marshal(cachedSpec)
	if err != nil {
		return err
	}
	sp = r.tr.start("serve.prime", r.setup)
	id, err := post(client, url, cachedBody)
	if err == nil {
		err = waitDone(srv, id)
	}
	r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("priming the result cache: %w", err)
	}

	n := sc.serveJobs
	arr := make([]arrival, n)
	bodies := make([][]byte, n)
	var coldSpecs []rnuca.Job
	for i := range arr {
		arr[i].cold = -1
		bodies[i] = cachedBody
		if i%sc.serveColdEvery == sc.serveColdEvery/2 {
			arr[i].cold = len(coldSpecs)
			j := serveJob(sc, seeded(rnuca.OLTPDB2(), r.seed, uint64(1+len(coldSpecs))))
			coldSpecs = append(coldSpecs, j)
			if bodies[i], err = json.Marshal(j); err != nil {
				return err
			}
		}
	}

	if !r.begin() {
		return nil
	}
	t0 := r.started
	interval := float64(time.Second) / sc.serveRate
	for i := range arr {
		arr[i].due = t0.Add(time.Duration(float64(i) * interval))
	}
	// nproc senders take arrivals in order; each sleeps until its
	// arrival is due, so at most nproc requests are ever in flight.
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				a := &arr[i]
				time.Sleep(time.Until(a.due))
				a.sent = time.Now()
				a.id, a.err = post(client, url, bodies[i])
				a.answered = time.Now()
			}
		}()
	}
	wg.Wait()
	scheduled := time.Now()
	if err := srv.Drain(ctx); err != nil {
		return err
	}
	drained := time.Now()
	verify := r.tr.start("serve.verify", r.root)
	defer r.tr.end(verify)

	var last time.Time
	ss := &serveSamples{}
	coldDigests := make([]string, len(coldSpecs))
	for i := range arr {
		a := &arr[i]
		name := "cached"
		if a.cold >= 0 {
			name = fmt.Sprintf("cold/%d", a.cold)
		}
		r.res.Attempted++
		ss.LagMS = append(ss.LagMS, ms(a.sent.Sub(a.due)))
		ss.SubmitMS = append(ss.SubmitMS, ms(a.answered.Sub(a.sent)))
		if a.err != nil {
			r.fail("arrival %d (%s): %v", i, name, a.err)
			continue
		}
		st, ok := srv.Job(a.id)
		if !ok || st.State != serve.JobDone || st.Result == nil || st.Result.Result == nil {
			r.fail("arrival %d (%s): job %s ended %q: %s", i, name, a.id, st.State, st.Error)
			continue
		}
		d := digestOf(st.Result.Result.Result)
		if a.cold < 0 {
			if d != refDigest {
				r.fail("arrival %d: cached job result %s, direct run %s", i, d, refDigest)
				continue
			}
		} else {
			coldDigests[a.cold] = d
		}
		if st.Finished.After(last) {
			last = *st.Finished
		}
		// Every arrival is a job of its own, in every repetition.
		r.job(fmt.Sprintf("%d/%d", r.index, i), st.Finished.Sub(a.due))
		ss.QueueMS = append(ss.QueueMS, ms(st.Started.Sub(st.Created)))
		if a.cold < 0 {
			ss.RunCachedMS = append(ss.RunCachedMS, ms(st.Finished.Sub(*st.Started)))
		} else {
			ss.RunColdMS = append(ss.RunColdMS, ms(st.Finished.Sub(*st.Started)))
		}
		if r.tr != nil {
			job := r.tr.add("serve.job", r.root, st.Created, *st.Finished)
			r.tr.add("serve.queue", job, st.Created, *st.Started)
			r.tr.add("serve.run", job, *st.Started, *st.Finished)
			r.tr.add("driver.submit", r.root, a.sent, a.answered)
		}
	}
	r.res.WallS = last.Sub(t0).Seconds()
	r.tr.add("driver.schedule", r.root, t0, scheduled)
	r.tr.add("serve.drain", r.root, scheduled, drained)

	r.res.Digests["cached"] = refDigest
	for i, d := range coldDigests {
		if d != "" {
			r.res.Digests[fmt.Sprintf("cold/%d", i)] = d
		}
	}
	// One cold job per repetition, rotating, against a direct run.
	if len(coldSpecs) > 0 {
		k := r.index % len(coldSpecs)
		r.res.Attempted++
		direct, err := coldSpecs[k].Run(ctx)
		if err != nil {
			r.fail("direct run of cold job %d: %v", k, err)
		} else if d := digestOf(direct.Result); d != coldDigests[k] {
			r.fail("cold job %d served %s, direct run %s", k, coldDigests[k], d)
		}
	}

	m := srv.Cache().Metrics()
	ss.CacheHits, ss.CacheLookups = m.Hits, m.Hits+m.Misses+m.Shared
	r.res.Serve = ss
	return nil
}

// serveSamples are serve-mix's per-arrival driver and server times.
// A run pools them over its repetitions, so percentiles have enough
// samples beyond them.
type serveSamples struct {
	LagMS, SubmitMS, QueueMS []float64
	RunCachedMS, RunColdMS   []float64
	CacheHits, CacheLookups  uint64
}

func (s *serveSamples) add(o *serveSamples) {
	s.LagMS = append(s.LagMS, o.LagMS...)
	s.SubmitMS = append(s.SubmitMS, o.SubmitMS...)
	s.QueueMS = append(s.QueueMS, o.QueueMS...)
	s.RunCachedMS = append(s.RunCachedMS, o.RunCachedMS...)
	s.RunColdMS = append(s.RunColdMS, o.RunColdMS...)
	s.CacheHits += o.CacheHits
	s.CacheLookups += o.CacheLookups
}

// metrics returns the serve and driver per-layer metrics.
func (s *serveSamples) metrics() map[string]float64 {
	return map[string]float64{
		"resultcache.hit_ratio":   ratio(int64(s.CacheHits), int64(s.CacheLookups)),
		"serve.submit_ms_p50":     median(s.SubmitMS),
		"serve.queue_wait_ms_p99": percentile(s.QueueMS, 99),
		"serve.run_ms_p50.cached": median(s.RunCachedMS),
		"serve.run_ms_p50.cold":   median(s.RunColdMS),
		"driver.lag_ms_p99":       percentile(s.LagMS, 99),
	}
}

// post submits one job and returns its id.
func post(c *http.Client, url string, body []byte) (string, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// waitDone waits for a set-up job to finish.
func waitDone(srv *serve.Server, id string) error {
	for {
		st, ok := srv.Job(id)
		switch {
		case !ok:
			return errors.New("job " + id + " vanished")
		case st.State == serve.JobDone:
			return nil
		case st.State == serve.JobFailed || st.State == serve.JobCanceled:
			return fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
		time.Sleep(time.Millisecond)
	}
}
