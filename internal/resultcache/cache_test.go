package resultcache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rnuca"
	"rnuca/internal/leakcheck"
	"rnuca/internal/obs"
	"rnuca/internal/sim"
)

// N concurrent Do calls for one key run the computation exactly once,
// and every caller sees the same value.
func TestDoSingleflight(t *testing.T) {
	leakcheck.Check(t)
	c := New(8)
	var computed atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func(ctx context.Context) (any, error) {
		computed.Add(1)
		close(started)
		<-release
		return 42, nil
	}
	join := func(ctx context.Context) (any, error) {
		t.Error("second computation started")
		return nil, errors.New("dup")
	}

	var wg sync.WaitGroup
	results := make([]any, 8)
	outcomes := make([]Outcome, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], outcomes[0], _ = c.Do(context.Background(), "k", fn)
	}()
	<-started
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], outcomes[i], _ = c.Do(context.Background(), "k", join)
		}(i)
	}
	// Let the joiners reach the flight before releasing it.
	for c.Metrics().Shared < 7 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computed.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	m := c.Metrics()
	if m.Misses != 1 || m.Shared != 7 {
		t.Fatalf("metrics %+v, want 1 miss + 7 shared", m)
	}
	if v, _, err := c.Do(context.Background(), "k", join); err != nil || v != 42 {
		t.Fatalf("post-flight Do = %v, %v", v, err)
	}
	if m := c.Metrics(); m.Hits != 1 {
		t.Fatalf("metrics %+v, want 1 hit", m)
	}
}

// Errors are surfaced to every waiter and never cached.
func TestDoErrorNotCached(t *testing.T) {
	leakcheck.Check(t)
	c := New(8)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", func(ctx context.Context) (any, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, _, err := c.Do(context.Background(), "k", func(ctx context.Context) (any, error) {
		return "ok", nil
	})
	if err != nil || v != "ok" {
		t.Fatalf("retry = %v, %v", v, err)
	}
	if m := c.Metrics(); m.Misses != 2 || m.Errors != 1 {
		t.Fatalf("metrics %+v, want 2 misses, 1 error", m)
	}
}

// A waiter whose context ends returns immediately; the flight keeps
// computing for the remaining waiters, and only loses its context when
// the last one leaves.
func TestDoCancelWaiterAndFlight(t *testing.T) {
	leakcheck.Check(t)
	c := New(8)
	flightCtx := make(chan context.Context, 1)
	release := make(chan struct{})
	go c.Do(context.Background(), "k", func(ctx context.Context) (any, error) {
		flightCtx <- ctx
		<-release
		return 1, nil
	})
	fctx := <-flightCtx

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", nil)
		done <- err
	}()
	for c.Metrics().Shared < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v", err)
	}
	// The starter still waits, so the flight context must be live.
	if fctx.Err() != nil {
		t.Fatal("flight canceled while a waiter remained")
	}
	close(release)
}

// When every waiter cancels, the flight's context is canceled so a
// cooperative computation can stop; a new Do after the flight clears
// recomputes.
func TestDoCancelLastWaiterCancelsFlight(t *testing.T) {
	leakcheck.Check(t)
	c := New(8)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	computes := make(chan int, 2)
	go func() {
		_, _, err := c.Do(ctx, "k", func(fctx context.Context) (any, error) {
			computes <- 1
			<-fctx.Done() // cooperative: stop when no one wants the result
			return nil, fctx.Err()
		})
		done <- err
	}()
	<-computes
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("starter err = %v", err)
	}
	v, _, err := c.Do(context.Background(), "k", func(fctx context.Context) (any, error) {
		computes <- 2
		return "second", nil
	})
	if err != nil || v != "second" {
		t.Fatalf("recompute = %v, %v", v, err)
	}
}

// A panicking computation becomes an error for every waiter, not a
// dead process; nothing is cached, so a later Do retries.
func TestDoRecoversPanics(t *testing.T) {
	leakcheck.Check(t)
	c := New(8)
	_, _, err := c.Do(context.Background(), "k", func(ctx context.Context) (any, error) {
		panic("sim: exploded")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic surfaced as %v", err)
	}
	v, _, err := c.Do(context.Background(), "k", func(ctx context.Context) (any, error) {
		return "recovered", nil
	})
	if err != nil || v != "recovered" {
		t.Fatalf("retry after panic = %v, %v", v, err)
	}
	if m := c.Metrics(); m.Errors != 1 || m.Entries != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

// The LRU evicts oldest-first at capacity.
func TestLRUEviction(t *testing.T) {
	c := New(2)
	put := func(k string) {
		c.Do(context.Background(), k, func(ctx context.Context) (any, error) { return k, nil })
	}
	put("a")
	put("b")
	c.Get("a") // refresh a; b becomes the eviction candidate
	put("c")
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite refresh")
	}
	if m := c.Metrics(); m.Evictions != 1 || m.Entries != 2 {
		t.Fatalf("metrics %+v", m)
	}
}

// Keys canonicalize: result-neutral knobs (Sharded, Progress) are
// excluded by construction, result-relevant ones are not, and jobs
// with no canonical encoding (source inputs, Maker jobs, unbound
// corpus names) defeat caching.
func TestJobKeyCanonicalization(t *testing.T) {
	dig := strings.Repeat("ab", 32)
	cellJob := func(in rnuca.Input, design rnuca.DesignID, o rnuca.RunOptions) rnuca.Job {
		return rnuca.Job{Input: in, Designs: []rnuca.DesignID{design}, Options: o}
	}
	base := cellJob(rnuca.FromCorpusRef(dig), "R", rnuca.RunOptions{Warm: 100, Measure: 200})
	k1, ok := JobKey(base)
	if !ok {
		t.Fatal("base job not cacheable")
	}

	sharded := base
	sharded.Input = rnuca.FromCorpusRef(dig).Sharded(8)
	sharded.Options.Progress = func(done, total int) {}
	k2, ok := JobKey(sharded)
	if !ok || k2 != k1 {
		t.Fatalf("sharded key %q != sequential %q", k2, k1)
	}

	b := base
	b.Options.Batches = 1
	if batch1, _ := JobKey(b); batch1 != k1 {
		t.Fatal("Batches 0 and 1 should share a key")
	}

	for i, vary := range []rnuca.Job{
		cellJob(rnuca.FromCorpusRef(dig), "R", rnuca.RunOptions{Warm: 101, Measure: 200}),
		cellJob(rnuca.FromCorpusRef(dig), "R", rnuca.RunOptions{Warm: 100, Measure: 201}),
		cellJob(rnuca.FromCorpusRef(dig), "R", rnuca.RunOptions{Warm: 100, Measure: 200, Batches: 3}),
		cellJob(rnuca.FromCorpusRef(dig), "R", rnuca.RunOptions{Warm: 100, Measure: 200, InstrClusterSize: 8}),
		cellJob(rnuca.FromCorpusRef(dig), "R", rnuca.RunOptions{Warm: 100, Measure: 200, PrivateClusterSize: 4}),
		cellJob(rnuca.FromCorpusRef(dig).Window(5, 50), "R", rnuca.RunOptions{Warm: 100, Measure: 200}),
		cellJob(rnuca.FromCorpusRef(dig), "P", rnuca.RunOptions{Warm: 100, Measure: 200}),
		cellJob(rnuca.FromCorpusRef(dig), "A/adaptive", rnuca.RunOptions{Warm: 100, Measure: 200}),
		cellJob(rnuca.FromCorpusRef(strings.Repeat("cd", 32)), "R", rnuca.RunOptions{Warm: 100, Measure: 200}),
	} {
		kv, ok := JobKey(vary)
		if !ok || kv == k1 {
			t.Fatalf("variant %d did not change the key", i)
		}
	}

	src := cellJob(rnuca.FromSource(func(batch int) rnuca.RefSource { return nil }), "R", rnuca.RunOptions{})
	if _, ok := JobKey(src); ok {
		t.Fatal("source input must defeat caching")
	}
	maker := base
	maker.Maker = func(ch *sim.Chassis) sim.Design { return nil }
	if _, ok := JobKey(maker); ok {
		t.Fatal("Maker job must defeat caching")
	}
	unbound := cellJob(rnuca.FromCorpusRef("some-name"), "R", rnuca.RunOptions{})
	if _, ok := JobKey(unbound); ok {
		t.Fatal("unresolved corpus name must defeat caching")
	}
}

// Workload-backed jobs distinguish any spec difference.
func TestWorkloadJobKey(t *testing.T) {
	job := func(w rnuca.Workload) rnuca.Job {
		return rnuca.Job{Input: rnuca.FromWorkload(w), Designs: []rnuca.DesignID{"R"}}
	}
	a, ok := JobKey(job(rnuca.OLTPDB2()))
	if !ok {
		t.Fatal("spec not canonicalizable")
	}
	reseeded := rnuca.OLTPDB2()
	reseeded.Seed++
	if b, _ := JobKey(job(reseeded)); a == b {
		t.Fatal("seed does not change the key")
	}
	if c, _ := JobKey(job(rnuca.Apache())); c == a {
		t.Fatal("workload does not change the key")
	}
}

// Concurrent mixed traffic over many keys stays consistent (run under
// -race in CI).
func TestConcurrentStress(t *testing.T) {
	leakcheck.Check(t)
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%24)
				v, _, err := c.Do(context.Background(), key, func(ctx context.Context) (any, error) {
					return key, nil
				})
				if err != nil || v != key {
					t.Errorf("Do(%s) = %v, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Instrumented registry counters mirror Metrics() exactly — same
// increment sites — including after concurrent traffic that exercises
// hits, misses, errors, and evictions (CI runs this under -race).
func TestInstrumentMirrorsMetrics(t *testing.T) {
	c := New(4)
	reg := obs.NewRegistry()
	c.Instrument(reg)

	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Six keys through a four-entry LRU: hits, misses, and
				// evictions all occur; k5 always fails, so errors too.
				key := fmt.Sprintf("k%d", (g+i)%6)
				_, _, _ = c.Do(ctx, key, func(ctx context.Context) (any, error) {
					if key == "k5" {
						return nil, errors.New("boom")
					}
					return key, nil
				})
			}
		}(g)
	}
	wg.Wait()

	m := c.Metrics()
	if m.Hits == 0 || m.Misses == 0 || m.Errors == 0 || m.Evictions == 0 {
		t.Fatalf("workload failed to exercise every counter: %+v", m)
	}
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{
		"rnuca_result_cache_hits_total":      m.Hits,
		"rnuca_result_cache_misses_total":    m.Misses,
		"rnuca_result_cache_shared_total":    m.Shared,
		"rnuca_result_cache_errors_total":    m.Errors,
		"rnuca_result_cache_evictions_total": m.Evictions,
		"rnuca_result_cache_entries":         uint64(m.Entries),
	} {
		found := false
		for _, line := range strings.Split(buf.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				found = true
				if rest != fmt.Sprint(want) {
					t.Errorf("%s: registry says %s, Metrics says %d", name, rest, want)
				}
			}
		}
		if !found {
			t.Errorf("%s not exposed", name)
		}
	}
}
