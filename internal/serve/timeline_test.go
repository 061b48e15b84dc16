package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"rnuca"
	"rnuca/internal/corpus"
	"rnuca/internal/leakcheck"
	"rnuca/internal/obs/log"
)

// newFlightServer builds a test server with a caller-shaped Config
// (EpochRefs, Logger, Workers); the store always holds the shared
// trace as "oltp".
func newFlightServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	leakcheck.Check(t)
	st, err := corpus.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Add(recordedTrace(t), "oltp"); err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// getTimeline fetches GET /v1/jobs/{id}/timeline.
func getTimeline(t *testing.T, base, id string) JobTimeline {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline: %s", resp.Status)
	}
	var jt JobTimeline
	if err := json.NewDecoder(resp.Body).Decode(&jt); err != nil {
		t.Fatal(err)
	}
	return jt
}

// A replay job on a server with small epochs serves a multi-epoch
// timeline from /v1/jobs/{id}/timeline, the epochs partition exactly
// the refs the Result measured, and a cache-hit job re-serves the
// original execution's timeline.
func TestTimelineEndpointEndToEnd(t *testing.T) {
	_, hs := newFlightServer(t, Config{Workers: 2, EpochRefs: 2048})

	st := postJob(t, hs.URL, `{"input":{"corpus":"oltp"},"designs":["R"]}`)
	fin := waitJob(t, hs.URL, st.ID)
	if fin.State != JobDone {
		t.Fatalf("job %s: %s (%s)", st.ID, fin.State, fin.Error)
	}
	if fin.Epochs < 2 || fin.Epoch == nil {
		t.Fatalf("terminal status epochs=%d epoch=%v, want >= 2 live epochs", fin.Epochs, fin.Epoch)
	}

	jt := getTimeline(t, hs.URL, st.ID)
	if jt.Job != st.ID {
		t.Errorf("timeline job = %q", jt.Job)
	}
	tl := jt.Timelines["R"]
	if tl == nil {
		t.Fatalf("no timeline for design R: %v", jt.Timelines)
	}
	if tl.BaseEpochs < 2 {
		t.Errorf("timeline has %d base epochs, want >= 2", tl.BaseEpochs)
	}
	if tl.EpochRefs != 2048 {
		t.Errorf("epoch refs = %d, want the configured 2048", tl.EpochRefs)
	}
	var refs uint64
	for _, e := range tl.Epochs {
		refs += e.Refs()
	}
	if refs != fin.Result.Result.Refs {
		t.Errorf("timeline covers %d refs, Result measured %d", refs, fin.Result.Result.Refs)
	}
	if got := metric(t, hs.URL, "rnuca_flight_epochs_total"); int(got) != fin.Epochs {
		t.Errorf("rnuca_flight_epochs_total = %v, job observed %d", got, fin.Epochs)
	}

	// A cache-hit job closes no epochs of its own but still serves the
	// starter's timeline.
	st2 := postJob(t, hs.URL, `{"input":{"corpus":"oltp"},"designs":["R"]}`)
	fin2 := waitJob(t, hs.URL, st2.ID)
	if fin2.State != JobDone || fin2.Result.Cache["R"] != "hit" {
		t.Fatalf("second job: %s, cache %v", fin2.State, fin2.Result.Cache)
	}
	if fin2.Epochs != 0 {
		t.Errorf("cache-hit job closed %d epochs, want 0", fin2.Epochs)
	}
	jt2 := getTimeline(t, hs.URL, st2.ID)
	a, _ := json.Marshal(tl)
	b, _ := json.Marshal(jt2.Timelines["R"])
	if string(a) != string(b) {
		t.Error("cache-hit job served a different timeline than the starter")
	}

	// Unknown sub-paths stay 404.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("bogus sub-path: %s", resp.Status)
	}
}

// SSE watchers see epoch samples live: mid-run status events carry a
// growing epoch count and the most recently closed epoch, and the
// terminal event carries the final tallies.
func TestSSECarriesEpochSamples(t *testing.T) {
	_, hs := newFlightServer(t, Config{Workers: 1, EpochRefs: 4096})

	// A workload job long enough (~0.5s at ~300k refs/s) that the
	// 100ms SSE poll observes epochs while it runs.
	st := postJob(t, hs.URL, rnuca.Job{
		Input:   rnuca.FromWorkload(rnuca.OLTPDB2()),
		Designs: []rnuca.DesignID{rnuca.DesignRNUCA},
		Options: rnuca.RunOptions{Warm: 5_000, Measure: 150_000},
	})

	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var event string
	var live []JobStatus // non-terminal status events with epochs
	var final JobStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "event: "); ok {
			event = rest
			continue
		}
		rest, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var snap JobStatus
		if err := json.Unmarshal([]byte(rest), &snap); err != nil {
			t.Fatal(err)
		}
		if event == "done" {
			final = snap
			break
		}
		if snap.Epochs > 0 {
			live = append(live, snap)
		}
	}
	if final.State != JobDone {
		t.Fatalf("terminal event: %+v", final)
	}
	if len(live) == 0 {
		t.Fatal("no mid-run status event carried epoch samples")
	}
	prev := 0
	for _, snap := range live {
		if snap.Epoch == nil {
			t.Fatalf("status with %d epochs carries no last epoch", snap.Epochs)
		}
		if snap.Epochs < prev {
			t.Fatalf("epoch count went backwards: %d after %d", snap.Epochs, prev)
		}
		prev = snap.Epochs
	}
	if final.Epochs < live[len(live)-1].Epochs {
		t.Errorf("terminal epochs %d below last live %d", final.Epochs, prev)
	}
	if final.Epoch == nil {
		t.Error("terminal status carries no last epoch")
	}
}

// /readyz flips to 503 the moment a drain begins — while /healthz
// stays 200 and the in-flight job runs to done.
func TestReadyzDrainTransition(t *testing.T) {
	s, hs := newFlightServer(t, Config{Workers: 1})

	probe := func(path string) int {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := probe("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", code)
	}

	st := postJob(t, hs.URL, `{"input":{"corpus":"oltp"},"designs":["R"]}`)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for probe("/readyz") != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("/readyz never turned 503 during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Liveness is not readiness: a draining server is still alive.
	if code := probe("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz during drain: %d", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if fin, _ := s.Job(st.ID); fin.State != JobDone {
		t.Fatalf("in-flight job after drain: %s (%s)", fin.State, fin.Error)
	}
	if code := probe("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after drain: %d", code)
	}
}

// Workers execute jobs under pprof labels carrying the job's identity.
func TestJobPprofLabels(t *testing.T) {
	got := map[string]string{}
	pprof.Do(context.Background(), jobLabels("j00c0ffee", "sim"), func(ctx context.Context) {
		pprof.ForLabels(ctx, func(k, v string) bool {
			got[k] = v
			return true
		})
	})
	if got["job_id"] != "j00c0ffee" || got["kind"] != "sim" {
		t.Fatalf("job labels = %v", got)
	}
}

// lockedBuf is a goroutine-safe writer for log-capture tests (workers
// log from their own goroutines).
type lockedBuf struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// Every lifecycle line the server logs for a job carries its job_id,
// so `grep job_id=...` reconstructs the job's story.
func TestServerLogsCorrelateByJobID(t *testing.T) {
	var buf lockedBuf
	lg := log.New(&buf, log.LevelInfo)
	_, hs := newFlightServer(t, Config{Workers: 1, Logger: lg})

	st := postJob(t, hs.URL, `{"input":{"corpus":"oltp"},"designs":["R"]}`)
	fin := waitJob(t, hs.URL, st.ID)
	if fin.State != JobDone {
		t.Fatalf("job: %s (%s)", fin.State, fin.Error)
	}

	// The terminal line lands just after the status flips; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(buf.String(), `msg="job done"`) {
		if time.Now().After(deadline) {
			t.Fatalf("no terminal log line:\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	out := buf.String()
	for _, msg := range []string{`msg="job queued"`, `msg="job running"`, `msg="job done"`} {
		found := false
		for _, ln := range strings.Split(out, "\n") {
			if strings.Contains(ln, msg) {
				found = true
				if !strings.Contains(ln, "job_id="+st.ID) || !strings.Contains(ln, "kind=sim") {
					t.Errorf("line lost correlation: %q", ln)
				}
			}
		}
		if !found {
			t.Errorf("no %s line:\n%s", msg, out)
		}
	}
}
