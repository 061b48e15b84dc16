package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// endToEnd lists the end-to-end metrics an untraced run reports, in
// BENCHMARK.json's order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"jobs_per_s", "1/s"},
}

const (
	// runLimit bounds a whole run, whatever -seconds asks for.
	runLimit = 170 * time.Second
	// minSetups is how many set-up times a run takes its median over.
	minSetups = 5
	// minP99Samples is the fewest samples with ten beyond their p99.
	minP99Samples = 1000
)

// runChild executes one repetition and prints its repResult as JSON.
func runChild(o options, t0 time.Time, stdout, stderr io.Writer) int {
	r := &rep{
		workload:  o.workload,
		seed:      o.seed,
		sc:        scales[o.scaleName],
		index:     o.index,
		setupOnly: o.child == "setup",
		tmpDir:    o.tmpDir,
	}
	r.res.Digests = map[string]string{}
	if o.trace {
		r.tr = newTracer(fmt.Sprintf("%s-seed%d-pid%d", o.workload, o.seed, os.Getpid()), t0)
		r.lay = newLayers()
		calibrateClock()
		r.setup = r.tr.start("setup", 0)
	}
	fn, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if !r.setupOnly {
		if r.res.WallS == 0 {
			r.res.WallS = time.Since(r.started).Seconds()
		}
		if r.tr != nil {
			r.tr.end(r.root)
			end := time.Since(t0).Nanoseconds()
			r.res.Layers = r.lay.metrics(int64(r.res.WallS * 1e9))
			r.res.Layers["trace.span_coverage"] = r.tr.coverage(end)
			if err := r.tr.write(o.spans); err != nil {
				fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
				return 1
			}
		}
	}
	if err := json.NewEncoder(stdout).Encode(r.res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// childRun is one finished repetition process.
type childRun struct {
	res     repResult
	spawned time.Time
	dur     time.Duration
	rssKB   int64
}

func (c childRun) setupS() float64 { return float64(c.res.FirstOp-c.spawned.UnixNano()) / 1e9 }

// spawner starts repetition processes of this binary.
type spawner struct {
	o      options
	exe    string
	dir    string
	ctx    context.Context
	stderr io.Writer
}

func newSpawner(ctx context.Context, o options, stderr io.Writer) (*spawner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(filepath.Dir(exe), "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &spawner{o: o, exe: exe, dir: dir, ctx: ctx, stderr: stderr}, nil
}

// spawn runs one repetition: mode "run" or "setup".
func (s *spawner) spawn(mode string, index int, traced bool, seed uint64) (childRun, error) {
	args := []string{"-child", mode, "-workload", s.o.workload, "-seed", strconv.FormatUint(seed, 10),
		"-scale", s.o.scaleName, "-index", strconv.Itoa(index), "-tmp", s.dir}
	if traced {
		args = append(args, "-trace", "1", "-spans", s.spansPath(seed))
	}
	cmd := exec.CommandContext(s.ctx, s.exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = s.stderr
	c := childRun{spawned: time.Now()}
	err := cmd.Run()
	c.dur = time.Since(c.spawned)
	if err != nil {
		return c, fmt.Errorf("repetition %d: %w", index, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssKB = ru.Maxrss
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.res); err != nil {
		return c, fmt.Errorf("repetition %d output: %w", index, err)
	}
	return c, nil
}

func (s *spawner) spansPath(seed uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("spans-%s-seed%d.json", s.o.workload, seed))
}

// orchestrate runs repetitions for the measured time, checks their
// outputs, and prints the run's metrics.
func orchestrate(o options, stdout, stderr io.Writer) int {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	sp, err := newSpawner(ctx, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	golden, err := loadGolden(goldenJSON)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fp, _ := json.Marshal(fingerprint(o))
	fmt.Fprintf(stdout, "perfbench fingerprint %s\n", fp)

	var reps []childRun // timed repetitions; the traced one last in a traced run
	setups := []float64{}
	add := func(c childRun) {
		reps = append(reps, c)
		setups = append(setups, c.setupS())
	}
	var traced *childRun
	if o.trace {
		// Untraced repetitions first: one for the overhead ratio, and for
		// serve-mix up to two more, until its p99s have enough samples
		// (three of 300 arrivals and the traced one pool 1200 at bench
		// scale).
		arrivals := 0
		for i := 0; i < 3; i++ {
			c, err := sp.spawn("run", len(reps), false, o.seed)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			add(c)
			if c.res.Serve == nil {
				break
			}
			arrivals += len(c.res.Serve.LagMS)
			if arrivals+len(c.res.Serve.LagMS) >= minP99Samples {
				break
			}
		}
		c, err := sp.spawn("run", len(reps), true, o.seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		add(c)
		traced = &reps[len(reps)-1]
	} else {
		budget := time.Duration(o.seconds) * time.Second
		for {
			c, err := sp.spawn("run", len(reps), false, o.seed)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			add(c)
			// Start another repetition only if one more of the same
			// length still ends within the measured time.
			if time.Since(start)+c.dur > budget {
				break
			}
		}
		for i := 0; len(setups) < minSetups; i++ {
			c, err := sp.spawn("setup", len(reps)+i, false, o.seed)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			setups = append(setups, c.setupS())
		}
	}

	attempted, failed := 0, 0
	var problems []string
	var digests []map[string]string
	var walls, rss, rates, repP50 []float64
	byJob := map[string][]float64{}
	var jobNames []string
	serveAll := &serveSamples{}
	for i, c := range reps {
		attempted += c.res.Attempted
		failed += c.res.Failed
		for _, p := range c.res.Problems {
			problems = append(problems, fmt.Sprintf("repetition %d: %s", i, p))
		}
		digests = append(digests, c.res.Digests)
		if c.res.Serve != nil {
			serveAll.add(c.res.Serve)
		}
		if traced != nil && i == len(reps)-1 {
			continue // the traced repetition's times are not end-to-end
		}
		walls = append(walls, c.res.WallS)
		rss = append(rss, float64(c.rssKB)/1024)
		rates = append(rates, float64(len(c.res.Jobs))/c.res.WallS)
		var repJobs []float64
		for _, j := range c.res.Jobs {
			repJobs = append(repJobs, j.MS)
			if byJob[j.Name] == nil {
				jobNames = append(jobNames, j.Name)
			}
			byJob[j.Name] = append(byJob[j.Name], j.MS)
		}
		repP50 = append(repP50, median(repJobs))
	}
	// A job run again in every repetition counts once, at its median.
	var jobs []float64
	for _, n := range jobNames {
		jobs = append(jobs, median(byJob[n]))
	}
	want, haveGolden := golden.lookup(o.scaleName, o.workload, o.seed)
	nBad, digestProblems := checkDigests(digests, want)
	failed += nBad
	problems = append(problems, digestProblems...)
	if failed > attempted {
		failed = attempted
	}

	tailPct, tailMS := tail(jobs)
	metrics := map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      median(walls),
		"peak_rss_mb": median(rss),
		"job_p50_ms":  median(jobs),
		"job_tail_ms": tailMS,
		"jobs_per_s":  median(rates),
	}
	units := endToEnd
	if traced != nil {
		metrics = traced.res.Layers
		metrics["trace.overhead_ratio"] = traced.res.WallS / median(walls)
		if len(serveAll.LagMS) > 0 {
			for k, v := range serveAll.metrics() {
				metrics[k] = v
			}
		}
		units = perLayer
	}

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d scale=%s trace=%v repetitions=%d setups=%d golden=%v\n",
		o.workload, o.seed, o.scaleName, o.trace, len(reps), len(setups), haveGolden)
	for _, u := range units {
		fmt.Fprintf(stdout, "  %-40s %14.6g %s\n", u.name, metrics[u.name], u.unit)
	}
	fmt.Fprintf(stdout, "  %-40s %14.6g ratio (%d of %d operations failed)\n", "fail_frac", failFrac(attempted, failed), failed, attempted)
	if traced == nil {
		fmt.Fprintf(stdout, "  job_tail_ms is p%g of %d jobs\n", tailPct, len(jobs))
		fmt.Fprintf(stdout, "  repetition wall_s %.4g job_p50_ms %.4g peak_rss_mb %.4g\n", walls, repP50, rss)
		if len(serveAll.LagMS) > 0 {
			fmt.Fprintf(stdout, "  driver.lag_ms_p99 %.3f ms over %d arrivals\n", percentile(serveAll.LagMS, 99), len(serveAll.LagMS))
		}
	} else {
		fmt.Fprintf(stdout, "  spans: %s\n", sp.spansPath(o.seed))
	}
	for _, p := range problems {
		fmt.Fprintf(stdout, "  FAILED %s\n", p)
	}

	correct := failed == 0
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, map[string]metricValue{}}
	for _, u := range units {
		out.Metrics[u.name] = metricValue{Value: metrics[u.name], Unit: u.unit}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintf(stdout, "%s\n", b)
	if !correct {
		return 1
	}
	return 0
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// goldenSeeds is how many seeds, from 0, golden.json covers.
const goldenSeeds = 16

// recordGolden runs one untraced repetition of every workload for each
// seed in [0, goldenSeeds) and writes their output digests, replacing
// the recorded ones of the run's scale.
func recordGolden(o options, stderr io.Writer) int {
	table, err := loadGolden(goldenJSON)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if table == nil {
		table = goldenTable{}
	}
	table[o.scaleName] = map[string]map[string]map[string]string{}
	for _, name := range workloadNames() {
		table[o.scaleName][name] = map[string]map[string]string{}
		for seed := uint64(0); seed < goldenSeeds; seed++ {
			wo := o
			wo.workload = name
			sp, err := newSpawner(context.Background(), wo, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			c, err := sp.spawn("run", 0, false, seed)
			if err == nil && c.res.Failed > 0 {
				err = fmt.Errorf("%d failed outputs: %v", c.res.Failed, c.res.Problems)
			}
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", name, seed, err)
				return 1
			}
			table[o.scaleName][name][strconv.FormatUint(seed, 10)] = c.res.Digests
			fmt.Fprintf(stderr, "recorded %s seed %d (%d outputs)\n", name, seed, len(c.res.Digests))
		}
	}
	b, err := json.MarshalIndent(table, "", " ")
	if err == nil {
		err = os.WriteFile(o.recordGolden, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// fingerprint identifies the host, toolchain and code a run measured.
func fingerprint(o options) map[string]any {
	host, _ := os.Hostname()
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"host":       host,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     sourceDigest("."),
		"workload":   o.workload,
		"seed":       o.seed,
		"scale":      o.scaleName,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// run outside a git checkout still names the code it measured.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "golden.json") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
