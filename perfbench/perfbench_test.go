package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"rnuca"
	"rnuca/internal/sim"
)

// TestMain lets the test binary serve as a repetition process: a run
// spawns os.Executable() with -child first.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		pct, at float64
	}{
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{999, 95, 950},
		{200, 95, 190},
		{40, 75, 30},
		{25, 50, 13},
		{19, 100, 19},
		{1, 100, 1},
	} {
		pct, v := tail(seq(c.n))
		if pct != c.pct || v != c.at {
			t.Errorf("tail of 1..%d = p%g %g, want p%g %g", c.n, pct, v, c.pct, c.at)
		}
		if pct < 100 && c.n-nearestRank(pct, c.n) < minBeyond {
			t.Errorf("n=%d: p%g leaves fewer than %d samples beyond it", c.n, pct, minBeyond)
		}
	}
	if pct, v := tail(nil); pct != 0 || v != 0 {
		t.Errorf("tail(nil) = %g %g", pct, v)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}

func TestFailFrac(t *testing.T) {
	for _, c := range []struct {
		attempted, failed int
		want              float64
	}{{10, 0, 0}, {10, 3, 0.3}, {4, 4, 1}, {0, 0, 1}} {
		if got := failFrac(c.attempted, c.failed); got != c.want {
			t.Errorf("failFrac(%d, %d) = %g, want %g", c.attempted, c.failed, got, c.want)
		}
	}
}

func TestDigestCheckTripsOnPerturbedResult(t *testing.T) {
	res := sim.Result{Design: "R", Workload: "OLTP-DB2", Instructions: 1000, Refs: 40, Cycles: 2500.5}
	good := digestOf(res)
	bent := res
	bent.Cycles = 2500.500000001
	if digestOf(bent) == good {
		t.Fatal("a perturbed Result has the same digest")
	}
	golden := map[string]string{"cell": good}
	if n, _ := checkDigests([]map[string]string{{"cell": good}, {"cell": good}}, golden); n != 0 {
		t.Errorf("identical outputs: %d failures", n)
	}
	n, problems := checkDigests([]map[string]string{{"cell": digestOf(bent)}}, golden)
	if n != 1 || len(problems) != 1 {
		t.Errorf("perturbed against recorded: %d failures %v", n, problems)
	}
	n, _ = checkDigests([]map[string]string{{"cell": good}, {"cell": digestOf(bent)}}, nil)
	if n != 1 {
		t.Errorf("repetitions disagreeing: %d failures", n)
	}
	if n, _ := checkDigests([]map[string]string{{"cell": good}}, map[string]string{"cell": good, "other": good}); n != 1 {
		t.Errorf("a missing output: %d failures", n)
	}
}

func TestTimedDesignForwardsOptionalInterfaces(t *testing.T) {
	ch := sim.NewChassis(rnuca.ConfigFor(rnuca.OLTPDB2()))
	for _, id := range rnuca.AllDesigns() {
		d := rnuca.NewDesign(id, ch)
		w := timeDesign(d, &probe{})
		_, c1 := d.(sim.Classifier)
		_, c2 := w.(sim.Classifier)
		_, b1 := d.(sim.BankMeter)
		_, b2 := w.(sim.BankMeter)
		_, t1 := d.(sim.TransitionMeter)
		_, t2 := w.(sim.TransitionMeter)
		if c1 != c2 || b1 != b2 || t1 != t2 {
			t.Errorf("%s: decorator interfaces (%v %v %v), design (%v %v %v)", id, c2, b2, t2, c1, b1, t1)
		}
	}
}

// TestBenchmarkJSONNamesMatch keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONNamesMatch(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range bj.Workloads {
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	if strings.Join(wl, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, command %v", wl, workloadNames())
	}
	same := func(kind string, json []struct{ Name, Unit string }, code []struct{ name, unit string }) {
		if len(json) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, command %d", kind, len(json), len(code))
			return
		}
		for i := range code {
			if json[i].Name != code[i].name || json[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]", kind, i, json[i].Name, json[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

type runOutput struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metricValue
}

func runCommand(t *testing.T, args ...string) (int, runOutput, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out runOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil && code == 0 {
		t.Fatalf("%v: last line is not the result: %v\n%s", args, err, stdout.String())
	}
	return code, out, stdout.String() + stderr.String()
}

// TestSmokeAllWorkloads runs every workload at tiny scale, untraced and
// traced: every output must check, every metric must be present, the
// traced repetition's results must equal the untraced one's (the run
// compares their digests), and its spans must cover the run.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			code, out, log := runCommand(t, "-workload", w, "-seed", "1", "-seconds", "1", "-scale", "tiny", "-trace", trace)
			if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("%s trace %s: exit %d, %+v\n%s", w, trace, code, out, log)
			}
			names := endToEnd
			if trace == "1" {
				names = perLayer
			}
			if len(out.Metrics) != len(names) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(out.Metrics), len(names))
			}
			for _, n := range names {
				m, ok := out.Metrics[n.name]
				if !ok || m.Unit != n.unit {
					t.Errorf("%s trace %s: metric %s missing or not in %s", w, trace, n.name, n.unit)
				}
				if trace == "0" && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g", w, n.name, m.Value)
				}
			}
			if trace == "1" {
				if c := out.Metrics["trace.span_coverage"].Value; c < 0.9 {
					t.Errorf("%s: spans cover %.3f of the traced run", w, c)
				}
			}
		}
	}
}

// TestPerturbedDigestFailsTheRun records one repetition's digests as
// the expected ones, then bends one: the run must report it and exit
// non-zero.
func TestPerturbedDigestFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	var stdout bytes.Buffer
	if code := run([]string{"-child", "run", "-workload", "trace-replay", "-seed", "7", "-scale", "tiny", "-tmp", dir}, &stdout, os.Stderr); code != 0 {
		t.Fatalf("repetition exit %d", code)
	}
	var res repResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	saved := goldenJSON
	defer func() { goldenJSON = saved }()
	for _, bend := range []bool{false, true} {
		d := map[string]string{}
		for k, v := range res.Digests {
			d[k] = v
		}
		if bend {
			d["replay/R/shards1"] = "0000000000000000"
		}
		goldenJSON, _ = json.Marshal(goldenTable{"tiny": {"trace-replay": {"7": d}}})
		code, out, log := runCommand(t, "-workload", "trace-replay", "-seed", "7", "-seconds", "1", "-scale", "tiny")
		if bend && (code == 0 || out.Correct || out.Failed == 0) {
			t.Errorf("perturbed digest: exit %d, %+v\n%s", code, out, log)
		}
		if !bend && (code != 0 || !out.Correct) {
			t.Errorf("recorded digests: exit %d, %+v\n%s", code, out, log)
		}
	}
}
