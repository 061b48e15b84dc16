// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed time and prints every end-to-end
// metric (or, with -trace 1, every per-layer metric) by name and unit,
// after checking every simulated output.
//
//	perfbench -workload fig12-sweep -seed 3 -seconds 25 -trace 0
//
// A run is a sequence of repetitions, each a fresh process running the
// same binary with -child, so process-wide caches start cold in every
// repetition as they do for a user's invocation. README.md describes
// the workloads and metrics; run.py builds the binary and runs it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of a run or a repetition.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	scaleName string

	child  string // "run" or "setup" in a repetition process
	index  int
	tmpDir string
	spans  string

	recordGolden string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 0, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 25, "how long the run measures, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced decomposition and prints per-layer metrics")
	fs.StringVar(&o.scaleName, "scale", "bench", "bench, or tiny for a smoke run")
	fs.StringVar(&o.child, "child", "", "internal: run one repetition (run or setup)")
	fs.IntVar(&o.index, "index", 0, "internal: repetition number")
	fs.StringVar(&o.tmpDir, "tmp", "", "internal: scratch directory of a repetition")
	fs.StringVar(&o.spans, "spans", "", "internal: where a traced repetition writes its spans")
	fs.StringVar(&o.recordGolden, "record-golden", "", "record the output digests of seeds 0-15 at -scale into this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if _, ok := scales[o.scaleName]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown scale %q\n", o.scaleName)
		return 2
	}
	switch {
	case o.child != "":
		return runChild(o, time.Now(), stdout, stderr)
	case o.recordGolden != "":
		return recordGolden(o, stderr)
	}
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (%s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	return orchestrate(o, stdout, stderr)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
