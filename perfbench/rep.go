package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"rnuca/internal/sim"
)

// repResult is what one repetition process reports to the run.
type repResult struct {
	// FirstOp is the wall-clock time of the first timed operation; the
	// run subtracts the process's spawn time to get set-up time.
	FirstOp   int64             `json:"first_op_unix_ns"`
	WallS     float64           `json:"wall_s"`
	Jobs      []jobTime         `json:"jobs"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Digests   map[string]string `json:"digests"`
	// Layers holds the per-layer metrics of a traced repetition.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Serve holds serve-mix's driver and server measurements.
	Serve *serveSamples `json:"serve,omitempty"`
}

// jobTime is one job's latency. Jobs with the same name in different
// repetitions are the same job run again.
type jobTime struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// rep is one repetition of a workload in a fresh process.
type rep struct {
	workload  string
	seed      uint64
	sc        scale
	index     int  // repetition number within the run
	setupOnly bool // stop at the first timed operation
	tmpDir    string

	tr    *tracer // nil when untraced
	root  int     // the timed phase's span
	setup int     // the set-up span
	lay   *layers // nil when untraced

	started time.Time
	res     repResult
}

// begin marks the first timed operation and reports whether the
// repetition should go on to the timed work.
func (r *rep) begin() bool {
	r.started = time.Now()
	r.res.FirstOp = r.started.UnixNano()
	r.tr.end(r.setup)
	r.root = r.tr.start("timed", 0)
	return !r.setupOnly
}

// job records one job's latency.
func (r *rep) job(name string, d time.Duration) {
	r.res.Jobs = append(r.res.Jobs, jobTime{name, ms(d)})
}

// fail records a failed operation.
func (r *rep) fail(format string, args ...any) {
	r.res.Failed++
	r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
}

// output records a simulation result as one checked operation: its
// canonical JSON digest, plus invariants every result must meet.
func (r *rep) output(name string, res sim.Result) {
	r.record(name, digestOf(res))
	if cpi := res.CPI(); res.Refs == 0 || res.Instructions == 0 || !(cpi > 0) || math.IsInf(cpi, 0) {
		r.fail("%s: implausible result (refs %d, instructions %d, CPI %v)", name, res.Refs, res.Instructions, cpi)
	}
}

// outputBytes records a byte output as one checked operation.
func (r *rep) outputBytes(name string, b []byte) { r.record(name, digest(b)) }

// record stores an output's digest, counting it as an operation.
func (r *rep) record(name, d string) {
	r.res.Attempted++
	if _, dup := r.res.Digests[name]; dup {
		r.fail("%s: output recorded twice", name)
		return
	}
	r.res.Digests[name] = d
}

// same checks that two recorded outputs are identical.
func (r *rep) same(a, b string) {
	r.res.Attempted++
	da, db := r.res.Digests[a], r.res.Digests[b]
	if da == "" || da != db {
		r.fail("%s and %s differ (%s vs %s)", a, b, da, db)
	}
}

// digest is the first 64 bits, in hex, of the SHA-256 of b.
func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// digestOf digests a result's canonical JSON encoding.
func digestOf(res sim.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		// sim.Result holds only numbers and strings; encoding cannot fail.
		panic(err)
	}
	return digest(b)
}
