package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// goldenJSON holds output digests recorded at the commit that added
// the benchmark, by scale, workload, run seed and output name.
// Regenerate it only for an intended change of simulated behaviour (see
// README.md).
//
//go:embed golden.json
var goldenJSON []byte

type goldenTable map[string]map[string]map[string]map[string]string

func loadGolden(b []byte) (goldenTable, error) {
	var g goldenTable
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}

// lookup returns the recorded digests of a workload at a scale and seed.
func (g goldenTable) lookup(scale, workloadName string, seed uint64) (map[string]string, bool) {
	d, ok := g[scale][workloadName][strconv.FormatUint(seed, 10)]
	return d, ok
}

// checkDigests compares every repetition's outputs with the first
// repetition's, and the first repetition's with the recorded digests
// when there are any. It returns the number of failed outputs and a
// description of each failure.
func checkDigests(reps []map[string]string, golden map[string]string) (failed int, problems []string) {
	if len(reps) == 0 {
		return 0, nil
	}
	first := reps[0]
	bad := map[string]bool{}
	for i, d := range reps[1:] {
		for _, name := range unionKeys(first, d) {
			if first[name] != d[name] {
				bad[name] = true
				problems = append(problems, fmt.Sprintf("repetition %d: %s digest %q, repetition 0 %q", i+1, name, d[name], first[name]))
			}
		}
	}
	if golden != nil {
		for _, name := range unionKeys(first, golden) {
			if first[name] != golden[name] {
				bad[name] = true
				problems = append(problems, fmt.Sprintf("%s digest %q, recorded %q", name, first[name], golden[name]))
			}
		}
	}
	return len(bad), problems
}

func unionKeys(a, b map[string]string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range []map[string]string{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}
