package loadgen

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"rnuca/internal/obs"
)

// The mix draw is a pure function of the seed: two RNGs with the same
// seed produce the same kind sequence, and the empirical frequencies
// track the weights.
func TestPickMixDeterministicAndWeighted(t *testing.T) {
	mix := map[string]int{MixCached: 8, MixCold: 1, MixCompare: 1}
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		ka, kb := pickMix(a, mix), pickMix(b, mix)
		if ka != kb {
			t.Fatalf("draw %d: %s vs %s with equal seeds", i, ka, kb)
		}
		counts[ka]++
	}
	if c := counts[MixCached]; c < 7*n/10 || c > 9*n/10 {
		t.Errorf("cached draws = %d/%d, want ~80%%", c, n)
	}
	if counts[MixCold] == 0 || counts[MixCompare] == 0 {
		t.Errorf("low-weight kinds never drawn: %v", counts)
	}
}

// Cold jobs must differ arrival to arrival (distinct cache keys);
// cached jobs must be byte-identical (one cache entry).
func TestBuildJobCacheKeys(t *testing.T) {
	r := &runner{cfg: Config{Workload: "OLTP-DB2", Warm: 100, Measure: 200, Seed: 3}}
	c0, err := r.buildJob(MixCached, 0)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := r.buildJob(MixCached, 1)
	if string(c0) != string(c1) {
		t.Errorf("cached jobs differ across arrivals:\n%s\n%s", c0, c1)
	}
	k0, _ := r.buildJob(MixCold, 0)
	k1, _ := r.buildJob(MixCold, 1)
	if string(k0) == string(k1) {
		t.Errorf("cold jobs identical across arrivals: %s", k0)
	}
	// Every body is canonical job JSON the server can decode.
	for _, b := range [][]byte{c0, k0, k1} {
		var v map[string]any
		if err := json.Unmarshal(b, &v); err != nil {
			t.Errorf("body not JSON: %v (%s)", err, b)
		}
	}
	// A replay mix without a corpus ref degrades to the cached job.
	rep, _ := r.buildJob(MixReplay, 0)
	if string(rep) != string(c0) {
		t.Errorf("corpus-less replay differs from cached:\n%s\n%s", rep, c0)
	}
}

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no-url":     {Rate: 1, Total: 1},
		"no-rate":    {BaseURL: "http://x", Total: 1},
		"no-bound":   {BaseURL: "http://x", Rate: 1},
		"bad-mix":    {BaseURL: "http://x", Rate: 1, Total: 1, Mix: map[string]int{"bogus": 1}},
		"zero-mix":   {BaseURL: "http://x", Rate: 1, Total: 1, Mix: map[string]int{MixCached: 0}},
		"neg-weight": {BaseURL: "http://x", Rate: 1, Total: 1, Mix: map[string]int{MixCached: -1}},
	} {
		c := cfg
		if err := c.withDefaults(); err == nil {
			t.Errorf("%s: config validated unexpectedly", name)
		}
	}
	ok := Config{BaseURL: "http://x", Rate: 1, Total: 1}
	if err := ok.withDefaults(); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
	if ok.Concurrency != 64 || ok.Workload != "OLTP-DB2" || ok.Warm != 2000 {
		t.Errorf("defaults not applied: %+v", ok)
	}
}

func TestTablesRender(t *testing.T) {
	client := obs.Snapshot{Count: 10, Mean: 0.02, P50: 0.015, P90: 0.03, P95: 0.04, P99: 0.05, Max: 0.06}
	server := obs.Snapshot{Count: 10, Mean: 0.01, P50: 0.008, P90: 0.02, P95: 0.03, P99: 0.04, Max: 0.05}
	out := CompareTable(client, server).String()
	for _, want := range []string{"p50", "p99", "client", "server", "delta", "15.00", "8.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison table missing %q:\n%s", want, out)
		}
	}
	mix := MixTable(map[string]obs.Snapshot{"all": client, MixCached: server})
	if s := mix.String(); !strings.Contains(s, "all") || !strings.Contains(s, "cached") {
		t.Errorf("mix table missing rows:\n%s", s)
	}
}
