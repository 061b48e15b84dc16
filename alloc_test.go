package rnuca_test

import (
	"fmt"
	"runtime"
	"testing"

	"rnuca"
	"rnuca/internal/obs/flight"
	"rnuca/internal/sim"
	"rnuca/internal/workload"
)

// Run sizes of the allocation gate. The per-ref figures depend on them
// (caches, the TLB and the per-page maps are still filling at 50k), so
// they are pinned: change them only together with every budget below.
const (
	allocWarm    = 50_000
	allocMeasure = 50_000
	// allocFlightEvery is the flight recorder's epoch length in the
	// recorder case: short enough that the measured run closes a dozen
	// epochs through the recorder's epoch hook.
	allocFlightEvery = 4096
)

// allocBudgets is the per-reference heap-allocation ceiling of a warmed
// engine, one entry per design x workload (plus R with the flight
// recorder attached). Each budget is the value measured (go1.24,
// linux/amd64) when it was set, plus 0.02. Budgets only ratchet down: a
// change that lowers a measurement lowers its budget with it.
var allocBudgets = []struct {
	design rnuca.DesignID
	w      rnuca.Workload
	flight bool
	budget float64
}{
	{rnuca.DesignPrivate, rnuca.OLTPDB2(), false, 1.9992},
	{rnuca.DesignASR, rnuca.OLTPDB2(), false, 1.9991},
	{rnuca.DesignShared, rnuca.OLTPDB2(), false, 1.2037},
	{rnuca.DesignRNUCA, rnuca.OLTPDB2(), false, 1.8177},
	{rnuca.DesignIdeal, rnuca.OLTPDB2(), false, 1.2047},
	{rnuca.DesignPrivate, rnuca.MIX(), false, 1.6844},
	{rnuca.DesignASR, rnuca.MIX(), false, 1.6850},
	{rnuca.DesignShared, rnuca.MIX(), false, 1.0646},
	{rnuca.DesignRNUCA, rnuca.MIX(), false, 1.4122},
	{rnuca.DesignIdeal, rnuca.MIX(), false, 1.0645},
	{rnuca.DesignRNUCA, rnuca.OLTPDB2(), true, 1.8217},
}

// TestEngineAllocBudgets is the allocation gate of the per-reference
// path: engine loop, design Access and the chassis below it. It counts
// mallocs (runtime.MemStats) over a measured Run of a warmed engine, so
// an allocation anywhere on that path shows, however deep it sits.
func TestEngineAllocBudgets(t *testing.T) {
	for _, c := range allocBudgets {
		name := fmt.Sprintf("%s/%s", c.design, c.w.Name)
		if c.flight {
			name += "/flight"
		}
		t.Run(name, func(t *testing.T) {
			got := engineMallocsPerRef(c.design, c.w, c.flight)
			if got > c.budget {
				t.Errorf("%.4f mallocs per measured ref, over the budget of %.4f. "+
					"Find the new allocation with go test -run TestEngineAllocBudgets -memprofile mem.out . "+
					"After a Go upgrade, re-measure with go test -v -run TestEngineAllocBudgets . "+
					"and set each budget to its logged value plus 0.02.", got, c.budget)
			} else {
				t.Logf("%.4f mallocs per measured ref (budget %.4f)", got, c.budget)
			}
		})
	}
}

// engineMallocsPerRef warms an engine for allocWarm references, then
// returns the heap allocations per reference of a Run of allocMeasure
// measured references.
func engineMallocsPerRef(id rnuca.DesignID, w rnuca.Workload, withFlight bool) float64 {
	ch := sim.NewChassis(rnuca.ConfigFor(w))
	eng := sim.NewEngine(ch, rnuca.NewDesign(id, ch), workload.Streams(w))
	eng.OffChipMLP = w.OffChipMLP
	if withFlight {
		eng.Flight = flight.NewRecorder(flight.Config{Every: allocFlightEvery})
	}
	eng.Run(allocWarm, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng.Run(0, allocMeasure)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / allocMeasure
}
