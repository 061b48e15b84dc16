package analysis_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rnuca/internal/analysis"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/sarif-golden.json")

// sarifFixtureDiags is a fixed finding set covering path
// relativization (one in-root file, one outside) — the golden freezes
// the exact bytes GitHub code scanning will be fed.
func sarifFixtureDiags() []analysis.Diagnostic {
	return []analysis.Diagnostic{
		{File: "/repo/internal/sim/engine.go", Line: 42, Col: 7, Code: "det-maprange", Analyzer: "determinism", Message: "range over a map feeds accumulation"},
		{File: "/elsewhere/x.go", Line: 3, Col: 1, Code: "lock-unheld", Analyzer: "lockguard", Message: "guarded field accessed without the mutex held"},
	}
}

// TestSARIFGolden freezes the SARIF shape: schema URI, version, rule
// inventory (every declared code), and result/location layout. The
// format is external contract — GitHub's upload-sarif action parses
// it — so any change must land as a reviewed golden diff
// (go test ./internal/analysis -run SARIF -update-golden).
func TestSARIFGolden(t *testing.T) {
	got, err := analysis.MarshalSARIF(sarifFixtureDiags(), "/repo")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "sarif-golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("SARIF output diverged from %s; inspect and re-bless with -update-golden\ngot:\n%s", golden, got)
	}
}

// TestSARIFShape spot-checks semantic properties the golden alone
// can't explain: rule completeness and URI handling.
func TestSARIFShape(t *testing.T) {
	out, err := analysis.MarshalSARIF(sarifFixtureDiags(), "/repo")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 {
		t.Fatalf("version %q, runs %d", doc.Version, len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "rnuca-vet" {
		t.Errorf("driver name %q", run.Tool.Driver.Name)
	}
	codes := analysis.AllCodes()
	if len(run.Tool.Driver.Rules) != len(codes) {
		t.Errorf("rules %d, want one per declared code (%d)", len(run.Tool.Driver.Rules), len(codes))
	}
	for i, c := range codes {
		if run.Tool.Driver.Rules[i].ID != c {
			t.Errorf("rule[%d] = %q, want %q", i, run.Tool.Driver.Rules[i].ID, c)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("results %d, want 2", len(run.Results))
	}
	if uri := run.Results[0].Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "internal/sim/engine.go" {
		t.Errorf("in-root URI = %q, want repo-relative slash form", uri)
	}
	if uri := run.Results[1].Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "/elsewhere/x.go" {
		t.Errorf("out-of-root URI = %q, want untouched", uri)
	}
}
