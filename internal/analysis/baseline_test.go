package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"rnuca/internal/analysis"
)

func TestBaselineRoundTrip(t *testing.T) {
	diags := []analysis.Diagnostic{
		{File: "a.go", Line: 10, Code: "det-maprange", Analyzer: "determinism", Message: "m1"},
		{File: "a.go", Line: 20, Code: "det-maprange", Analyzer: "determinism", Message: "m1"},
		{File: "b.go", Line: 5, Code: "lock-unheld", Analyzer: "lockguard", Message: "m2"},
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := analysis.WriteBaseline(path, diags); err != nil {
		t.Fatal(err)
	}
	entries, err := analysis.LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries %d, want 3", len(entries))
	}
	admitted, fresh := analysis.ApplyBaseline(diags, entries)
	if len(admitted) != 3 || len(fresh) != 0 {
		t.Errorf("round trip: admitted %d fresh %d, want 3/0", len(admitted), len(fresh))
	}
}

// TestBaselineLineDrift: matching ignores line numbers, so an edit
// that shifts a baselined finding down the file does not resurrect it.
func TestBaselineLineDrift(t *testing.T) {
	entries := []analysis.BaselineEntry{{File: "a.go", Code: "det-maprange", Message: "m"}}
	drifted := []analysis.Diagnostic{{File: "a.go", Line: 999, Code: "det-maprange", Message: "m"}}
	admitted, fresh := analysis.ApplyBaseline(drifted, entries)
	if len(admitted) != 1 || len(fresh) != 0 {
		t.Errorf("drifted finding not admitted: admitted %d fresh %d", len(admitted), len(fresh))
	}
}

// TestBaselineMultiset: each entry admits one occurrence; a duplicate
// of a baselined finding is new work and fails.
func TestBaselineMultiset(t *testing.T) {
	entries := []analysis.BaselineEntry{{File: "a.go", Code: "det-maprange", Message: "m"}}
	diags := []analysis.Diagnostic{
		{File: "a.go", Line: 1, Code: "det-maprange", Message: "m"},
		{File: "a.go", Line: 2, Code: "det-maprange", Message: "m"},
	}
	admitted, fresh := analysis.ApplyBaseline(diags, entries)
	if len(admitted) != 1 || len(fresh) != 1 {
		t.Errorf("multiset: admitted %d fresh %d, want 1/1", len(admitted), len(fresh))
	}
}

// TestBaselineEmptyFile: the repo's checked-in baseline is an empty
// array; loading it admits nothing.
func TestBaselineEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(path, []byte("[]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := analysis.LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("entries %d, want 0", len(entries))
	}
	diags := []analysis.Diagnostic{{File: "a.go", Code: "det-maprange", Message: "m"}}
	admitted, fresh := analysis.ApplyBaseline(diags, entries)
	if len(admitted) != 0 || len(fresh) != 1 {
		t.Errorf("empty baseline admitted something: %d/%d", len(admitted), len(fresh))
	}
}
