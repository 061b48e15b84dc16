package analysis_test

import (
	"encoding/json"
	"path/filepath"
	"sort"
	"testing"

	"rnuca/internal/analysis"
	"rnuca/internal/analysis/analysistest"
	"rnuca/internal/leakcheck"
)

// fixtures maps each analyzer to its testdata/src package.
var fixtures = []struct {
	dir string
	a   *analysis.Analyzer
}{
	{"sim", analysis.Determinism},
	{"lockguard", analysis.LockGuard},
	{"wire", analysis.WireFrozen},
	{"ctx", analysis.CtxRules},
	{"obs", analysis.ObsNames},
	{"api", analysis.APIFreeze},
}

func fixtureDir(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join("testdata", "src", name)
}

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, fixtureDir(t, "sim"), analysis.Determinism)
}

func TestLockGuard(t *testing.T) {
	analysistest.Run(t, fixtureDir(t, "lockguard"), analysis.LockGuard)
}

func TestWireFrozen(t *testing.T) {
	analysistest.Run(t, fixtureDir(t, "wire"), analysis.WireFrozen)
}

func TestCtxRules(t *testing.T) {
	analysistest.Run(t, fixtureDir(t, "ctx"), analysis.CtxRules)
}

func TestObsNames(t *testing.T) {
	analysistest.Run(t, fixtureDir(t, "obs"), analysis.ObsNames)
}

func TestAPIFreeze(t *testing.T) {
	analysistest.Run(t, fixtureDir(t, "api"), analysis.APIFreeze)
}

// TestDeterminismScopeGate proves the scope gate: the same nondet code
// in a package outside the result-affecting set reports nothing.
func TestDeterminismScopeGate(t *testing.T) {
	pkg, err := analysis.LoadDir(fixtureDir(t, "sim"), "rnuca/internal/unrelated")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{analysis.Determinism})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("determinism fired outside its scope: %v", diags)
	}
}

// TestEveryCodeFires is the meta-test: every diagnostic code any suite
// analyzer declares must have at least one firing fixture, so a check
// cannot silently rot into dead code.
func TestEveryCodeFires(t *testing.T) {
	fired := map[string]bool{}
	declared := map[string]bool{}
	for _, c := range analysis.AllCodes() {
		declared[c] = true
	}
	for _, fx := range fixtures {
		pkg, err := analysis.LoadDir(fixtureDir(t, fx.dir), "rnuca/internal/"+fx.dir)
		if err != nil {
			t.Fatalf("%s: %v", fx.dir, err)
		}
		diags, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{fx.a})
		if err != nil {
			t.Fatalf("%s: %v", fx.dir, err)
		}
		for _, d := range diags {
			if !declared[d.Code] {
				t.Errorf("%s fired undeclared code %q", d.Analyzer, d.Code)
			}
			fired[d.Code] = true
		}
	}
	var missing []string
	for c := range declared {
		if !fired[c] {
			missing = append(missing, c)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("declared codes with no firing fixture: %v", missing)
	}
}

// TestAllCodesFrozen pins the exact code inventory `rnuca-vet -codes`
// prints. Adding a code is a deliberate act (update this list and give
// it a firing fixture); losing one silently would mean an analyzer
// stopped declaring a check it used to make.
func TestAllCodesFrozen(t *testing.T) {
	want := []string{
		"ann-noreason",
		"api-changed",
		"api-removed",
		"ctx-background",
		"ctx-field",
		"ctx-notfirst",
		"det-maprange",
		"det-rand",
		"det-time",
		"lock-unheld",
		"lock-unknown-mutex",
		"obs-buckets",
		"obs-name-format",
		"obs-name-literal",
		"wire-notag",
		"wire-unmarked",
	}
	got := analysis.AllCodes()
	if !sort.StringsAreSorted(got) {
		t.Errorf("AllCodes() is not sorted: %v", got)
	}
	if len(got) != len(want) {
		t.Fatalf("AllCodes() = %d codes, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("AllCodes()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestDiagnosticJSON freezes the -json wire shape editors and CI
// annotations consume.
func TestDiagnosticJSON(t *testing.T) {
	d := analysis.Diagnostic{
		File: "x.go", Line: 3, Col: 7,
		Code: "det-time", Analyzer: "determinism", Message: "m",
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"x.go","line":3,"col":7,"code":"det-time","analyzer":"determinism","message":"m"}`
	if string(b) != want {
		t.Errorf("Diagnostic JSON = %s, want %s", b, want)
	}
	if got := d.String(); got != "x.go:3:7: det-time: m" {
		t.Errorf("Diagnostic String = %q", got)
	}
}

// TestLoadParallelParity proves the fan-out loader is a pure speedup:
// same packages, same order, same diagnostics as the sequential path.
// Skipped in -short mode (each worker re-typechecks shared deps).
func TestLoadParallelParity(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("parallel load typechecks dependencies per worker")
	}
	patterns := []string{"rnuca/internal/analysis", "rnuca/internal/sim", "rnuca/cmd/rnuca-vet"}
	seq, err := analysis.Load(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	par, err := analysis.LoadParallel(3, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("package count: sequential %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Path != par[i].Path {
			t.Errorf("package[%d]: sequential %q, parallel %q", i, seq[i].Path, par[i].Path)
		}
	}
	dseq, err := analysis.RunAnalyzers(seq, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	dpar, err := analysis.RunAnalyzers(par, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(dseq) != len(dpar) {
		t.Fatalf("diagnostics: sequential %d, parallel %d", len(dseq), len(dpar))
	}
	for i := range dseq {
		if dseq[i] != dpar[i] {
			t.Errorf("diag[%d]: sequential %v, parallel %v", i, dseq[i], dpar[i])
		}
	}
}

// TestRepoIsVetClean runs the whole suite over the module — the same
// gate CI's lint job enforces — so a finding introduced by any change
// fails the ordinary test run too. Skipped in -short mode: the source
// importer typechecks the full dependency tree.
func TestRepoIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module typecheck is slow; CI lint runs it anyway")
	}
	pkgs, err := analysis.Load("rnuca/...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestBaselineIsBurnedDown asserts the checked-in vet-baseline.json is
// the empty multiset. The baseline exists as a mechanism for adopting
// new passes incrementally on a dirty tree; this repo's policy is that
// it never stays dirty — every finding is fixed or carries an in-source
// waiver with a reason, so the debt ledger reads [].
func TestBaselineIsBurnedDown(t *testing.T) {
	entries, err := analysis.LoadBaseline(filepath.Join("..", "..", "vet-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("baselined (unfixed, unwaived) finding: %s: %s: %s", e.File, e.Code, e.Message)
	}
}
