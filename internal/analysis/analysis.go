package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Codes lists every diagnostic code the
// analyzer can emit; the meta-test in this package asserts each code
// has at least one firing fixture under testdata.
type Analyzer struct {
	Name  string
	Doc   string
	Codes []string
	Run   func(*Pass) error
}

// All returns the full rnuca-vet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		LockGuard,
		WireFrozen,
		CtxRules,
		ObsNames,
		APIFreeze,
	}
}

// AllCodes returns the union of every suite analyzer's diagnostic
// codes, sorted.
func AllCodes() []string {
	set := map[string]bool{}
	for _, a := range All() {
		for _, c := range a.Codes {
			set[c] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Diagnostic is one finding, positioned and coded for both human
// (file:line:col: code: message) and machine (-json) consumption.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Code     string         `json:"code"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

// String renders the go-vet-style one-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Code, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// PkgPath is the package's import path ("rnuca",
	// "rnuca/internal/sim", ...). Fixture packages under testdata use
	// their directory-relative path.
	PkgPath string
	// IsMain reports a main package (cmd/*): several rules relax there.
	IsMain bool
	// Dir is the package's source directory on disk; apifreeze looks for
	// its opt-in snapshot under Dir/testdata.
	Dir string

	ann   *annotations
	diags []Diagnostic
}

// Reportf records a diagnostic at pos under the given code.
func (p *Pass) Reportf(pos token.Pos, code, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Code:     code,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suppressed reports whether a //rnuca:<kind> annotation covers pos —
// on the same line, or on the line directly above (a standalone
// annotation comment). Annotations without a reason do not suppress;
// the caller reports them under the shared ann-noreason code so a bare
// waiver cannot silently disable a check.
func (p *Pass) Suppressed(pos token.Pos, kind string) bool {
	position := p.Fset.Position(pos)
	a, ok := p.ann.at(position.Filename, position.Line, kind)
	if !ok {
		return false
	}
	if a.reason == "" {
		p.Reportf(pos, "ann-noreason",
			"//rnuca:%s needs a reason (annotations document why the invariant is waived)", kind)
		return false
	}
	return true
}

// annNoReasonDoc is the shared docstring for the ann-noreason code the
// suppression-honoring analyzers all carry.
const annNoReasonDoc = "ann-noreason"

// annotation is one parsed //rnuca:<kind> <reason> comment.
type annotation struct {
	kind   string
	reason string
	line   int
}

// annotations indexes every //rnuca: comment of a package by file and
// line.
type annotations struct {
	byFile map[string]map[int]annotation
}

// parseAnnotations scans every comment in the package's files for
// //rnuca:<kind> markers.
func parseAnnotations(fset *token.FileSet, files []*ast.File) *annotations {
	ann := &annotations{byFile: map[string]map[int]annotation{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "rnuca:") {
					continue
				}
				kind, reason, _ := strings.Cut(strings.TrimPrefix(text, "rnuca:"), " ")
				pos := fset.Position(c.Pos())
				m := ann.byFile[pos.Filename]
				if m == nil {
					m = map[int]annotation{}
					ann.byFile[pos.Filename] = m
				}
				m[pos.Line] = annotation{kind: kind, reason: strings.TrimSpace(reason), line: pos.Line}
			}
		}
	}
	return ann
}

// at returns the annotation of the given kind covering (file, line):
// exact line first, then the line above.
func (a *annotations) at(file string, line int, kind string) (annotation, bool) {
	m := a.byFile[file]
	if m == nil {
		return annotation{}, false
	}
	for _, l := range []int{line, line - 1} {
		if an, ok := m[l]; ok && an.kind == kind {
			return an, true
		}
	}
	return annotation{}, false
}

// RunAnalyzers applies every analyzer to every package and returns the
// merged diagnostics sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		ann := parseAnnotations(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				PkgPath:   pkg.Path,
				IsMain:    pkg.IsMain,
				Dir:       pkg.Dir,
				ann:       ann,
			}
			if err := a.Run(pass); err != nil {
				return out, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			out = append(out, pass.diags...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Code < b.Code
	})
	return out, nil
}

// unparen strips any parentheses around an expression (a local stand-in
// for go1.22's ast.Unparen, keeping the module's language floor at its
// declared version).
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// exprString renders a (simple) expression as source text — the
// textual keys the lockguard heuristic tracks lock state by.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return exprString(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprString(e.X)
		}
	}
	return ""
}
