package analyzers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Finding is one reported, unsuppressed diagnostic with its resolved
// source position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// ID reports the finding's stable diagnostic ID (MMT001…).
func (f Finding) ID() string { return analyzerID(f.Analyzer) }

// listedPackage is the subset of `go list -json` output the driver uses.
type listedPackage struct {
	ImportPath  string
	Dir         string
	Export      string
	GoFiles     []string
	TestGoFiles []string
	Standard    bool
	ForTest     string
	Error       *packageError
	DepsErrors  []*packageError
}

// packageError mirrors go list's PackageError JSON shape.
type packageError struct {
	ImportStack []string
	Err         string
}

// Run loads the packages matching patterns (resolved relative to dir,
// which must lie inside the module), typechecks them, applies every
// analyzer in one pass over all of them, audits the //mmt:allow comments
// and returns the surviving findings sorted by position.
//
// Packages are enumerated and compiled with `go list -export`; imports
// are satisfied from the resulting export data, so the driver needs no
// dependencies beyond the go toolchain already required by tier-1.
func Run(dir string, patterns []string, as []*Analyzer) ([]Finding, error) {
	exports, err := exportData(dir, patterns)
	if err != nil {
		return nil, err
	}
	targets, err := listPackages(dir, patterns)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("no packages match %v", patterns)
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	allow := newAllowIndex()
	var units []*PackageUnit
	for _, pkg := range targets {
		// go list -e tolerates broken patterns so ./... keeps working in a
		// partially broken tree, but a pattern that resolves to nothing or
		// to a load error must not pass vacuously.
		if pkg.Error != nil {
			return nil, fmt.Errorf("%s: %s", pkg.ImportPath, strings.TrimSpace(pkg.Error.Err))
		}
		fs, err := parsePackage(fset, pkg.Dir, append(append([]string{}, pkg.GoFiles...), pkg.TestGoFiles...))
		if err != nil {
			return nil, err
		}
		unit, err := checkPackage(fset, fs, pkg.ImportPath, imp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pkg.ImportPath, err)
		}
		allow.collect(fset, fs)
		units = append(units, unit)
	}
	findings := append(analyze(fset, units, as, allow), allow.auditFindings(as)...)
	sortFindings(findings)
	return dedupeFindings(findings), nil
}

// checkPackage typechecks one parsed package into a PackageUnit.
func checkPackage(fset *token.FileSet, files []*ast.File, pkgPath string, imp types.Importer) (*PackageUnit, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	return &PackageUnit{Files: files, Pkg: pkg, TypesInfo: info}, nil
}

// analyze runs each analyzer once over all units and returns what they
// report, minus the shared filters: findings in _test.go files are
// dropped (invariants bind non-test code only) and //mmt:allow
// suppressions are honored and marked used.
func analyze(fset *token.FileSet, units []*PackageUnit, as []*Analyzer, allow *allowIndex) []Finding {
	var findings []Finding
	for _, a := range as {
		a.Run(&Pass{
			Fset:  fset,
			Units: units,
			Report: func(d Diagnostic) {
				pos := fset.Position(d.Pos)
				if !strings.HasSuffix(pos.Filename, "_test.go") && !allow.use(a.Name, pos) {
					findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
				}
			},
		})
	}
	return findings
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// dedupeFindings drops findings that repeat an already-reported message
// at the same position — either the same analyzer reaching one site
// twice or two analyzers wording the same defect identically. Input must
// be sorted; position order is preserved.
func dedupeFindings(fs []Finding) []Finding {
	seen := map[string]bool{}
	out := fs[:0]
	for _, f := range fs {
		key := fmt.Sprintf("%s:%d:%d\x00%s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, f)
	}
	return out
}

// allowRecord is one //mmt:allow comment for one analyzer name.
type allowRecord struct {
	analyzer string
	pos      token.Position // the comment's own position
	used     bool
}

// allowIndex holds every //mmt:allow comment seen during a run. A
// comment suppresses findings on its own line and, for standalone
// comment lines, on the line below; both lines resolve to the same
// record so a use through either marks the comment live for the audit.
type allowIndex struct {
	records []*allowRecord
	byLine  map[string]map[int]map[string]*allowRecord
}

// A suppression comment begins with the marker — prose that merely
// mentions //mmt:allow mid-sentence is not a suppression.
var allowRe = regexp.MustCompile(`^//mmt:allow\s+([a-z][a-z0-9_]*(?:\s*,\s*[a-z][a-z0-9_]*)*)`)

func newAllowIndex() *allowIndex {
	return &allowIndex{byLine: map[string]map[int]map[string]*allowRecord{}}
}

func (ai *allowIndex) collect(fset *token.FileSet, files []*ast.File) {
	put := func(file string, line int, rec *allowRecord) {
		if ai.byLine[file] == nil {
			ai.byLine[file] = map[int]map[string]*allowRecord{}
		}
		if ai.byLine[file][line] == nil {
			ai.byLine[file][line] = map[string]*allowRecord{}
		}
		ai.byLine[file][line][rec.analyzer] = rec
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				names := m[1]
				if i := strings.IndexByte(names, ':'); i >= 0 {
					names = names[:i]
				}
				pos := fset.Position(c.Pos())
				for _, name := range strings.FieldsFunc(names, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
					rec := &allowRecord{analyzer: name, pos: pos}
					ai.records = append(ai.records, rec)
					put(pos.Filename, pos.Line, rec)
					put(pos.Filename, pos.Line+1, rec)
				}
			}
		}
	}
}

// use reports whether an allow for analyzer covers pos, marking the
// comment used.
func (ai *allowIndex) use(analyzer string, pos token.Position) bool {
	rec := ai.byLine[pos.Filename][pos.Line][analyzer]
	if rec == nil {
		return false
	}
	rec.used = true
	return true
}

// auditFindings turns stale suppressions into findings: allows naming an
// analyzer that ran but suppressed nothing, and allows naming analyzers
// that do not exist at all. Allows for known analyzers outside the run
// set are left alone — a partial -run invocation must not flag them.
func (ai *allowIndex) auditFindings(ran []*Analyzer) []Finding {
	ranSet := map[string]bool{}
	for _, a := range ran {
		ranSet[a.Name] = true
	}
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Finding
	for _, rec := range ai.records {
		if rec.used || strings.HasSuffix(rec.pos.Filename, "_test.go") {
			continue
		}
		switch {
		case !known[rec.analyzer]:
			out = append(out, Finding{
				Analyzer: "unusedallow",
				Pos:      rec.pos,
				Message:  fmt.Sprintf("//mmt:allow names unknown analyzer %q", rec.analyzer),
			})
		case ranSet[rec.analyzer]:
			out = append(out, Finding{
				Analyzer: "unusedallow",
				Pos:      rec.pos,
				Message:  fmt.Sprintf("unused //mmt:allow %s: comment suppresses nothing and should be removed", rec.analyzer),
			})
		}
	}
	return out
}

func parsePackage(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// listPackages enumerates the target packages for analysis.
func listPackages(dir string, patterns []string) ([]listedPackage, error) {
	pkgs, _, err := goList(dir, append([]string{"-json=ImportPath,Dir,GoFiles,TestGoFiles,Error"}, patterns...))
	return pkgs, err
}

// exportData compiles the patterns (with their test dependencies) and
// returns import path -> export data file for every reachable package.
// Compile failures in dependencies do not fail the load here — the
// importer surfaces them with context when the package is actually
// needed (see exportProblem).
func exportData(dir string, patterns []string) (map[string]exportEntry, error) {
	pkgs, stderr, err := goList(dir, append([]string{"-deps", "-test", "-export", "-json=ImportPath,Export,ForTest,Error,DepsErrors"}, patterns...))
	if err != nil {
		return nil, err
	}
	exports := map[string]exportEntry{}
	for _, p := range pkgs {
		// Skip per-test package variants ("p [p.test]"): importers want
		// the plain build of p, and test mains are not importable.
		if p.ForTest != "" || strings.Contains(p.ImportPath, " [") || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		e := exportEntry{file: p.Export, stderr: stderr}
		if p.Error != nil {
			e.problem = strings.TrimSpace(p.Error.Err)
		}
		exports[p.ImportPath] = e
	}
	return exports, nil
}

// exportEntry is one package's compile outcome from `go list -export`:
// the export data file when it compiled, and everything known about why
// it did not otherwise.
type exportEntry struct {
	file    string
	problem string // the package's own load/compile error, if any
	stderr  string // full go list stderr, for errors reported only there
}

func goList(dir string, args []string) ([]listedPackage, string, error) {
	cmd := exec.Command("go", append([]string{"list", "-e"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, stderr.String(), fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, stderr.String(), fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, stderr.String(), nil
}

// newExportImporter returns a types.Importer backed by gc export data
// files produced by `go list -export`. A missing export (the package
// failed to compile) produces an error carrying the compiler's own
// diagnostics instead of an opaque lookup failure: `go list -e -export`
// exits 0 on compile errors, so without this the only symptom would be
// "no export data" with the cause swallowed.
func newExportImporter(fset *token.FileSet, exports map[string]exportEntry) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (package not reachable from the analysis patterns)", path)
		}
		if e.file == "" {
			if e.problem != "" {
				return nil, fmt.Errorf("no export data for %q: %s", path, e.problem)
			}
			if s := strings.TrimSpace(e.stderr); s != "" {
				return nil, fmt.Errorf("no export data for %q; go list -export reported:\n%s", path, s)
			}
			return nil, fmt.Errorf("no export data for %q (package failed to compile)", path)
		}
		return os.Open(e.file)
	})
}

// ModuleRoot locates the root of the enclosing module (the directory
// holding go.mod), so mmt-vet can be invoked from any subdirectory.
func ModuleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}
