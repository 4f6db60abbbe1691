// Package analysistest runs one analyzer over a fixture directory and
// checks its diagnostics against // want "regexp" comments, mirroring
// golang.org/x/tools/go/analysis/analysistest for the self-contained
// framework in internal/analyzers.
//
// Fixtures live in testdata/src/<name>/ next to the calling test. Every
// line that must produce a diagnostic carries a trailing
//
//	// want "regexp"
//
// comment; any diagnostic without a matching want, or want without a
// matching diagnostic, fails the test. Files named *_test.go inside the
// fixture exercise the non-test-code scoping (they are parsed and
// typechecked but must yield no findings), and //mmt:allow comments
// exercise suppression.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"mmt/internal/analyzers"
)

var wantRe = regexp.MustCompile(`//\s*want\s+"((?:[^"\\]|\\.)*)"`)

// Run applies a to the fixture package testdata/src/<fixture> and
// reports mismatches between findings and want comments on t.
//
// The fixture is typechecked under the package path
// "mmt/internal/<fixture>" so the suite's internal-only scoping applies
// exactly as it does on real packages.
func Run(t *testing.T, a *analyzers.Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture files in %s: %v", dir, err)
	}
	sort.Strings(names)
	base := make([]string, len(names))
	for i, n := range names {
		base[i] = filepath.Base(n)
	}
	findings, err := analyzers.RunFiles(dir, base, "mmt/internal/"+fixture, []*analyzers.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, fixture, err)
	}

	wants := collectWants(t, dir, base)
	matched := make([]bool, len(wants))
	for _, f := range findings {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != filepath.Base(f.Pos.Filename) || w.line != f.Pos.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: [%s] %s",
				filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer, f.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

func collectWants(t *testing.T, dir string, names []string) []want {
	t.Helper()
	var wants []want
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, m[1], err)
			}
			wants = append(wants, want{file: name, line: i + 1, re: re})
		}
	}
	return wants
}
