package analyzers_test

import (
	"bytes"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmt/internal/analyzers"
)

// writeModule lays out a throwaway module for driver tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestDriverAllowAudit: a full run flags //mmt:allow comments that
// suppressed nothing and comments naming analyzers that do not exist,
// retired ones included; a
// partial -run leaves allows for analyzers outside the run set alone.
func TestDriverAllowAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool")
	}
	dir := writeModule(t, map[string]string{
		"go.mod": "module tempmod\n\ngo 1.24\n",
		"a/a.go": `package a

//mmt:allow nopanic: stale — nothing here panics
func F() int { return 1 }

//mmt:allow nosuch: typo for a real analyzer name
func G() int { return 2 }

//mmt:allow lockorder: a retired rule is no rule
func H() int { return 3 }

//mmt:allow noalloc: nor is the allocation rule the tests replaced
func I() int { return 4 }
`,
	})
	findings, err := analyzers.Run(dir, []string{"./..."}, analyzers.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 4 {
		t.Fatalf("got %d findings, want 4: %v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Analyzer != "unusedallow" || f.ID() != analyzers.UnusedAllowID {
			t.Errorf("finding %s: analyzer %q id %q, want unusedallow/%s", f, f.Analyzer, f.ID(), analyzers.UnusedAllowID)
		}
	}
	if !strings.Contains(findings[0].Message, "unused //mmt:allow nopanic") {
		t.Errorf("first finding %q, want unused-nopanic audit", findings[0].Message)
	}
	if !strings.Contains(findings[1].Message, `unknown analyzer "nosuch"`) {
		t.Errorf("second finding %q, want unknown-analyzer audit", findings[1].Message)
	}
	for i, name := range []string{"lockorder", "noalloc"} {
		if f := findings[2+i]; !strings.Contains(f.Message, fmt.Sprintf("unknown analyzer %q", name)) {
			t.Errorf("finding %q, want the retired name %s audited as unknown", f.Message, name)
		}
	}

	// Partial run: nopanic did not run, so its allow is not auditable;
	// an unknown name is always a finding.
	findings, err = analyzers.Run(dir, []string{"./..."}, []*analyzers.Analyzer{analyzers.SimClock})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 3 || !strings.Contains(findings[0].Message, `unknown analyzer "nosuch"`) {
		t.Fatalf("partial run: got %v, want only the three unknown-analyzer audits", findings)
	}
}

// TestFindingString pins the file:line:col: [analyzer] message line that
// mmt-vet prints for each finding.
func TestFindingString(t *testing.T) {
	f := analyzers.Finding{
		Analyzer: "nopanic",
		Pos:      token.Position{Filename: "a/a.go", Offset: 40, Line: 3, Column: 2},
		Message:  "panic in library code",
	}
	if got, want := f.String(), "a/a.go:3:2: [nopanic] panic in library code"; got != want {
		t.Fatalf("Finding.String() = %q, want %q", got, want)
	}
}

// TestDriverSurfacesCompileError: when a dependency fails to compile,
// the driver's error must carry the compiler's own diagnostics, not an
// opaque missing-export failure.
func TestDriverSurfacesCompileError(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool")
	}
	dir := writeModule(t, map[string]string{
		"go.mod":         "module tempmod\n\ngo 1.24\n",
		"inner/inner.go": "package inner\n\nfunc F() int { return \"x\" }\n",
		"top/top.go":     "package top\n\nimport \"tempmod/inner\"\n\nvar V = inner.F()\n",
	})
	_, err := analyzers.Run(dir, []string{"./top"}, analyzers.All())
	if err == nil {
		t.Fatal("expected an error for the broken dependency")
	}
	msg := err.Error()
	if !strings.Contains(msg, "inner") || !strings.Contains(msg, "cannot use") {
		t.Errorf("error %q does not surface the compile diagnostic", msg)
	}
}

// goldenFindings is a fixed finding list; paths sit under the fake root
// /m so output is machine-independent.
func goldenFindings() []analyzers.Finding {
	f1 := analyzers.Finding{Analyzer: "nopanic", Message: "panic in library code"}
	f1.Pos.Filename = "/m/internal/x/x.go"
	f1.Pos.Line = 12
	f1.Pos.Column = 7
	f2 := analyzers.Finding{Analyzer: "unusedallow", Message: "unused //mmt:allow simclock: comment suppresses nothing and should be removed"}
	f2.Pos.Filename = "/m/internal/y/y.go"
	f2.Pos.Line = 3
	f2.Pos.Column = 1
	return []analyzers.Finding{f1, f2}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate by saving the got bytes)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestOutputGolden pins the machine-readable format byte-for-byte: the
// schema is a CI interface, so accidental drift must fail loudly. The
// writer also runs twice to prove byte-stability.
func TestOutputGolden(t *testing.T) {
	findings := goldenFindings()
	var a, b bytes.Buffer
	if err := analyzers.WriteJSON(&a, findings, "/m"); err != nil {
		t.Fatal(err)
	}
	if err := analyzers.WriteJSON(&b, findings, "/m"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteJSON is not byte-stable across invocations")
	}
	checkGolden(t, "findings.json", a.Bytes())

}

// TestRunByteStable runs the real driver twice over the same package and
// requires identical JSON bytes — the end-to-end determinism CI relies
// on when diffing artifacts between runs.
func TestRunByteStable(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool")
	}
	root, err := analyzers.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	var bufs [2]bytes.Buffer
	for i := range bufs {
		findings, err := analyzers.Run(root, []string{"./internal/trace"}, analyzers.All())
		if err != nil {
			t.Fatal(err)
		}
		if err := analyzers.WriteJSON(&bufs[i], findings, root); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Error("driver output is not byte-stable across runs")
	}
}
