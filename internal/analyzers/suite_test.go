package analyzers_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mmt/internal/analyzers"
	"mmt/internal/analyzers/analysistest"
)

// Each rule runs over its fixture package testdata/src/<name>: // want
// comments mark the expected diagnostics, *_test.go fixture files must
// stay silent, and //mmt:allow comments exercise suppression. One named
// function per rule — the repository's test floor pins these names —
// and TestEveryRuleHasFixture is the table that keeps the list honest.

func TestSimClock(t *testing.T)      { analysistest.Run(t, analyzers.SimClock, "simclock") }
func TestCryptoCompare(t *testing.T) { analysistest.Run(t, analyzers.CryptoCompare, "cryptocompare") }
func TestCheckVerify(t *testing.T)   { analysistest.Run(t, analyzers.CheckVerify, "checkverify") }
func TestNoPanic(t *testing.T)       { analysistest.Run(t, analyzers.NoPanic, "nopanic") }
func TestMapOrder(t *testing.T)      { analysistest.Run(t, analyzers.MapOrder, "maporder") }
func TestParClock(t *testing.T)      { analysistest.Run(t, analyzers.ParClock, "parclock") }
func TestEventKind(t *testing.T)     { analysistest.Run(t, analyzers.EventKind, "eventkind") }
func TestTraceCtx(t *testing.T)      { analysistest.Run(t, analyzers.TraceCtx, "tracectx") }

// TestEveryRuleHasFixture is the table over the suite: a rule in
// analyzers.All() without a testdata/src/<name> fixture, or with one that
// expects no diagnostic, has never been seen to fire.
func TestEveryRuleHasFixture(t *testing.T) {
	for _, a := range analyzers.All() {
		files, _ := filepath.Glob(filepath.Join("testdata", "src", a.Name, "*.go"))
		wants := false
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			wants = wants || bytes.Contains(src, []byte(`// want "`))
		}
		if !wants {
			t.Errorf("rule %s (%s): no fixture in testdata/src/%s with a // want comment", a.Name, a.ID, a.Name)
		}
	}
}

// TestDriverOnRealPackage smoke-tests the go-list driver end to end: the
// shipped tree must be clean under the full suite for at least one real
// package (the crypto core, which is also the most invariant-dense).
func TestDriverOnRealPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool")
	}
	root, err := analyzers.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analyzers.Run(root, []string{"./internal/crypt"}, analyzers.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}
