package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixture mutates testdata/fixture, whose test holds one of its two
// checks: one mutant is killed by that test and one survives, which
// passes only while survivors.txt-style entries list it.
func TestFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the fixture's tests")
	}
	root, err := filepath.Abs("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	const later = "fixture.go Later drop"
	for _, c := range []struct {
		known map[string]string
		bad   int
		want  []string
	}{
		{map[string]string{later: "no test feeds Later a bad tag"}, 0, []string{
			"killed   fixture.go:14 Accept drop [checkverify] fixture.TestAccept",
			"SURVIVED fixture.go:16 Later drop [checkverify]",
			"expected survivor fixture.go:16 Later drop: no test feeds Later a bad tag",
			"checkverify           2       1",
		}},
		{nil, 1, []string{"UNEXPECTED survivor fixture.go:16 Later drop [checkverify]"}},
		{map[string]string{later: "x", "fixture.go Accept drop": "y"}, 1, []string{"STALE survivors.txt entry, every mutant killed: fixture.go Accept drop"}},
	} {
		var out bytes.Buffer
		bad, err := mutate(root, []string{"./..."}, c.known, &out)
		if err != nil {
			t.Fatal(err)
		}
		if bad != c.bad {
			t.Errorf("%d disagreements, want %d:\n%s", bad, c.bad, out.String())
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("output lacks %q:\n%s", w, out.String())
			}
		}
	}
}
