package mmt

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestAPIGolden holds the public surface to testdata/api.golden: the root
// package as `go doc -all .` prints it, then what each cmd/ program prints
// for -h. A change that grows or reshapes Cluster, Buffer, Link, anything
// else exported or a command's flags shows it in its own diff, as
// loc-gate shows a change in size. It names the first line that differs.
// After a deliberate change, regenerate with
// `go test -run TestAPIGolden . -update`.
func TestAPIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool")
	}
	doc, err := exec.Command("go", "doc", "-all", ".").Output()
	if err != nil {
		t.Fatalf("go doc -all .: %v", err)
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	cmds, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.Write(doc)
	for _, c := range cmds {
		run := exec.Command("./"+c.Name(), "-h")
		run.Dir = bin
		out, _ := run.CombinedOutput() // -h exits 0 or 2, as the flag package chooses
		fmt.Fprintf(&b, "\n== %s -h\n%s", c.Name(), out)
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile("testdata/api.golden", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/api.golden")
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(g), len(w)) {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("public surface differs from testdata/api.golden at line %d:\n got:    %q\n golden: %q\nregenerate with `go test -run TestAPIGolden . -update` if the change is deliberate", i+1, gl, wl)
		}
	}
}
